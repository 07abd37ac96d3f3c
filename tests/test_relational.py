"""Finite relational structures: canonical forms, profiles, growth laws,
and kernel-based annihilators."""

import json
import random
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from agealgebra import relational
from agealgebra.cli import run
from agealgebra.linalg import IntMatrix, kernel_vector
from agealgebra.relational import (
    IsoType,
    RelStructure,
    canonical_form,
    check_profile_inequalities,
    profile,
    structure_from_json,
    type_classes,
)
from agealgebra.setfuncs import SetFunction, product, singleton_ones
from agealgebra.subsets import ksubsets, members


def graph(base_size, edges):
    """Simple graph as one symmetric binary relation."""
    tuples = []
    for a, b in edges:
        if a == b:
            raise ValueError("no loops in a simple graph")
        tuples.append((a, b))
        tuples.append((b, a))
    return RelStructure(base_size, (2,), (tuples,))


def apply_permutation(r, perm):
    if sorted(perm) != list(range(r.base_size)):
        raise ValueError("not a permutation of the base")
    return RelStructure(
        r.base_size, r.signature, [[tuple(perm[x] for x in t) for t in rel] for rel in r.relations]
    )


def restriction(r, keep):
    """Induced substructure on the point mask `keep`, re-indexed to
    0..|keep|-1 in point order."""
    if keep >> r.base_size:
        raise ValueError("point set is not over this base")
    order = {p: i for i, p in enumerate(members(keep))}
    rels = []
    for rel in r.relations:
        kept = [
            tuple(order[x] for x in t)
            for t in rel
            if all(keep >> x & 1 for x in t)
        ]
        rels.append(kept)
    return RelStructure(keep.bit_count(), r.signature, rels)


def structure_to_dict(r):
    """The JSON object that `agealg profile --input` reads."""
    return {
        "base_size": r.base_size,
        "signature": list(r.signature),
        "relations": [[list(t) for t in sorted(rel)] for rel in r.relations],
    }


def invariant_basis(r, n):
    """Indicators of the realized types, ordered by first colex occurrence."""
    return [
        SetFunction(r.base_size, n, dict.fromkeys(points, 1))
        for points in type_classes(r, n).values()
    ]


def e_regular_on_invariants(structure, n):
    """True iff multiplying by the all-ones degree-1 function is injective
    on the span of the isomorphism-invariant indicator functions."""
    basis = invariant_basis(structure, n)
    ground = structure.base_size
    if n + 1 > ground:
        raise ValueError("image degree exceeds the base")
    ones = singleton_ones(ground)
    images = [product(ones, h) for h in basis]
    # Column j holds the numerators of image j, a positive multiple of it,
    # which leaves the kernel's triviality unchanged.
    nums = [[img.value(q) for img in images] for q in ksubsets(ground, n + 1)]
    return kernel_vector(IntMatrix(nums, len(images))) is None


def disjoint_embedding_check(r, k):
    """True iff every restriction of at most k points has a disjoint
    isomorphic copy elsewhere in the structure."""
    if 2 * k > r.base_size:
        raise ValueError("need 2k points in the base")
    for size in range(k + 1):
        for masks in type_classes(r, size).values():
            if any(all(a & b for b in masks) for a in masks):
                return False
    return True


def kernel_zero_divisor(r, f_mask):
    """Square-zero invariant indicator built from the type of one subset.

    Requires that no two disjoint subsets share that type; then the
    indicator f of the type satisfies f * f = 0, which is re-verified.
    """
    t = canonical_form(restriction(r, f_mask))
    degree = f_mask.bit_count()
    realizations = type_classes(r, degree)[t]
    # Self-pairs included: the empty type's one realization is disjoint
    # from itself.
    for a, b in combinations_with_replacement(realizations, 2):
        if not a & b:
            raise ValueError("type admits disjoint embedding; f² ≠ 0 not guaranteed")
    f = SetFunction(r.base_size, degree, dict.fromkeys(realizations, 1))
    if not product(f, f).is_zero:
        raise AssertionError("indicator square is nonzero despite no disjoint pair")
    return f


def hilbert_inequality_check(h, upto):
    """Superadditivity-minus-one of a candidate Hilbert sequence:
    h[n] + h[m] - 1 <= h[n+m] for all n + m <= upto."""
    if upto >= len(h):
        raise ValueError("sequence too short for the requested range")
    for n in range(upto + 1):
        for m in range(upto + 1 - n):
            if h[n] + h[m] - 1 > h[n + m]:
                return False
    return True


# Deterministic corpora of the sweeps here and in test_acceptance.py.

def _pair_table(l):
    return list(combinations(range(l), 2))


def graph_from_edge_mask(l, mask):
    pairs = _pair_table(l)
    return graph(l, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_graph_classes(l):
    """One representative per isomorphism class of graphs on l vertices.

    Walks all 2^C(l,2) edge masks, expanding each unseen mask's orbit under
    the vertex permutations; the orbit minimum is the representative.
    """
    pairs = _pair_table(l)
    npairs = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}
    tables = [
        [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        for perm in permutations(range(l))
    ]
    seen = bytearray(1 << npairs)
    reps = []
    for mask in range(1 << npairs):
        if seen[mask]:
            continue
        orbit = set()
        for table in tables:
            img = 0
            rest = mask
            while rest:
                low = rest & -rest
                img |= 1 << table[low.bit_length() - 1]
                rest ^= low
            orbit.add(img)
        for img in orbit:
            seen[img] = 1
        reps.append(min(orbit))
    return [graph_from_edge_mask(l, mask) for mask in sorted(reps)]


def random_structure(rng, base_size, signature):
    rels = []
    for arity in signature:
        tuples = [t for t in iproduct(range(base_size), repeat=arity) if rng.random() < 0.5]
        rels.append(tuples)
    return RelStructure(base_size, signature, rels)


def random_structures(seed, count, max_base, max_arity):
    """Deterministic corpus of random structures; signature sizes 1 or 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        base = rng.randint(1, max_base)
        sig = [rng.randint(1, max_arity) for _ in range(rng.randint(1, 2))]
        out.append(random_structure(rng, base, sig))
    return out


def c4():
    return graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def cycle(l):
    return graph(l, [(i, (i + 1) % l) for i in range(l)])


def complete(l):
    return graph(l, list(combinations(range(l), 2)))


def complete_bipartite(m, n):
    return graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def cube():
    """The 3-cube: points are 3-bit words, edges join words one bit apart."""
    return graph(8, [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b])


# Profile sequences pinned from the exhaustive minimum over in-cell orders
# that individualization-refinement replaced, where each 8-point
# vertex-transitive graph took about a second.
GOLDEN_PROFILES = {
    "C8": (cycle(8), [1, 1, 2, 3, 5, 5, 4, 1, 1]),
    "cube": (cube(), [1, 1, 2, 3, 6, 3, 3, 1, 1]),
    "K4,4": (complete_bipartite(4, 4), [1, 1, 2, 2, 3, 2, 2, 1, 1]),
    "K8": (complete(8), [1] * 9),
    "empty8": (graph(8, []), [1] * 9),
    # the 5-point graph of CI's reproducibility step: the path 0-1-2-3-4
    # with the chord 1-3
    "ci-graph": (graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]), [1, 1, 2, 4, 3, 1]),
    "digraph-seed1": (random_structure(random.Random(1), 8, (2,)), [1, 2, 9, 37, 63, 55, 28, 8, 1]),
    "digraph-seed2": (random_structure(random.Random(2), 8, (2,)), [1, 2, 9, 37, 66, 55, 28, 8, 1]),
    "ternary-seed3": (random_structure(random.Random(3), 7, (3,)), [1, 2, 19, 35, 35, 21, 7, 1]),
}


@cache
def brute_encoding(r):
    """Oracle: the base size, the signature and the least relabelled
    encoding over all l! permutations; structures on different bases are
    never isomorphic, even when their tuples agree."""
    return r.base_size, r.signature, min(
        tuple(tuple(sorted(tuple(perm[x] for x in t) for t in rel)) for rel in r.relations)
        for perm in permutations(range(r.base_size))
    )


def brute_profile_sequence(r):
    return [
        len({brute_encoding(restriction(r, points)) for points in ksubsets(r.base_size, n)})
        for n in range(r.base_size + 1)
    ]


@st.composite
def twin_rich_structures(draw, max_base=6):
    """A structure on at most max_base points whose tuples mostly see a
    point only through its part, so points of one part tend to be twins:
    a union of cliques or a complete multipartite graph, loops on whole
    parts, unary marks on whole parts and on up to two single points, and
    a ternary relation chosen by the parts of its entries; relabelled."""
    l = draw(st.integers(1, max_base))
    part = draw(st.lists(st.integers(0, 2), min_size=l, max_size=l))
    within = draw(st.booleans())
    looped = draw(st.sets(st.integers(0, 2)))
    marked = draw(st.sets(st.integers(0, 2)))
    singles = draw(st.sets(st.integers(0, l - 1), max_size=2))
    triples = draw(st.sets(st.tuples(*[st.integers(0, 2)] * 3), max_size=4))
    edges = [
        (a, b)
        for a in range(l)
        for b in range(l)
        if (part[a] in looped if a == b else (part[a] == part[b]) == within)
    ]
    marks = [(a,) for a in range(l) if part[a] in marked or a in singles]
    ternary = [t for t in iproduct(range(l), repeat=3) if tuple(part[x] for x in t) in triples]
    r = RelStructure(l, (2, 1, 3), [edges, marks, ternary])
    return apply_permutation(r, draw(st.permutations(range(l))))


def swap_is_automorphism(r, x, y):
    perm = list(range(r.base_size))
    perm[x], perm[y] = y, x
    return apply_permutation(r, perm) == r


@st.composite
def structure_pairs(draw):
    """A structure on at most 6 points with arities 1-3, and a partner of
    the same signature: a relabelled copy, a copy with one tuple toggled,
    or an independent random structure."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    l = draw(st.integers(0, 6))
    sig = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7)))

    def fresh():
        return RelStructure(l, sig, [
            [t for t in iproduct(range(l), repeat=a) if rng.random() < density] for a in sig
        ])

    a = fresh()
    return a, partner(rng, a, draw(st.sampled_from(PARTNER_KINDS)), fresh)


PARTNER_KINDS = ("relabel", "toggle", "fresh")


def partner(rng, a, kind, fresh):
    """A relabelled copy of a, that copy with one tuple toggled (when a has
    points), or fresh()."""
    perm = list(range(a.base_size))
    rng.shuffle(perm)
    b = apply_permutation(a, perm)
    if kind == "toggle" and a.base_size:
        i = rng.randrange(len(a.signature))
        t = tuple(rng.randrange(a.base_size) for _ in range(a.signature[i]))
        rels = [set(rel) for rel in b.relations]
        rels[i] ^= {t}
        b = RelStructure(a.base_size, a.signature, rels)
    elif kind == "fresh":
        b = fresh()
    return b


def test_graph_constructor_symmetrizes_and_rejects_loops():
    g = graph(3, [(1, 0)])
    assert (0, 1) in g.relations[0] and (1, 0) in g.relations[0]
    with pytest.raises(ValueError):
        graph(3, [(1, 1)])


def test_tuple_entries_validated():
    with pytest.raises(ValueError):
        RelStructure(3, (2,), [[(0, 3)]])
    with pytest.raises(ValueError):
        RelStructure(3, (0,), [[]])


def test_isomorphism_detects_relabelings():
    a = graph(4, [(0, 1), (1, 2), (2, 3)])
    b = graph(4, [(3, 2), (2, 0), (0, 1)])
    assert canonical_form(a) == canonical_form(b)
    c = graph(4, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(a) != canonical_form(c)


@settings(max_examples=200, deadline=None)
@given(structure_pairs())
def test_canonical_form_agrees_with_brute_force(pair):
    a, b = pair
    assert (canonical_form(a) == canonical_form(b)) == (brute_encoding(a) == brute_encoding(b))


def test_canonical_form_handles_repeated_points():
    loops = RelStructure(3, (2,), [[(0, 0), (0, 1)]])
    relabelled = apply_permutation(loops, [2, 0, 1])
    assert canonical_form(loops) == canonical_form(relabelled)
    moved = RelStructure(3, (2,), [[(1, 1), (0, 1)]])
    assert canonical_form(loops) != canonical_form(moved)
    assert brute_encoding(loops) != brute_encoding(moved)


def test_canonical_form_is_cached_and_bounded():
    info = canonical_form.cache_info()
    assert info.maxsize == relational.CANON_CACHE_SIZE
    g = graph(5, [(0, 1), (1, 2), (2, 3)])
    canonical_form(g)
    before = canonical_form.cache_info().hits
    canonical_form(graph(5, [(3, 2), (2, 1), (1, 0)]))
    assert canonical_form.cache_info().hits == before + 1


@settings(max_examples=100, deadline=None)
@given(structure_pairs())
def test_type_classes_group_subsets_by_brute_encoding(pair):
    r = pair[0]
    l = r.base_size
    for n in range(l + 1):
        classes = type_classes(r, n)
        listed = [p for points in classes.values() for p in points]
        assert sorted(listed) == ksubsets(l, n)
        assert all(points == sorted(points) for points in classes.values())
        firsts = [points[0] for points in classes.values()]
        assert firsts == sorted(firsts)
        label = {p: i for i, points in enumerate(classes.values()) for p in points}
        for a in ksubsets(l, n):
            for b in ksubsets(l, n):
                same = brute_encoding(restriction(r, a)) == brute_encoding(restriction(r, b))
                assert (label[a] == label[b]) == same
        assert profile(r, n) == len(classes)
    for n in (-1, l + 1):
        with pytest.raises(ValueError):
            type_classes(r, n)


def test_profiles_match_brute_force_on_small_graphs():
    for l in range(1, 7):
        for g in all_graph_classes(l):
            assert check_profile_inequalities(g).values == brute_profile_sequence(g)


def test_profiles_match_brute_force_on_random_corpus():
    for r in random_structures(11, 40, 6, 3):
        assert check_profile_inequalities(r).values == brute_profile_sequence(r)


@settings(max_examples=100, deadline=None)
@given(twin_rich_structures(max_base=8), st.randoms(use_true_random=False))
def test_canonical_form_is_invariant_on_twin_rich_structures(r, rng):
    perm = list(range(r.base_size))
    rng.shuffle(perm)
    assert canonical_form(apply_permutation(r, perm)) == canonical_form(r)


@settings(max_examples=60, deadline=None)
@given(
    twin_rich_structures(),
    twin_rich_structures(),
    st.sampled_from(PARTNER_KINDS),
    st.randoms(use_true_random=False),
)
def test_canonical_form_agrees_with_brute_force_on_twin_rich_structures(a, other, kind, rng):
    b = partner(rng, a, kind, lambda: other)
    assert (canonical_form(a) == canonical_form(b)) == (brute_encoding(a) == brute_encoding(b))


@settings(max_examples=100, deadline=None)
@given(twin_rich_structures(max_base=7))
def test_twins_are_the_brute_checked_transposition_automorphisms(r):
    occurrences = relational._occurrences(r)
    twin = relational._twins(r, occurrences, relational._refine(occurrences, [0] * r.base_size))
    for x in range(r.base_size):
        swaps = [y for y in range(x) if swap_is_automorphism(r, x, y)]
        assert twin[x] == (swaps[0] if swaps else x)


@pytest.mark.parametrize("name", sorted(GOLDEN_PROFILES))
def test_profile_sequences_are_pinned(name):
    r, values = GOLDEN_PROFILES[name]
    assert check_profile_inequalities(r).values == values


@pytest.mark.parametrize("name, bound", [("C8", 25), ("cube", 81), ("K4,4", 13), ("K8", 8)])
def test_canonical_form_refines_within_its_work_bound(monkeypatch, name, bound):
    """Twin pruning keeps K8 and K4,4 to one branch per twin class, and
    individualization-refinement keeps the rest far below l! orders."""
    refine = relational._refine
    calls = []

    def counting(occurrences, colour):
        calls.append(colour)
        if len(calls) > bound:
            raise AssertionError(f"{name} needs more than {bound} refinements")
        return refine(occurrences, colour)

    monkeypatch.setattr(relational, "_refine", counting)
    relational.canonical_form.__wrapped__(GOLDEN_PROFILES[name][0])


def test_canonical_form_base_cap():
    big = graph(9, [])
    with pytest.raises(ValueError, match="base too large"):
        canonical_form(big)


def test_four_cycle_profile():
    assert check_profile_inequalities(c4()).values == [1, 1, 2, 1, 1]


def test_empty_and_complete_graphs_have_flat_profiles():
    e5 = graph(5, [])
    assert check_profile_inequalities(e5).values == [1] * 6
    k5 = graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert check_profile_inequalities(k5).values == [1] * 6


def test_profile_counts_path_restrictions():
    p4 = graph(4, [(0, 1), (1, 2), (2, 3)])
    # pairs: edge and non-edge
    assert profile(p4, 2) == 2
    # triples: one edge or two edges
    assert profile(p4, 3) == 2


def test_invariant_basis_partitions_the_shapes():
    g = c4()
    basis = invariant_basis(g, 2)
    assert len(basis) == 2
    edge_type = canonical_form(graph(2, [(0, 1)]))
    assert basis[0].support().masks() == type_classes(g, 2)[edge_type]
    assert len(basis[0].support().sets) == 4
    assert all(basis[0].value(s) + basis[1].value(s) == 1 for s in ksubsets(4, 2))


def test_profile_inequalities_on_hand_graphs():
    for g in (c4(), graph(5, [(0, 1), (1, 2), (3, 4)])):
        rep = check_profile_inequalities(g)
        assert all(chk["pass"] for chk in rep.checks)


def test_profile_violations_are_reported_not_raised(monkeypatch, tmp_path):
    monkeypatch.setattr(relational, "profile", lambda r, n: 10 - n)
    rep = check_profile_inequalities(c4())
    assert rep.values == [10, 9, 8, 7, 6]
    violations = [c for c in rep.checks if not c["pass"]]
    assert violations and not all(c["pass"] for c in rep.checks)
    assert {"kind": "monotone", "n": 0, "m": 1, "lhs": 10, "rhs": 9, "pass": False} in violations
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(structure_to_dict(c4())))
    code, report = run(["profile", "--input", str(path)])
    assert code == 1
    assert any(not r["pass"] for r in report["results"])


def test_disjoint_embedding_marked_point():
    marked = RelStructure(4, (1,), [[(0,)]])
    assert not disjoint_embedding_check(marked, 1)
    plain = RelStructure(4, (1,), [[]])
    assert disjoint_embedding_check(plain, 2)
    with pytest.raises(ValueError):
        disjoint_embedding_check(plain, 3)


def test_disjoint_embedding_matches_pairwise_definition():
    def pairwise(r, k):
        return all(
            any(
                not other & points
                and brute_encoding(restriction(r, other)) == brute_encoding(restriction(r, points))
                for other in ksubsets(r.base_size, size)
            )
            for size in range(k + 1)
            for points in ksubsets(r.base_size, size)
        )

    corpus = all_graph_classes(4) + all_graph_classes(5) + random_structures(5, 30, 6, 2)
    answers = set()
    for r in corpus:
        for k in range(r.base_size // 2 + 1):
            answers.add(disjoint_embedding_check(r, k))
            assert disjoint_embedding_check(r, k) == pairwise(r, k)
    assert answers == {True, False}


def test_kernel_zero_divisor_squares_to_zero():
    marked = RelStructure(4, (1,), [[(0,)]])
    f = kernel_zero_divisor(marked, 1 << 0)
    assert not f.is_zero
    assert product(f, f).is_zero


def test_kernel_zero_divisor_refuses_embeddable_types():
    two_triangles = graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(ValueError) as exc:
        kernel_zero_divisor(two_triangles, 1 << 0 | 1 << 1 | 1 << 2)
    assert "disjoint embedding" in str(exc.value)


def test_kernel_zero_divisor_squares_to_zero_or_refuses_on_small_graphs():
    # The empty set included: its type is realized by a set disjoint from
    # itself, so it must be refused, not fail the square check.
    for l in range(1, 6):
        for r in all_graph_classes(l):
            for mask in range(1 << l):
                try:
                    f = kernel_zero_divisor(r, mask)
                except ValueError:
                    continue
                assert product(f, f).is_zero
    with pytest.raises(ValueError):
        kernel_zero_divisor(graph(3, []), 0)


def test_multiplication_by_ones_on_invariants():
    assert e_regular_on_invariants(c4(), 1)
    # the cycle's triples all look alike, which leaves room in the kernel
    assert not e_regular_on_invariants(c4(), 2)
    p6 = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert e_regular_on_invariants(p6, 2)


def test_hilbert_checker_accepts_geometric_growth():
    for k in (2, 3, 4):
        seq = tuple(k**i for i in range(11))
        assert hilbert_inequality_check(seq, 10)


def test_hilbert_checker_flags_flat_sequences():
    assert not hilbert_inequality_check((1, 2, 2, 2), 3)
    with pytest.raises(ValueError):
        hilbert_inequality_check((1, 2), 5)


def test_graph_classes_match_known_counts():
    assert [len(all_graph_classes(l)) for l in (1, 2, 3, 4, 5)] == [1, 2, 4, 11, 34]


def test_graph_classes_pairwise_nonisomorphic():
    reps = all_graph_classes(4)
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert canonical_form(a) != canonical_form(b)


def test_random_structures_deterministic_and_valid():
    xs = random_structures(42, 20, 5, 3)
    ys = random_structures(42, 20, 5, 3)
    assert [x.encode() for x in xs] == [y.encode() for y in ys]
    for x in xs:
        assert x.base_size <= 5
        assert all(a <= 3 for a in x.signature)


def test_random_ternary_structures_satisfy_growth_laws():
    rng = random.Random(2024)
    for _ in range(100):
        s = random_structure(rng, rng.randint(1, 5), (3,))
        assert all(c["pass"] for c in check_profile_inequalities(s).checks)


def test_structure_json_round_trip():
    g = c4()
    blob = json.dumps(structure_to_dict(g))
    assert structure_from_json(blob) == g
