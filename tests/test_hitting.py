"""Branch-and-bound minimum hitting set, cross-checked by brute force and,
node for node, by the list-of-masks search it replaced."""

import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from agealgebra.hitting import (
    NoTransversalError,
    _minimal,
    _twins,
    is_minimal_transversal,
    is_transversal,
    tau,
)
from agealgebra.subsets import SetFamily, Subset, columns
from agealgebra.witnesses import gadget_lower, gadget_tau1n, two_squares


def family(l, members):
    return SetFamily(l, [Subset(l, sum({1 << i for i in m})) for m in members])


def brute_tau(fam):
    l = fam.n
    masks = fam.masks()
    if not masks:
        return 0
    for k in range(l + 1):
        for combo in combinations(range(l), k):
            cm = 0
            for x in combo:
                cm |= 1 << x
            if all(cm & m for m in masks):
                return k
    return None


def test_empty_family_needs_nothing():
    res = tau(family(4, []))
    assert res.size == 0 and res.witness.mask == 0


def test_single_member():
    res = tau(family(4, [[1, 2]]))
    assert res.size == 1
    assert is_transversal(res.witness.mask, family(4, [[1, 2]]).masks())


def test_empty_member_blocks_everything():
    with pytest.raises(NoTransversalError):
        tau(family(3, [[]]))


def test_disjoint_members_force_one_each():
    fam = family(6, [[0, 1], [2, 3], [4, 5]])
    assert tau(fam).size == 3


def test_star_is_cheap():
    fam = family(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
    assert tau(fam).size == 1


def test_complete_graph_cover():
    # pairs of a 6-clique: covering needs all but one point
    fam = family(6, [list(p) for p in combinations(range(6), 2)])
    assert tau(fam).size == 5


def test_witness_and_bounds_consistent():
    fam = family(7, [[0, 1, 2], [2, 3], [4, 5], [1, 5, 6], [0, 6]])
    res = tau(fam)
    assert is_transversal(res.witness.mask, fam.masks())
    assert res.root_lower_bound <= res.size <= res.root_upper_bound
    assert res.size == brute_tau(fam)


def test_random_families_match_brute_force():
    rng = random.Random(11)
    for trial in range(40):
        l = rng.randint(1, 9)
        k = rng.randint(0, 7)
        members = set()
        for _ in range(k):
            size = rng.randint(1, min(4, l))
            members.add(tuple(sorted(rng.sample(range(l), size))))
        fam = family(l, [list(m) for m in members])
        assert tau(fam).size == brute_tau(fam), f"trial {trial}"


def test_many_small_families_match_brute_force():
    # A wrong prune tends to lose the optimum on a few families in a
    # thousand, so the sweep is wide; each family costs well under 1 ms.
    rng = random.Random(7)
    for trial in range(3000):
        l = rng.randint(2, 9)
        members = {
            tuple(sorted(rng.sample(range(l), rng.randint(1, min(4, l)))))
            for _ in range(rng.randint(1, 10))
        }
        fam = family(l, [list(m) for m in members])
        assert tau(fam).size == brute_tau(fam), f"trial {trial}"


def test_larger_random_instances_solve_exactly():
    rng = random.Random(5)
    for _ in range(8):
        l = 12
        members = set()
        for _ in range(18):
            size = rng.randint(2, 4)
            members.add(tuple(sorted(rng.sample(range(l), size))))
        fam = family(l, [list(m) for m in members])
        assert tau(fam).size == brute_tau(fam)


def test_minimality_predicate():
    fam = family(4, [[0, 1], [1, 2], [2, 3]])
    assert is_minimal_transversal(0b0110, fam.masks())
    assert not is_minimal_transversal(0b0111, fam.masks())
    assert not is_minimal_transversal(0b0001, fam.masks())


# Symmetry pruning.  Twin classes are checked against their definition (the
# transposition maps the minimal members onto themselves), and tau against
# brute force on families built to have many twins.


def swap(mask, x, y):
    if (mask >> x & 1) != (mask >> y & 1):
        mask ^= 1 << x | 1 << y
    return mask


def transposition_fixes(masks, x, y):
    return {swap(m, x, y) for m in masks} == set(masks)


def minimal_oracle(masks, colex=False):
    """Members with no proper subset in the family, by size, then by falling
    busyness (the sum of their elements' degrees among these members), then
    colex; with colex, by size then colex.

    Tries every proper submask of each member, so members stay small."""
    distinct = set(masks)

    def has_proper_subset(m):
        sub = m
        while sub:
            sub = (sub - 1) & m
            if sub in distinct:
                return True
        return False

    kept = [m for m in distinct if not has_proper_subset(m)]
    degree = [sum(m >> e & 1 for m in kept) for e in range(max(distinct, default=0).bit_length())]
    busy = {m: 0 if colex else sum(d for e, d in enumerate(degree) if m >> e & 1) for m in kept}
    return sorted(kept, key=lambda m: (m.bit_count(), -busy[m], m))


def twin_oracle(masks, n):
    """Each element's twin class: a transposition tried on pairs of equal
    degree, against one earlier member of each class (twinhood is an
    equivalence)."""
    degree = [sum(m >> x & 1 for m in masks) for x in range(n)]
    classes = []
    for x in range(n):
        for cls in classes:
            if degree[cls[0]] == degree[x] and transposition_fixes(masks, x, cls[0]):
                cls.append(x)
                break
        else:
            classes.append([x])
    twins = [0] * n
    for cls in classes:
        for x in cls:
            twins[x] = sum(1 << y for y in cls)
    return twins


def cell_orbit(mask, cells):
    """Every set meeting each cell in as many points as mask does."""
    choices = [combinations(cell, sum(mask >> x & 1 for x in cell)) for cell in cells]
    return {sum(1 << x for part in pick for x in part) for pick in product(*choices)}


@st.composite
def celled_families(draw):
    """A family closed under permuting points within random cells, plus a
    few arbitrary members that may break some of that symmetry."""
    l = draw(st.integers(1, 9))
    order = draw(st.permutations(range(l)))
    cuts = sorted(draw(st.sets(st.integers(1, l - 1), max_size=l - 1))) if l > 1 else []
    cells = [order[a:b] for a, b in zip([0, *cuts], [*cuts, l])]
    seeds = draw(st.lists(st.integers(1, (1 << l) - 1), min_size=1, max_size=4))
    members = set().union(*(cell_orbit(m, cells) for m in seeds))
    extra = draw(st.lists(st.integers(1, (1 << l) - 1), max_size=2))
    return cells, SetFamily(l, [Subset(l, m) for m in members | set(extra)]), bool(extra)


@settings(max_examples=200, deadline=None)
@given(celled_families())
# Points 0 and 1 lie in the same members, so no member holds one without the
# other: the pair passes the twin test without a member to try.
@example(([[0, 1]], SetFamily(2, [Subset(2, 0b11)]), False))
def test_tau_with_planted_twins_matches_brute_force(case):
    cells, fam, broken = case
    res = tau(fam)
    assert res.size == brute_tau(fam)
    assert is_transversal(res.witness.mask, fam.masks()) and res.witness.mask.bit_count() == res.size
    masks = _minimal(fam.masks(), fam.n)[0]
    twins = _twins(masks, columns(masks, fam.n))
    for x in range(fam.n):
        for y in range(fam.n):
            assert bool(twins[x] >> y & 1) == transposition_fixes(masks, x, y)
    if not broken:
        for cell in cells:
            assert all(twins[cell[0]] >> y & 1 for y in cell)


@st.composite
def nested_families(draw):
    """Members of mixed sizes, many of them supersets of other members."""
    l = draw(st.integers(1, 9))
    base = draw(st.lists(st.integers(1, (1 << l) - 1), min_size=1, max_size=5))
    grown = [m | draw(st.integers(0, (1 << l) - 1)) for m in base for _ in range(2)]
    return SetFamily(l, [Subset(l, m) for m in set(base + grown)])


@settings(max_examples=150, deadline=None)
@given(nested_families())
def test_nested_members_of_mixed_sizes(fam):
    assert _minimal(fam.masks(), fam.n)[0] == minimal_oracle(fam.masks())
    assert tau(fam).size == brute_tau(fam)


@st.composite
def grown_families(draw, small, large):
    """Masks of members of size `small` on 24 points, and of members of size
    `large`, most of them one of the small members grown by random points."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = [rng.sample(range(24), small) for _ in range(draw(st.integers(1, 30)))]
    grown = []
    for _ in range(draw(st.integers(0, 60))):
        core = set(rng.choice(base)) if rng.random() < 0.7 else set()
        core.update(rng.sample(sorted(set(range(24)) - core), large - len(core)))
        grown.append(core)
    return [sum(1 << x for x in m) for m in base + grown]


@settings(max_examples=60, deadline=None)
@given(st.one_of(grown_families(2, 6), grown_families(3, 4)))
def test_minimal_members_on_24_points(masks):
    assert _minimal(masks, 24)[0] == minimal_oracle(masks)


@st.composite
def column_inputs(draw):
    n = draw(st.integers(1, 64))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))


@settings(max_examples=200, deadline=None)
@given(column_inputs())
@example((64, [1 << 63]))
@example((64, [1 << 63 | 1, 1 << 62, 1 << 63 | 1]))
@example((1, [1, 1, 0]))
@example((9, list(range(1, 200, 2))))
@example((5, []))
def test_transposed_columns_match_the_member_bits(case):
    n, masks = case
    assert columns(masks, n) == [
        sum(1 << i for i, m in enumerate(masks) if m >> e & 1) for e in range(n)
    ]


def pair_support(pair):
    return pair.f.support().union(pair.g.support())


def gadget_support(m, n):
    return pair_support(gadget_lower(m, n))


@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (3, 2), (2, 3), (3, 3), (4, 4), (6, 2)])
def test_gadget_twin_classes_are_the_blocks(m, n):
    fam = gadget_support(m, n)
    width = 2 * n
    masks = _minimal(fam.masks(), fam.n)[0]
    twins = _twins(masks, columns(masks, fam.n))
    assert twins == [((1 << width) - 1) << (x - x % width) for x in range(fam.n)]


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2)])
def test_gadget_twin_class_is_the_ground_when_the_support_is_complete(m, n):
    # (2,1): the minimal members are the singletons; (2,2): every pair of
    # the 8 points, across blocks from f and inside them from g.
    fam = gadget_support(m, n)
    full = (1 << fam.n) - 1
    masks = _minimal(fam.masks(), fam.n)[0]
    assert _twins(masks, columns(masks, fam.n)) == [full] * fam.n


def test_gadget_4_4_optimum_in_few_nodes():
    fam = gadget_support(4, 4)
    res = tau(fam)
    assert res.size == 23 and is_transversal(res.witness.mask, fam.masks())
    assert res.nodes_expanded <= 80


@pytest.mark.parametrize("n, most", [(3, 16), (4, 21), (5, 26), (6, 31)])
def test_two_row_gadgets_in_few_nodes(n, most):
    # The busiest-first branch order grew these trees (31 -> 37 nodes at
    # (2,6)); refuting the one-short nodes takes them back below the sizes
    # they had before it: 15, 19, 23 and 27 nodes.
    res = tau(gadget_support(2, n))
    assert res.size == 3 * n + 1
    assert res.nodes_expanded <= most


def benchmark_scale_family():
    """250 distinct 4-sets of 32 points, the shape of the benchmark's random
    tau families."""
    rng = random.Random(32)
    members = set()
    while len(members) < 250:
        members.add(tuple(sorted(rng.sample(range(32), 4))))
    return family(32, [list(m) for m in members])


def test_benchmark_scale_family_optimum_in_few_nodes():
    # 1,264 nodes, and 1,552 when both the packing and the branch member
    # take the lowest index in colex order.  Without the one-each
    # refutation: 3,485, and 4,407 in colex order.
    fam = benchmark_scale_family()
    res = tau(fam)
    assert is_transversal(res.witness.mask, fam.masks()) and res.witness.mask.bit_count() == res.size
    assert res.nodes_expanded <= 1400


# The list-of-masks search that the bitset search replaced.  Both branch on
# the same member, try its elements in the same order, bound with the same
# packing, refute the same one-short nodes and ban the same twins, so they
# must agree on the witness and on the node count, not just the size.  With
# colex, the members go by size then colex, and the packing, like the branch
# member, takes the lowest index.


def one_each_refutes(uncovered, parts):
    """Whether narrowing each part to the elements that every member meeting
    it and no other part holds, until nothing narrows, empties a part or
    leaves a member meeting no part."""
    parts = list(parts)
    while True:
        meets = [[i for i, part in enumerate(parts) if m & part] for m in uncovered]
        if [] in meets:
            return True
        narrowed = False
        for i, part in enumerate(parts):
            kept = part
            for m, where in zip(uncovered, meets):
                if where == [i]:
                    kept &= m
            if kept != part:
                if not kept:
                    return True
                parts[i] = kept
                narrowed = True
        if not narrowed:
            return False


def packing_bound(uncovered, banned, rank):
    """Size and allowed parts of the greedy disjoint packing, fewest allowed
    elements first, ties going to the lowest rank."""
    parts = []
    used = 0
    for m in sorted(uncovered, key=lambda m: ((m & ~banned).bit_count(), rank[m])):
        a = m & ~banned
        if not a & used:
            parts.append(a)
            used |= a
    return len(parts), parts


def reference_tau(fam, one_each=True, colex=False):
    """(size, witness mask, nodes, root lower, root upper) of the old search,
    set up by the oracles above, not by the library.  With one_each, a node
    whose packing bound falls one short of pruning is pruned when
    one_each_refutes its packing's parts.  The packing takes the highest
    index first, or the lowest with colex."""
    masks = minimal_oracle(fam.masks(), colex)
    twins = twin_oracle(masks, fam.n)
    index = {m: i for i, m in enumerate(masks)}
    rank = {m: i if colex else -i for m, i in index.items()}

    chosen, uncovered = 0, list(masks)
    while uncovered:
        counts = [sum(m >> i & 1 for m in uncovered) for i in range(fam.n)]
        best = max(range(fam.n), key=lambda i: (counts[i], -i))
        chosen |= 1 << best
        uncovered = [m for m in uncovered if not m >> best & 1]
    for i in range(fam.n):
        if chosen >> i & 1 and all((chosen ^ 1 << i) & m for m in masks):
            chosen ^= 1 << i
    state = {"size": chosen.bit_count(), "mask": chosen, "nodes": 0}

    def search(uncovered, chosen, banned, nchosen):
        state["nodes"] += 1
        while True:
            if not uncovered:
                if nchosen < state["size"]:
                    state["size"], state["mask"] = nchosen, chosen
                return
            forced = 0
            for m in uncovered:
                a = m & ~banned
                if a == 0:
                    return
                if a & (a - 1) == 0:
                    forced |= a
            if not forced:
                break
            chosen |= forced
            nchosen = chosen.bit_count()
            if nchosen >= state["size"]:
                return
            uncovered = [m for m in uncovered if not m & chosen]
        count, parts = packing_bound(uncovered, banned, rank)
        short = state["size"] - nchosen - count
        if short <= 0 or one_each and short == 1 and one_each_refutes(uncovered, parts):
            return
        branch = min(uncovered, key=lambda m: ((m & ~banned).bit_count(), index[m]))
        allowed = [e for e in range(fam.n) if branch >> e & 1 and not banned >> e & 1]
        degree = {e: sum(m >> e & 1 for m in uncovered) for e in allowed}
        new_banned = banned
        for e in sorted(allowed, key=lambda e: (-degree[e], e)):
            if new_banned >> e & 1:
                continue
            bit = 1 << e
            search([m for m in uncovered if not m & bit], chosen | bit, new_banned, nchosen + 1)
            new_banned |= twins[e] & ~chosen

    root_upper = state["size"]
    search(masks, 0, 0, 0)
    return state["size"], state["mask"], state["nodes"], packing_bound(masks, 0, rank)[0], root_upper


def search_record(fam):
    res = tau(fam)
    return res.size, res.witness.mask, res.nodes_expanded, res.root_lower_bound, res.root_upper_bound


@st.composite
def seeded_families(draw, points, sizes, most):
    """Up to `most` distinct random members on `points` points, each of a
    size drawn from `sizes`."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, most))
    members = {tuple(sorted(rng.sample(range(points), rng.choice(sizes)))) for _ in range(count)}
    return family(points, [list(m) for m in members])


@settings(max_examples=100, deadline=None)
@given(celled_families())
def test_bitset_search_walks_the_reference_tree_with_twins(case):
    assert search_record(case[1]) == reference_tau(case[1])


@settings(max_examples=100, deadline=None)
@given(st.one_of(nested_families(), seeded_families(16, (3, 4), 60)))
def test_bitset_search_walks_the_reference_tree_on_mixed_sizes(fam):
    assert search_record(fam) == reference_tau(fam)


@settings(max_examples=100, deadline=None)
@given(seeded_families(16, (4,), 60))
def test_bitset_search_walks_the_reference_tree_on_uniform_families(fam):
    assert search_record(fam) == reference_tau(fam)


def test_bitset_search_walks_the_reference_tree_at_benchmark_scale():
    # About 1.3k nodes, so the packing table of one call is reused across
    # many nodes.
    fam = benchmark_scale_family()
    assert search_record(fam) == reference_tau(fam)


@pytest.mark.parametrize("m, n", [(4, 4), (4, 3), (6, 2), (3, 3), (2, 2), (5, 2)])
def test_bitset_search_walks_the_reference_tree_on_gadgets(m, n):
    fam = gadget_support(m, n)
    assert search_record(fam) == reference_tau(fam)


def uniform_degree_supports():
    """Every gadget support with M+N <= 8, two-squares' and tau1n's with
    n <= 8: in each, every point lies in as many minimal members."""
    for m in range(1, 8):
        for n in range(1, 9 - m):
            yield pytest.param(gadget_support(m, n), id=f"gadget-{m}-{n}")
    yield pytest.param(pair_support(two_squares()), id="two-squares")
    for n in range(1, 9):
        yield pytest.param(pair_support(gadget_tau1n(n)), id=f"tau1n-{n}")


@pytest.mark.parametrize("fam", uniform_degree_supports())
def test_uniform_degrees_keep_the_colex_search(fam):
    # Equal degrees give every member of one size the same busyness, so the
    # members stay in colex order and the search walks the colex tree.
    masks = _minimal(fam.masks(), fam.n)[0]
    assert masks == minimal_oracle(fam.masks(), colex=True)
    assert search_record(fam) == reference_tau(fam, colex=True)


def certify_families(seed):
    """The three random tau families of the benchmark's certify workload at
    seed: 250 distinct 4-sets of 32 points each, drawn the same way."""
    rng = random.Random(f"certify:{seed}")
    for _ in range(3):
        masks = set()
        while len(masks) < 250:
            masks.add(sum(1 << i for i in rng.sample(range(32), 4)))
        yield SetFamily(32, [Subset(32, m) for m in sorted(masks)])


def test_busyness_order_takes_fewer_nodes_on_certify_families():
    # 46,967 nodes against the colex search's 61,897 over seeds 0-9; a few
    # families take more, so only the total is compared.
    fams = [fam for seed in range(10) for fam in certify_families(seed)]
    records = [search_record(fam) for fam in fams]
    colex = [reference_tau(fam, colex=True) for fam in fams]
    assert [r[0] for r in records] == [c[0] for c in colex]
    assert sum(r[2] for r in records) < sum(c[2] for c in colex)


@settings(max_examples=100, deadline=None)
@given(st.one_of(celled_families().map(lambda case: case[1]), nested_families(),
                 seeded_families(16, (3, 4), 60)))
def test_one_each_keeps_the_answer_and_never_adds_nodes(fam):
    size, witness, nodes, lower, upper = search_record(fam)
    plain = reference_tau(fam, one_each=False)
    assert (size, witness, lower, upper) == (plain[0], plain[1], plain[3], plain[4])
    assert nodes <= plain[2]


@st.composite
def packed_nodes(draw):
    """Up to 8 members on 8 points that keep an allowed element outside a
    random banned set, and the allowed parts of their maximal packing."""
    members = draw(st.lists(st.integers(1, 255), min_size=1, max_size=8, unique=True))
    banned = draw(st.integers(0, 255))
    uncovered = [m for m in members if m & ~banned]
    rank = {m: i for i, m in enumerate(uncovered)}
    return uncovered, packing_bound(uncovered, banned, rank)[1]


# {0, 4} and {1, 5} meet only the part {0, 1}, and need both of its points.
NEEDS_TWO_FROM_ONE_PART = ([0b11, 0b1100, 0b10001, 0b100010], [0b11, 0b1100])


def test_one_each_refutes_a_part_asked_for_two_points():
    assert one_each_refutes(*NEEDS_TWO_FROM_ONE_PART)
    assert not one_each_refutes([0b11, 0b1100, 0b10001, 0b100100], [0b11, 0b1100])


@settings(max_examples=300, deadline=None)
@given(packed_nodes())
@example(NEEDS_TWO_FROM_ONE_PART)
def test_one_each_refutes_only_nodes_without_a_one_each_transversal(node):
    uncovered, parts = node
    if one_each_refutes(uncovered, parts):
        for pick in product(*([1 << e for e in range(8) if part >> e & 1] for part in parts)):
            chosen = sum(pick)
            assert not all(chosen & m for m in uncovered)
