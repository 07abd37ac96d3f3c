"""Convolution algebra on finitely supported subset weightings.

The product is checked two ways throughout: the support-pair sum and the
defining sum over ordered splits of each target set.  The library evaluates
that sum only on unions of disjoint support members, and there only over
the members of the smaller support inside each; the full enumeration of
every split of every (m+n)-subset below is its oracle.  The library holds
integers only; the oracles also take `Fraction` values, which reach the
library scaled by the lcm of their denominators.
"""

import json
import random
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from agealgebra import setfuncs
from agealgebra.linalg import kernel_vector, nullspace_basis
from agealgebra.setfuncs import (
    SetFunction,
    cofactor,
    mult_matrix,
    product,
    product_by_splits,
    singleton_ones,
)
from agealgebra.subsets import MAX_GROUND, Subset, ksubsets, members, splits
from agealgebra.witnesses import (
    NotAZeroDivisorPairError,
    WitnessPair,
    gadget_lower,
    gadget_tau1n,
    verify,
)


def unit(ground_size):
    """Multiplicative unit: 1 on the empty set."""
    return SetFunction(ground_size, 0, {0: 1})


def restrict(f, window):
    """f with every value outside the subsets of the window mask set to zero."""
    return SetFunction(f.n, f.degree, {s: v for s, v in f.terms.items() if not s & ~window})


def mask_of(indices):
    """The mask of the set holding these indices."""
    return sum({1 << i for i in indices})


def add(f, g):
    """The sum of two functions of one degree on one ground."""
    assert (f.n, f.degree) == (g.n, g.degree)
    out = dict(f.terms)
    for s, v in g.terms.items():
        out[s] = out.get(s, 0) + v
    return SetFunction(f.n, f.degree, out)


def scaled(c, f):
    """The function c * f."""
    return SetFunction(f.n, f.degree, {s: c * v for s, v in f.terms.items()})


# JSON form of a set function.  Values are carried as decimal strings so
# integer overflow in other tooling is never a concern.

def set_function_to_dict(f):
    return {
        "ground_size": f.n,
        "degree": f.degree,
        "terms": [
            {"set": members(s), "value": str(v)}
            for s, v in sorted(f.terms.items())
        ],
    }


def set_function_from_dict(data):
    n = int(data["ground_size"])
    terms = {}
    for term in data["terms"]:
        s = mask_of(term["set"])
        if s in terms:
            raise ValueError("duplicate term in serialized function")
        terms[s] = int(term["value"])
    return SetFunction(n, int(data["degree"]), terms)


# The oracles below read only `n`, `degree` and `terms`, so they take a
# `SetFunction` or a `RationalFunction` with `Fraction` values alike.
RationalFunction = namedtuple("RationalFunction", "n degree terms")


def full_product_by_splits(f, g):
    """Oracle: the defining sum on every (m+n)-subset Q in colex order, as
    the nonzero values of f * g keyed by set."""
    out = {}
    for q in ksubsets(f.n, f.degree + g.degree):
        total = 0
        for p, rest in splits(q, f.degree):
            fp = f.terms.get(p)
            if fp:
                total += fp * g.terms.get(rest, 0)
        if total:
            out[q] = total
    return out


def fraction_product(f, g):
    """Oracle: the support convolution, as the nonzero values of f * g
    keyed by set in colex order."""
    out = {}
    for a, fa in f.terms.items():
        for b, gb in g.terms.items():
            if not a & b:
                out[a | b] = out.get(a | b, 0) + fa * gb
    return {q: v for q, v in sorted(out.items()) if v}


def same_values(h, want):
    """h holds exactly the values of `want`, in the same (colex) order."""
    return list(h.terms.items()) == list(want.items())


def scaled_to_int(r):
    """The integer function r * L, with L the lcm of r's denominators, and L."""
    scale = lcm(*(v.denominator for v in r.terms.values()))
    return SetFunction(r.n, r.degree, {s: int(v * scale) for s, v in r.terms.items()}), scale


def sf(l, deg, terms):
    return SetFunction(l, deg, {mask_of(ix): v for ix, v in terms.items()})


def random_sf(draw, l, deg):
    terms = {}
    for s in ksubsets(l, deg):
        v = draw(st.integers(-3, 3))
        if v:
            terms[s] = v
    return SetFunction(l, deg, terms)


def sparse_sf(draw, l, deg):
    shapes = ksubsets(l, deg)
    chosen = draw(st.sets(st.sampled_from(shapes), max_size=4))
    return SetFunction(l, deg, {s: draw(st.integers(-12, 12)) for s in chosen})


def assert_int_values(h):
    """Every stored value is a nonzero int."""
    assert all(type(v) is int and v for v in h.terms.values())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_operations_return_the_canonical_stored_form(data):
    l = data.draw(st.integers(1, 6))
    dm = data.draw(st.integers(0, min(3, l)))
    dn = data.draw(st.integers(0, min(3, l)))
    values = st.integers(-12, 12)

    def built(deg):
        chosen = data.draw(st.sets(st.sampled_from(ksubsets(l, deg)), max_size=6))
        terms = {s: data.draw(values) for s in chosen}
        h = SetFunction(l, deg, terms)
        assert_int_values(h)
        assert h.terms == {s: v for s, v in terms.items() if v}
        return h

    f, h = built(dm), built(dn)

    oracle = fraction_product(f, h)
    for got in (product(f, h), product_by_splits(f, h)):
        assert_int_values(got)
        assert got.degree == dm + dn
        assert got.terms == oracle
    assert same_values(product_by_splits(f, h), oracle)

    window = data.draw(st.integers(0, (1 << l) - 1))
    kept = restrict(f, window)
    assert_int_values(kept)
    assert kept.terms == {s: v for s, v in f.terms.items() if s & window == s}

    if not f.is_zero and dm + dn <= l:
        mate = cofactor(f, dn)
        if mate is not None:
            assert_int_values(mate)
            assert not mate.is_zero and fraction_product(f, mate) == {}


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 1.0, True, False])
def test_non_int_values_are_refused(value):
    with pytest.raises(TypeError):
        SetFunction(3, 1, {1: value})


@pytest.mark.parametrize("n, terms, error", [
    (3, {Subset(3, 1): 1}, TypeError),
    (3, {True: 1}, TypeError),
    (3, {-1: 1}, ValueError),
    (3, {1 << 3: 1}, ValueError),
    (64, {1 << 64: 1}, ValueError),
    (3, {0b11: 1}, ValueError),
    (MAX_GROUND + 1, {}, ValueError),
    (-1, {}, ValueError),
])
def test_malformed_keys_and_grounds_are_refused(n, terms, error):
    with pytest.raises(error):
        SetFunction(n, 1, terms)


def test_unit_is_neutral():
    f = sf(4, 2, {(0, 1): 2, (2, 3): -1})
    assert product(unit(4), f).terms == f.terms
    assert product(f, unit(4)).terms == f.terms


def test_singleton_ones_squares_to_double_counting():
    e = singleton_ones(4)
    ee = product(e, e)
    # every pair arises from exactly two ordered splits
    for q in ksubsets(4, 2):
        assert ee.value(q) == 2
    eee = product(ee, e)
    for q in ksubsets(4, 3):
        assert eee.value(q) == 6


def test_zero_coefficients_pruned_and_degree_checked():
    f = sf(3, 1, {(0,): 0, (1,): 1})
    assert len(f.support().sets) == 1
    with pytest.raises(ValueError):
        SetFunction(3, 1, {mask_of([0, 1]): 1})


def test_product_against_split_sum():
    f = sf(5, 1, {(0,): 1, (2,): -2, (4,): 3})
    g = sf(5, 2, {(1, 2): 2, (0, 3): 1})
    assert product(f, g).terms == product_by_splits(f, g).terms


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_commutes_and_matches_oracle(data):
    l = data.draw(st.integers(1, 5))
    dm = data.draw(st.integers(0, min(2, l)))
    dn = data.draw(st.integers(0, min(2, l - dm)))
    f = random_sf(data.draw, l, dm)
    g = random_sf(data.draw, l, dn)
    fg = product(f, g)
    assert fg.terms == product(g, f).terms
    assert fg.terms == product_by_splits(f, g).terms


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_candidate_split_sum_matches_full_enumeration(data):
    l = data.draw(st.integers(1, 6))
    dm = data.draw(st.integers(0, l))
    dn = data.draw(st.integers(0, l))
    f = data.draw(st.sampled_from((random_sf, sparse_sf)))(data.draw, l, dm)
    g = data.draw(st.sampled_from((random_sf, sparse_sf)))(data.draw, l, dn)
    assert same_values(product_by_splits(f, g), full_product_by_splits(f, g))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_products_equal_the_fraction_oracle_times_both_scales(data):
    l = data.draw(st.integers(1, 6))
    dm = data.draw(st.integers(0, min(3, l)))
    dn = data.draw(st.integers(0, min(3, l)))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool)

    def rational(deg):
        chosen = data.draw(st.sets(st.sampled_from(ksubsets(l, deg)), max_size=6))
        return RationalFunction(l, deg, {s: data.draw(values) for s in chosen})

    fr, gr = rational(dm), rational(dn)
    (f, scale_f), (g, scale_g) = scaled_to_int(fr), scaled_to_int(gr)
    want = {q: v * scale_f * scale_g for q, v in fraction_product(fr, gr).items()}
    assert same_values(product_by_splits(f, g), want)
    assert product(f, g).terms == want
    assert full_product_by_splits(fr, gr) == fraction_product(fr, gr)


# Primes just below 10**6, so any coefficients drawn with distinct ones
# have pairwise coprime denominators and the lcms grow to their product.
LARGE_PRIMES = [
    p for p in range(999_000, 1_000_000) if all(p % d for d in range(2, isqrt(p) + 1))
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_sum_exact_over_coprime_denominators(data):
    l = data.draw(st.integers(1, 7))
    dm = data.draw(st.integers(0, min(3, l)))
    dn = data.draw(st.integers(0, min(3, l)))
    primes = st.lists(st.sampled_from(LARGE_PRIMES), min_size=12, max_size=12, unique=True)
    dens = iter(data.draw(primes))
    numerators = st.integers(-10**6, 10**6).filter(bool)

    def coprime_sf(deg):
        """An integer function scaled from values over distinct large primes."""
        chosen = data.draw(st.sets(st.sampled_from(ksubsets(l, deg)), max_size=6))
        r = RationalFunction(l, deg, {s: Fraction(data.draw(numerators), next(dens)) for s in chosen})
        return scaled_to_int(r)[0]

    f, g = coprime_sf(dm), coprime_sf(dn)
    got = product_by_splits(f, g)
    assert same_values(got, full_product_by_splits(f, g))
    assert got.terms == product(f, g).terms
    scalars = st.integers(-10**9, 10**9)
    c, d = data.draw(scalars), data.draw(scalars)
    assert product_by_splits(scaled(c, f), scaled(d, g)).terms == scaled(c * d, got).terms


def test_candidate_split_sum_edge_cases():
    e = singleton_ones(4)
    f = sf(6, 2, {(0, 1): 6, (2, 5): -1, (1, 4): 3})
    g = sf(6, 3, {(2, 3, 4): 1, (0, 3, 5): -2})
    mate = cofactor(e, 2)
    cases = [
        (e, e),  # nonzero everywhere
        (f, sf(6, 1, {(3,): 1, (0,): 5})),  # nonzero on part of the ground
        (unit(4), sf(4, 2, {(0, 3): 7})),  # degree 0
        (sf(4, 2, {(0, 1): 1}), unit(4)),
        (f, g),  # two candidate sets out of C(6, 5)
        (sf(3, 2, {(0, 1): 1}), sf(3, 2, {(1, 2): 1})),  # m + n > l
        (e, mate),  # annihilating pair
        (SetFunction(4, 1, {}), e),  # zero factor
    ]
    for a, b in cases:
        got = product_by_splits(a, b)
        assert same_values(got, full_product_by_splits(a, b))
        assert got.terms == product(a, b).terms
    assert not product_by_splits(e, e).is_zero and product_by_splits(e, mate).is_zero


@st.composite
def factors_across_bytes(draw):
    """Two functions on a ground of 7, 8, 9, 16, 17 or 64 points, whose
    members may straddle the byte boundaries of the index; the degrees stay
    small enough for the full oracle to list every (m+n)-subset."""
    l = draw(st.sampled_from([7, 8, 9, 16, 17, 64]))
    top = 2 if l == 64 else 4 if l > 9 else 5
    dm = draw(st.integers(0, top))
    dn = draw(st.integers(0, top - dm))

    def factor(deg):
        sets = draw(st.lists(st.sets(st.integers(0, l - 1), min_size=deg, max_size=deg),
                             max_size=8))
        return SetFunction(l, deg, {mask_of(s): draw(st.integers(-5, 5)) for s in sets})

    return factor(dm), factor(dn)


@settings(max_examples=200, deadline=None)
@given(factors_across_bytes())
@example((unit(9), sf(9, 2, {(0, 8): 3, (7, 8): -1})))  # key 0 lies inside every Q
@example((SetFunction(17, 2, {}), sf(17, 1, {(16,): 1})))  # an empty support
@example((sf(17, 1, {(7,): 2, (8,): 1}), sf(17, 2, {(8, 16): 1, (0, 7): -1})))  # equal sizes
@example((sf(64, 1, {(63,): 1, (7,): -2}), sf(64, 1, {(8,): 1, (56,): 3, (0,): 5})))
def test_indexed_split_sum_matches_every_split(pair):
    f, g = pair
    # Both orders, so whichever support is smaller is indexed once as f
    # and once as g; and with the index forced, so that products with few
    # splits, which are listed by default, reach it too.
    for few in (setfuncs.FEW_SPLITS, -1):
        with mock.patch.object(setfuncs, "FEW_SPLITS", few):
            for a, b in ((f, g), (g, f)):
                assert same_values(product_by_splits(a, b), full_product_by_splits(a, b))


@pytest.mark.parametrize("n, lists", [(2, True), (4, True), (6, False), (8, False)])
def test_only_products_with_few_splits_are_listed(n, lists, monkeypatch):
    # tau1n's pair on n points: f has n singletons, g holds a point from
    # each of n/2 pairs, and every candidate set holds n/2 + 1 splits.
    pair = gadget_tau1n(n // 2)
    listed = []

    def counting(q, m):
        listed.append(q)
        return splits(q, m)

    monkeypatch.setattr(setfuncs, "splits", counting)
    got = product_by_splits(pair.f, pair.g)
    assert got.is_zero and bool(listed) == lists


@pytest.mark.parametrize("m, n", [(1, 4), (2, 3), (3, 2), (4, 1)])
def test_gadget_with_one_perturbed_g_value_fails_verify_as_the_oracle_says(m, n):
    pair = gadget_lower(m, n)
    for key, v in pair.g.terms.items():
        g = SetFunction(pair.g.n, n, {**pair.g.terms, key: v + 1})
        want = full_product_by_splits(pair.f, g)
        with pytest.raises(NotAZeroDivisorPairError) as exc:
            verify(WitnessPair(pair.f, g))
        assert (exc.value.offending, exc.value.value) == (min(want), want[min(want)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_bilinear(data):
    l = data.draw(st.integers(1, 4))
    f1 = random_sf(data.draw, l, 1)
    f2 = random_sf(data.draw, l, 1)
    g = random_sf(data.draw, l, 1)
    lhs = product(add(f1, f2), g)
    rhs = add(product(f1, g), product(f2, g))
    assert lhs.terms == rhs.terms


def test_mult_matrix_agrees_with_product():
    f = sf(4, 1, {(0,): 2, (3,): -1})
    g = sf(4, 1, {(1,): 1, (2,): 5})
    op = mult_matrix(f, 1)
    vec = [g.value(b) for b in ksubsets(4, 1)]
    image = [sum(x * y for x, y in zip(row, vec)) for row in op.matrix.nums]
    assert SetFunction(4, 2, dict(zip(ksubsets(4, 2), image))).terms == product(f, g).terms


def dense_mult_matrix(f, d):
    """Oracle: every cell f(Q minus B) of the dense rows."""
    cols = ksubsets(f.n, d)
    return [
        [0 if b & ~q else f.terms.get(q ^ b, 0) for b in cols]
        for q in ksubsets(f.n, f.degree + d)
    ]


@st.composite
def int_sf_and_source_degree(draw):
    l = draw(st.integers(1, 7))
    deg = draw(st.integers(0, min(3, l)))
    d = draw(st.integers(0, l - deg))
    shapes = ksubsets(l, deg)
    chosen = draw(st.sets(st.sampled_from(shapes), min_size=1, max_size=min(6, len(shapes))))
    return SetFunction(l, deg, {s: draw(st.integers(-6, 6)) for s in chosen}), d


@settings(max_examples=120, deadline=None)
@given(int_sf_and_source_degree())
def test_mult_matrix_matches_dense_oracle(case):
    f, d = case
    got, want = mult_matrix(f, d).matrix, dense_mult_matrix(f, d)
    assert (got.rows, got.cols) == (len(want), len(ksubsets(f.n, d)))
    assert got.nums == want
    assert all(type(x) is int for row in got.nums for x in row)


def test_mult_matrix_keeps_rows_without_support():
    f = sf(5, 1, {(0,): 3, (1,): -4})
    got = mult_matrix(f, 2).matrix
    assert got.nums == dense_mult_matrix(f, 2)
    assert any(not any(row) for row in got.nums)
    assert {x for row in got.nums for x in row} == {0, 3, -4}


@st.composite
def sparse_sf_and_source_degree(draw):
    """f supported on a few of up to 12 points, and a source degree d.

    `cofactor` solves one block per d' <= d: with points outside the
    support when d' < d, and with no rows when m + d' exceeds the support's
    points.
    """
    l = draw(st.integers(2, 12))
    m = draw(st.integers(1, min(3, l - 1)))
    points = draw(st.lists(st.integers(0, l - 1), min_size=m, max_size=min(l, m + 3), unique=True))
    shapes = [a for a in ksubsets(l, m) if not a & ~mask_of(points)]
    chosen = draw(st.sets(st.sampled_from(shapes), min_size=1, max_size=min(5, len(shapes))))
    d = draw(st.integers(0, min(3, l - m)))
    return SetFunction(l, m, {a: draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) for a in chosen}), d


@settings(max_examples=200, deadline=None)
@given(st.one_of(int_sf_and_source_degree(), sparse_sf_and_source_degree()))
# One point in the support: every block but d' = 0 has no rows.
@example((SetFunction(12, 1, {1 << 5: 2}), 3))
# The mate lies on the block with one point outside S = {0, 5, 9}.
@example((SetFunction(12, 1, {1: 1, 1 << 5: 1, 1 << 9: 1}), 3))
# Only two points outside S = {0, 1, 2}: the blocks start at d' = 1, and
# d' = 3 has no rows.
@example((SetFunction(5, 2, {0b00011: 1, 0b00110: -1, 0b00101: 1}), 3))
# A full support: the one block is the whole matrix.
@example((SetFunction(4, 1, {1: 1, 2: 2, 4: 3, 8: -1}), 2))
def test_cofactor_is_the_first_basis_vector(case):
    f, d = case
    if f.is_zero:
        return
    basis = nullspace_basis(mult_matrix(f, d).matrix)
    got = cofactor(f, d)
    if not basis:
        assert got is None
        return
    assert got.terms == {b: x for b, x in zip(ksubsets(f.n, d), basis[0]) if x}
    # primitive, and positive at its first nonzero set in colex order
    assert gcd(*got.terms.values()) == 1
    assert got.terms[min(got.terms)] > 0


def test_cofactor_builds_only_the_support_blocks(monkeypatch):
    f = sf(16, 1, {(0,): 1, (5,): 1, (9,): 1})
    want = kernel_vector(mult_matrix(f, 3).matrix)
    shapes = []
    original = setfuncs.mult_matrix

    def recording(g, degree):
        op = original(g, degree)
        shapes.append((op.matrix.rows, op.matrix.cols))
        return op

    monkeypatch.setattr(setfuncs, "mult_matrix", recording)
    got = cofactor(f, 3)
    # One block per d' = 0, 1, 2 on the 3 points of S; d' = 3 has no rows.
    assert shapes == [(3, 1), (3, 3), (1, 3)]
    assert got.terms == {b: x for b, x in zip(ksubsets(16, 3), want) if x}
    assert got.terms == {mask_of((0, 1, 5)): 1, mask_of((0, 1, 9)): -1}


def test_mult_matrix_of_unit_is_identity():
    m = mult_matrix(unit(4), 2).matrix
    assert m.nums == [[int(i == j) for j in range(m.cols)] for i in range(m.rows)]
    assert m.rows == m.cols == 6


def test_cofactor_finds_exact_annihilator():
    # parity weighting on two points kills the all-ones weighting
    e = singleton_ones(2)
    mate = cofactor(e, 1)
    assert mate is not None and not mate.is_zero
    assert product(e, mate).is_zero


def test_cofactor_none_when_kernel_trivial():
    f = sf(3, 1, {(0,): 1, (1,): 1, (2,): 1})
    assert cofactor(f, 1) is None


def test_cofactor_of_zero_rejected():
    with pytest.raises(ValueError):
        cofactor(SetFunction(3, 1, {}), 1)


def check_partition_property(max_len: int, trials: int, seed: int) -> dict:
    """Randomized check that same-block dot products never vanish."""
    if max_len < 1 or trials < 1:
        raise ValueError("need at least one term and one trial")
    rng = random.Random(seed)

    def draw(sign: int, k: int) -> list[Fraction]:
        return [
            Fraction(sign * rng.randint(1, 99), rng.randint(1, 9)) for _ in range(k)
        ]

    failures = []
    for t in range(trials):
        k = rng.randint(1, max_len)
        alphas = draw(rng.choice((1, -1)), k)
        betas = draw(rng.choice((1, -1)), k)
        dot = sum(a * b for a, b in zip(alphas, betas))
        if dot == 0:
            failures.append({"trial": t, "alphas": alphas, "betas": betas})
    return {
        "trials": trials,
        "max_len": max_len,
        "seed": seed,
        "failures": failures,
        "all_nonzero": not failures,
    }


def test_same_block_dot_products_stay_nonzero():
    out = check_partition_property(max_len=6, trials=200, seed=3)
    assert out["all_nonzero"] is True
    assert out["trials"] == 200


def test_json_round_trip_and_canonical_bytes():
    f = sf(5, 2, {(0, 1): -7, (2, 4): 10**30})
    s = json.dumps(set_function_to_dict(f), sort_keys=True, separators=(",", ":"))
    back = set_function_from_dict(json.loads(s))
    assert (back.n, back.degree, back.terms) == (f.n, f.degree, f.terms)
    assert json.dumps(json.loads(s), sort_keys=True, separators=(",", ":")) == s


def test_json_rejects_duplicate_terms():
    f = sf(3, 1, {(0,): 1})
    blob = set_function_to_dict(f)
    blob["terms"].append(dict(blob["terms"][0]))
    with pytest.raises(ValueError):
        set_function_from_dict(blob)


def test_restrict_keeps_only_inside_sets():
    f = sf(4, 2, {(0, 1): 1, (1, 3): 2})
    r = restrict(f, mask_of([0, 1, 2]))
    assert r.value(mask_of([0, 1])) == 1
    assert r.value(mask_of([1, 3])) == 0
