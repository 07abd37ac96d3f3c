"""Convolution algebra on finitely supported subset weightings.

The product is checked two ways throughout: the support-pair sum and the
defining sum over ordered splits of each target set.  The library evaluates
that sum only on unions of disjoint support members; the full enumeration
of every (m+n)-subset below is its oracle.  The library holds integers
only; the oracles also take `Fraction` values, which reach the library
scaled by the lcm of their denominators.
"""

import json
import random
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from agealgebra.linalg import nullspace_basis
from agealgebra.setfuncs import (
    DegreeMismatchError,
    SetFunction,
    cofactor,
    mult_matrix,
    product,
    product_by_splits,
    singleton_ones,
)
from agealgebra.subsets import Subset, ksubsets, members, splits


def unit(ground_size):
    """Multiplicative unit: 1 on the empty set."""
    return SetFunction(ground_size, 0, {Subset(ground_size, 0): 1})


def restrict(f, window):
    """f with every value outside the window's subsets set to zero."""
    kept = {s: v for s, v in f.coeffs.items() if not s.mask & ~window.mask}
    return SetFunction(f.n, f.degree, kept)


def subset(n, indices):
    """The Subset of {0..n-1} holding these indices."""
    return Subset(n, sum({1 << i for i in indices}))


def keys(n, k):
    """The k-subsets of {0..n-1} as set-function keys, in colex order."""
    return [Subset(n, s) for s in ksubsets(n, k)]


# JSON form of a set function.  Values are carried as decimal strings so
# integer overflow in other tooling is never a concern.

def set_function_to_dict(f):
    return {
        "ground_size": f.n,
        "degree": f.degree,
        "terms": [
            {"set": members(s.mask), "value": str(v)}
            for s, v in sorted(f.coeffs.items(), key=lambda kv: kv[0].mask)
        ],
    }


def set_function_from_dict(data):
    n = int(data["ground_size"])
    coeffs = {}
    for term in data["terms"]:
        s = subset(n, term["set"])
        if s in coeffs:
            raise ValueError("duplicate term in serialized function")
        coeffs[s] = int(term["value"])
    return SetFunction(n, int(data["degree"]), coeffs)


# The oracles below read only `n`, `degree` and `coeffs`, so they take a
# `SetFunction` or a `RationalFunction` with `Fraction` values alike.
RationalFunction = namedtuple("RationalFunction", "n degree coeffs")


def full_product_by_splits(f, g):
    """Oracle: the defining sum on every (m+n)-subset Q in colex order, as
    the nonzero values of f * g keyed by set."""
    out = {}
    for q in ksubsets(f.n, f.degree + g.degree):
        total = 0
        for p, rest in splits(q, f.degree):
            fp = f.coeffs.get(Subset(f.n, p))
            if fp:
                total += fp * g.coeffs.get(Subset(f.n, rest), 0)
        if total:
            out[Subset(f.n, q)] = total
    return out


def fraction_product(f, g):
    """Oracle: the support convolution, as the nonzero values of f * g
    keyed by set in colex order."""
    out = {}
    for a, fa in f.coeffs.items():
        for b, gb in g.coeffs.items():
            if not a.mask & b.mask:
                q = Subset(f.n, a.mask | b.mask)
                out[q] = out.get(q, 0) + fa * gb
    return {q: v for q, v in sorted(out.items(), key=lambda kv: kv[0].mask) if v}


def same_values(h, want):
    """h holds exactly the values of `want`, in the same (colex) order."""
    return list(h.coeffs.items()) == list(want.items())


def scaled_to_int(r):
    """The integer function r * L, with L the lcm of r's denominators, and L."""
    scale = lcm(*(v.denominator for v in r.coeffs.values()))
    return SetFunction(r.n, r.degree, {s: int(v * scale) for s, v in r.coeffs.items()}), scale


def sf(l, deg, terms):
    return SetFunction(l, deg, {subset(l, ix): v for ix, v in terms.items()})


def random_sf(draw, l, deg):
    shapes = keys(l, deg)
    coeffs = {}
    for s in shapes:
        v = draw(st.integers(-3, 3))
        if v:
            coeffs[s] = v
    return SetFunction(l, deg, coeffs)


def sparse_sf(draw, l, deg):
    shapes = keys(l, deg)
    chosen = draw(st.sets(st.sampled_from(shapes), max_size=4))
    return SetFunction(l, deg, {s: draw(st.integers(-12, 12)) for s in chosen})


def assert_int_values(h):
    """Every stored value is a nonzero int."""
    assert all(type(v) is int and v for v in h.coeffs.values())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_operations_return_the_canonical_stored_form(data):
    l = data.draw(st.integers(1, 6))
    dm = data.draw(st.integers(0, min(3, l)))
    dn = data.draw(st.integers(0, min(3, l)))
    values = st.integers(-12, 12)

    def built(deg):
        chosen = data.draw(st.sets(st.sampled_from(keys(l, deg)), max_size=6))
        terms = {s: data.draw(values) for s in chosen}
        h = SetFunction(l, deg, terms)
        assert_int_values(h)
        assert h.coeffs == {s: v for s, v in terms.items() if v}
        return h

    f, f2, h = built(dm), built(dm), built(dn)

    total = f + f2
    assert_int_values(total)
    want = {s: f.value(s) + f2.value(s) for s in set(f.coeffs) | set(f2.coeffs)}
    assert total.coeffs == {s: v for s, v in want.items() if v}

    c = data.draw(st.integers(-5, 5))
    for scaled in (c * f, f * c):
        assert_int_values(scaled)
        assert scaled.coeffs == {s: c * v for s, v in f.coeffs.items() if c}

    oracle = fraction_product(f, h)
    for got in (product(f, h), product_by_splits(f, h)):
        assert_int_values(got)
        assert got.degree == dm + dn
        assert got.coeffs == oracle
    assert same_values(product_by_splits(f, h), oracle)

    window = Subset(l, data.draw(st.integers(0, (1 << l) - 1)))
    kept = restrict(f, window)
    assert_int_values(kept)
    assert kept.coeffs == {s: v for s, v in f.coeffs.items() if s.mask & window.mask == s.mask}

    if not f.is_zero and dm + dn <= l:
        mate = cofactor(f, dn)
        if mate is not None:
            assert_int_values(mate)
            assert not mate.is_zero and fraction_product(f, mate) == {}


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 1.0, True, False])
def test_non_int_values_are_refused(value):
    with pytest.raises(TypeError):
        SetFunction(3, 1, {Subset(3, 1): value})


def test_unit_is_neutral():
    f = sf(4, 2, {(0, 1): 2, (2, 3): -1})
    assert product(unit(4), f) == f
    assert product(f, unit(4)) == f


def test_singleton_ones_squares_to_double_counting():
    e = singleton_ones(4)
    ee = product(e, e)
    # every pair arises from exactly two ordered splits
    for q in keys(4, 2):
        assert ee.value(q) == 2
    eee = product(ee, e)
    for q in keys(4, 3):
        assert eee.value(q) == 6


def test_zero_coefficients_pruned_and_degree_checked():
    f = sf(3, 1, {(0,): 0, (1,): 1})
    assert len(f.support().sets) == 1
    with pytest.raises(ValueError):
        SetFunction(3, 1, {subset(3, [0, 1]): 1})


def test_addition_requires_matching_degree():
    with pytest.raises(DegreeMismatchError):
        sf(3, 1, {(0,): 1}) + sf(3, 2, {(0, 1): 1})


def test_product_against_split_sum():
    f = sf(5, 1, {(0,): 1, (2,): -2, (4,): 3})
    g = sf(5, 2, {(1, 2): 2, (0, 3): 1})
    assert product(f, g) == product_by_splits(f, g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_commutes_and_matches_oracle(data):
    l = data.draw(st.integers(1, 5))
    dm = data.draw(st.integers(0, min(2, l)))
    dn = data.draw(st.integers(0, min(2, l - dm)))
    f = random_sf(data.draw, l, dm)
    g = random_sf(data.draw, l, dn)
    fg = product(f, g)
    assert fg == product(g, f)
    assert fg == product_by_splits(f, g)


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
        chosen = data.draw(st.sets(st.sampled_from(keys(l, deg)), max_size=6))
        return RationalFunction(l, deg, {s: data.draw(values) for s in chosen})

    fr, gr = rational(dm), rational(dn)
    (f, scale_f), (g, scale_g) = scaled_to_int(fr), scaled_to_int(gr)
    want = {q: v * scale_f * scale_g for q, v in fraction_product(fr, gr).items()}
    assert same_values(product_by_splits(f, g), want)
    assert product(f, g).coeffs == want
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
        chosen = data.draw(st.sets(st.sampled_from(keys(l, deg)), max_size=6))
        r = RationalFunction(l, deg, {s: Fraction(data.draw(numerators), next(dens)) for s in chosen})
        return scaled_to_int(r)[0]

    f, g = coprime_sf(dm), coprime_sf(dn)
    got = product_by_splits(f, g)
    assert same_values(got, full_product_by_splits(f, g))
    assert got == product(f, g)
    scalars = st.integers(-10**9, 10**9)
    c, d = data.draw(scalars), data.draw(scalars)
    assert product_by_splits(c * f, d * g) == c * d * got


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
        assert got == product(a, b)
    assert not product_by_splits(e, e).is_zero and product_by_splits(e, mate).is_zero


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_bilinear(data):
    l = data.draw(st.integers(1, 4))
    f1 = random_sf(data.draw, l, 1)
    f2 = random_sf(data.draw, l, 1)
    g = random_sf(data.draw, l, 1)
    lhs = product(f1 + f2, g)
    rhs = product(f1, g) + product(f2, g)
    assert lhs == rhs


def test_mult_matrix_agrees_with_product():
    f = sf(4, 1, {(0,): 2, (3,): -1})
    g = sf(4, 1, {(1,): 1, (2,): 5})
    op = mult_matrix(f, 1)
    vec = [g.value(b) for b in keys(4, 1)]
    image = [sum(x * y for x, y in zip(row, vec)) for row in op.matrix.nums]
    assert SetFunction(4, 2, dict(zip(keys(4, 2), image))) == product(f, g)


def dense_mult_matrix(f, d):
    """Oracle: every cell f(Q minus B) of the dense rows."""
    by_mask = {s.mask: v for s, v in f.coeffs.items()}
    cols = ksubsets(f.n, d)
    return [
        [0 if b & ~q else by_mask.get(q ^ b, 0) for b in cols]
        for q in ksubsets(f.n, f.degree + d)
    ]


@st.composite
def int_sf_and_source_degree(draw):
    l = draw(st.integers(1, 7))
    deg = draw(st.integers(0, min(3, l)))
    d = draw(st.integers(0, l - deg))
    shapes = keys(l, deg)
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


@settings(max_examples=100, deadline=None)
@given(int_sf_and_source_degree())
def test_cofactor_is_the_first_basis_vector(case):
    f, d = case
    if f.is_zero:
        return
    basis = nullspace_basis(mult_matrix(f, d).matrix)
    got = cofactor(f, d)
    if not basis:
        assert got is None
        return
    assert got == SetFunction(f.n, d, dict(zip(keys(f.n, d), basis[0])))
    # primitive, and positive at its first nonzero set in colex order
    assert gcd(*got.coeffs.values()) == 1
    assert got.coeffs[min(got.coeffs, key=lambda s: s.mask)] > 0


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
    assert set_function_from_dict(json.loads(s)) == f
    assert json.dumps(json.loads(s), sort_keys=True, separators=(",", ":")) == s


def test_json_rejects_duplicate_terms():
    f = sf(3, 1, {(0,): 1})
    blob = set_function_to_dict(f)
    blob["terms"].append(dict(blob["terms"][0]))
    with pytest.raises(ValueError):
        set_function_from_dict(blob)


def test_restrict_keeps_only_inside_sets():
    f = sf(4, 2, {(0, 1): 1, (1, 3): 2})
    w = subset(4, [0, 1, 2])
    r = restrict(f, w)
    assert r.value(subset(4, [0, 1])) == 1
    assert r.value(subset(4, [1, 3])) == 0
