"""Convolution algebra on finitely supported subset weightings.

The product is checked two ways throughout: the support-pair sum and the
defining sum over ordered splits of each target set.  The library evaluates
that sum only on unions of disjoint support members; the full enumeration
of every (m+n)-subset below is its oracle.
"""

import json
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from agealgebra.linalg import nullspace_basis
from agealgebra.setfuncs import (
    DegreeMismatchError,
    SetFunction,
    cofactor,
    dumps_canonical,
    mult_matrix,
    product,
    product_by_splits,
    set_function_from_dict,
    set_function_to_dict,
    singleton_ones,
    unit,
)
from agealgebra.subsets import Subset, ksubsets, splits


def full_product_by_splits(f, g):
    """The defining sum on every (m+n)-subset Q in colex order."""
    out = {}
    for q in ksubsets(f.n, f.degree + g.degree):
        total = Fraction(0)
        for p, rest in splits(q.mask, f.degree):
            fp = f.value(Subset(f.n, p))
            if fp:
                total += fp * g.value(Subset(f.n, rest))
        if total:
            out[q] = total
    return SetFunction(f.n, f.degree + g.degree, out)


def fraction_product(f, g):
    """Oracle: the support convolution on `Fraction` values, as the nonzero
    values of f * g keyed by set in colex order."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            if a.isdisjoint(b):
                q = a | b
                out[q] = out.get(q, 0) + fa * gb
    return {q: v for q, v in sorted(out.items(), key=lambda kv: kv[0].mask) if v}


def same_function(a, b):
    """Equal ground, degree, denominator, and numerators in the same order."""
    return (a.n, a.degree, a.den, list(a.coeffs.items())) == (
        b.n, b.degree, b.den, list(b.coeffs.items())
    )


def sf(l, deg, terms):
    return SetFunction(
        l, deg, {Subset.from_indices(l, ix): Fraction(v) for ix, v in terms.items()}
    )


def random_sf(draw, l, deg):
    shapes = ksubsets(l, deg)
    coeffs = {}
    for s in shapes:
        v = draw(st.integers(-3, 3))
        if v:
            coeffs[s] = Fraction(v)
    return SetFunction(l, deg, coeffs)


def sparse_sf(draw, l, deg):
    shapes = ksubsets(l, deg)
    chosen = draw(st.sets(st.sampled_from(shapes), max_size=4))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return SetFunction(l, deg, {s: draw(values) for s in chosen})


def assert_canonical(h):
    """Integer numerators, none zero, over a positive den coprime to them
    all; for the zero function gcd(den) == den, so den must be 1."""
    assert type(h.den) is int and h.den >= 1
    assert all(type(v) is int and v for v in h.coeffs.values())
    assert gcd(h.den, *h.coeffs.values()) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_operations_return_the_canonical_stored_form(data):
    l = data.draw(st.integers(1, 6))
    dm = data.draw(st.integers(0, min(3, l)))
    dn = data.draw(st.integers(0, min(3, l)))
    values = st.one_of(
        st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=12)
    )

    def raw(deg):
        chosen = data.draw(st.sets(st.sampled_from(ksubsets(l, deg)), max_size=6))
        return {s: data.draw(values) for s in chosen}

    def built(deg, terms, den):
        h = SetFunction(l, deg, terms, den)
        assert_canonical(h)
        assert dict(h.items()) == {s: Fraction(v, den) for s, v in terms.items() if v}
        return h

    f = built(dm, raw(dm), data.draw(st.integers(1, 36)))
    f2 = built(dm, raw(dm), 1)
    h = built(dn, raw(dn), data.draw(st.integers(1, 36)))

    total = f + f2
    assert_canonical(total)
    want = {s: f.value(s) + f2.value(s) for s in set(f.coeffs) | set(f2.coeffs)}
    assert dict(total.items()) == {s: v for s, v in want.items() if v}

    c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=9))
    for scaled in (c * f, f * c):
        assert_canonical(scaled)
        assert dict(scaled.items()) == {s: c * v for s, v in f.items() if c}

    oracle = fraction_product(f, h)
    for got in (product(f, h), product_by_splits(f, h)):
        assert_canonical(got)
        assert got.degree == dm + dn
        assert got.items() == list(oracle.items())

    window = Subset(l, data.draw(st.integers(0, (1 << l) - 1)))
    kept = f.restrict(window)
    assert_canonical(kept)
    assert kept.items() == [(s, v) for s, v in f.items() if s.issubset(window)]

    if not f.is_zero and dm + dn <= l:
        mate = cofactor(f, dn)
        if mate is not None:
            assert_canonical(mate)
            assert not mate.is_zero and fraction_product(f, mate) == {}


def test_unit_is_neutral():
    f = sf(4, 2, {(0, 1): 2, (2, 3): -1})
    assert product(unit(4), f) == f
    assert product(f, unit(4)) == f


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
    assert len(f.support()) == 1
    with pytest.raises(ValueError):
        SetFunction(3, 1, {Subset.from_indices(3, [0, 1]): Fraction(1)})


def test_addition_requires_matching_degree():
    with pytest.raises(DegreeMismatchError):
        sf(3, 1, {(0,): 1}) + sf(3, 2, {(0, 1): 1})


def test_product_against_split_sum():
    f = sf(5, 1, {(0,): 1, (2,): -2, (4,): 3})
    g = sf(5, 2, {(1, 2): 1, (0, 3): Fraction(1, 2)})
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
    assert same_function(product_by_splits(f, g), full_product_by_splits(f, g))


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
        chosen = data.draw(st.sets(st.sampled_from(ksubsets(l, deg)), max_size=6))
        return SetFunction(l, deg, {s: Fraction(data.draw(numerators), next(dens)) for s in chosen})

    f, g = coprime_sf(dm), coprime_sf(dn)
    got = product_by_splits(f, g)
    assert same_function(got, full_product_by_splits(f, g))
    assert got == product(f, g)
    scalars = st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6)
    c, d = data.draw(scalars), data.draw(scalars)
    assert product_by_splits(c * f, d * g) == c * d * got


def test_candidate_split_sum_edge_cases():
    e = singleton_ones(4)
    f = sf(6, 2, {(0, 1): 2, (2, 5): Fraction(-1, 3), (1, 4): 1})
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
        assert same_function(got, full_product_by_splits(a, b))
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
    vec = [g.value(b) for b in ksubsets(4, 1)]
    image = [sum(x * y for x, y in zip(row, vec)) / f.den for row in op.matrix.nums]
    assert SetFunction(4, 2, dict(zip(ksubsets(4, 2), image))) == product(f, g)


def dense_mult_matrix(f, d):
    """Oracle: every cell f(Q minus B) of the dense rows, as Fractions."""
    by_mask = {s.mask: v for s, v in f.items()}
    cols = [b.mask for b in ksubsets(f.n, d)]
    return [
        [Fraction(0) if b & ~q.mask else by_mask.get(q.mask ^ b, Fraction(0)) for b in cols]
        for q in ksubsets(f.n, f.degree + d)
    ]


@st.composite
def fractional_sf_and_source_degree(draw):
    l = draw(st.integers(1, 7))
    deg = draw(st.integers(0, min(3, l)))
    d = draw(st.integers(0, l - deg))
    shapes = ksubsets(l, deg)
    chosen = draw(st.sets(st.sampled_from(shapes), min_size=1, max_size=min(6, len(shapes))))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return SetFunction(l, deg, {s: draw(values) for s in chosen}), d


@settings(max_examples=120, deadline=None)
@given(fractional_sf_and_source_degree())
def test_mult_matrix_matches_dense_oracle(case):
    f, d = case
    got, want = mult_matrix(f, d).matrix, dense_mult_matrix(f, d)
    assert (got.rows, got.cols) == (len(want), len(ksubsets(f.n, d)))
    # the stored rows are f's numerators: f.den times the dense operator
    assert got.nums == [[x * f.den for x in row] for row in want]
    assert all(type(x) is int for row in got.nums for x in row)


def test_mult_matrix_keeps_rows_without_support():
    f = sf(5, 1, {(0,): Fraction(1, 2), (1,): Fraction(-2, 3)})
    got = mult_matrix(f, 2).matrix
    want = dense_mult_matrix(f, 2)
    assert f.den == 6 and got.nums == [[6 * x for x in row] for row in want]
    assert any(not any(row) for row in got.nums)
    assert {x for row in got.nums for x in row} == {0, 3, -4}


@settings(max_examples=100, deadline=None)
@given(fractional_sf_and_source_degree())
def test_cofactor_is_the_first_basis_vector(case):
    f, d = case
    if f.is_zero:
        return
    basis = nullspace_basis(mult_matrix(f, d).matrix)
    got = cofactor(f, d)
    if not basis:
        assert got is None
        return
    lead = next(x for x in basis[0] if x)
    want = {s: Fraction(x, lead) for s, x in zip(ksubsets(f.n, d), basis[0]) if x}
    assert got == SetFunction(f.n, d, want)
    assert got.items()[0][1] == 1  # first nonzero value in colex order


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
    f = sf(5, 2, {(0, 1): Fraction(-7, 3), (2, 4): 5})
    s = dumps_canonical(set_function_to_dict(f))
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
    w = Subset.from_indices(4, [0, 1, 2])
    r = f.restrict(w)
    assert r.value(Subset.from_indices(4, [0, 1])) == 1
    assert r.value(Subset.from_indices(4, [1, 3])) == 0
