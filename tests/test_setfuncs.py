"""Convolution algebra on finitely supported subset weightings.

The product is checked two ways throughout: the support-pair sum and the
defining sum over ordered splits of each target set.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from agealgebra.setfuncs import (
    DegreeMismatchError,
    SetFunction,
    block_of,
    check_partition_property,
    cofactor,
    mult_matrix,
    product,
    product_by_splits,
    set_function_from_json,
    set_function_to_json,
    singleton_ones,
    unit,
)
from agealgebra.subsets import Subset, ksubsets


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
    image = op.matrix.apply([g.value(b) for b in ksubsets(4, 1)])
    assert SetFunction(4, 2, dict(zip(ksubsets(4, 2), image))) == product(f, g)


def test_mult_matrix_of_unit_is_identity():
    op = mult_matrix(unit(4), 2)
    m = op.matrix
    assert m.entries == [
        [Fraction(1) if i == j else Fraction(0) for j in range(len(m.entries[0]))]
        for i in range(len(m.entries))
    ]


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


def test_block_of_signs():
    assert block_of(Fraction(3, 7)) == 1
    assert block_of(Fraction(-1, 9)) == -1
    with pytest.raises(ValueError):
        block_of(Fraction(0))


def test_same_block_dot_products_stay_nonzero():
    out = check_partition_property(max_len=6, trials=200, seed=3)
    assert out["all_nonzero"] is True
    assert out["trials"] == 200


def test_json_round_trip_and_canonical_bytes():
    f = sf(5, 2, {(0, 1): Fraction(-7, 3), (2, 4): 5})
    s = set_function_to_json(f)
    assert set_function_from_json(s) == f
    assert json.dumps(json.loads(s), sort_keys=True, separators=(",", ":")) == s


def test_json_rejects_duplicate_terms():
    f = sf(3, 1, {(0,): 1})
    blob = json.loads(set_function_to_json(f))
    blob["terms"].append(dict(blob["terms"][0]))
    with pytest.raises(ValueError):
        set_function_from_json(json.dumps(blob))


def test_restrict_keeps_only_inside_sets():
    f = sf(4, 2, {(0, 1): 1, (1, 3): 2})
    w = Subset.from_indices(4, [0, 1, 2])
    r = f.restrict(w)
    assert r.value(Subset.from_indices(4, [0, 1])) == 1
    assert r.value(Subset.from_indices(4, [1, 3])) == 0
