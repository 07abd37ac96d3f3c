"""Exact rank and nullspace checks against hand-computed matrices, and
hypothesis cross-checks of the integer-row elimination against a dense
Fraction Gauss-Jordan reduction kept here as the oracle.  The lazily
rescaled Bareiss elimination is checked step for step against the eager
one, `reference_bareiss`, which rescales every row below each pivot."""

from fractions import Fraction
from math import gcd, lcm
import random

import pytest
from hypothesis import given, settings, strategies as st

from agealgebra.incidence import inclusion_matrix
from agealgebra.linalg import (
    IntMatrix,
    _bareiss_echelon,
    kernel_vector,
    matmul,
    nullspace_basis,
    rank,
)


def M(rows):
    """The rational rows as integer rows, each scaled by the lcm of its
    denominators; rank and kernel are those of the rational matrix."""
    nums = []
    for row in rows:
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        nums.append([int(x * d) for x in row])
    return IntMatrix(nums, len(rows[0]))


def T(m):
    return IntMatrix([[row[j] for row in m.nums] for j in range(m.cols)], m.rows)


def dense_apply(rows, vec):
    """Oracle: the rational rows times vec, in Fractions."""
    return [sum((Fraction(x) * y for x, y in zip(row, vec)), Fraction(0)) for row in rows]


def lead_one(vec):
    lead = next(x for x in vec if x)
    return [Fraction(x, lead) for x in vec]


def assert_primitive_positive_lead(vec):
    assert all(type(x) is int for x in vec)
    assert gcd(*vec) == 1 and next(x for x in vec if x) > 0


def test_rank_hand_cases():
    assert rank(M([[1, 0], [0, 1]])) == 2
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[0, 0], [0, 0]])) == 0
    assert rank(M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_rank_with_fractions():
    m = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
    assert rank(m) == 2
    # second row is three times the first: rank drops
    singular = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank(singular) == 1


def test_nullspace_of_wide_matrix():
    basis = nullspace_basis(M([[1, 1]]))
    assert basis == [[1, -1]]


def test_nullspace_dimension_and_membership():
    rows = [[1, 2, 3], [4, 5, 6]]
    basis = nullspace_basis(M(rows))
    assert basis == [[1, -2, 1]]
    assert dense_apply(rows, basis[0]) == [0, 0]
    # a rational row rescaled to integers keeps its kernel
    assert nullspace_basis(M([[Fraction(1, 2), 1, Fraction(3, 2)], [4, 5, 6]])) == basis


def test_nullspace_trivial_for_full_column_rank():
    assert nullspace_basis(M([[1, 0], [0, 1], [1, 1]])) == []


def test_rank_plus_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = M([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        assert rank(m) + len(nullspace_basis(m)) == c


def test_matmul_and_transpose():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert matmul(a, b).nums == [[2, 1], [4, 3]]
    assert T(a).nums == [[1, 3], [2, 4]]
    assert matmul(a, T(a)).nums == [[5, 11], [11, 25]]
    with pytest.raises(ValueError):
        matmul(a, M([[1, 2, 3]]))


def test_rank_invariant_under_transpose_random():
    rng = random.Random(13)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = M([[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)])
        assert rank(m) == rank(T(m))


def dense_rank_and_nullspace(rows):
    """Oracle: reduced row echelon form over Fractions, then one kernel
    vector per free column, scaled so its first nonzero coordinate is 1."""
    a = [[Fraction(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                t = a[i][c]
                a[i] = [x - t * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    basis = []
    for fc in range(ncols):
        if fc in piv_cols:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -a[i][fc]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return len(piv_cols), basis


entry = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def rational_rows(draw, max_side=7):
    r = draw(st.integers(1, max_side))
    c = draw(st.integers(1, max_side))
    rows = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
    # replace some rows by combinations of two others to force dependencies
    for i in range(r):
        if r > 2 and draw(st.booleans()):
            j, k = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            t = draw(entry)
            rows[i] = [x + t * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_rows())
def test_rank_and_nullspace_match_dense_oracle(rows):
    m = M(rows)
    want_rank, want_basis = dense_rank_and_nullspace(rows)
    assert rank(m) == want_rank
    basis = nullspace_basis(m)
    assert [lead_one(v) for v in basis] == want_basis
    for v in basis:
        assert_primitive_positive_lead(v)
    assert kernel_vector(m) == (basis or [None])[0]


@settings(max_examples=60, deadline=None)
@given(rational_rows(), st.data())
def test_rows_kept_as_given_and_matmul_matches_dense_products(rows, data):
    m = M(rows)
    assert (m.rows, m.cols) == (len(rows), len(rows[0]))
    assert IntMatrix(m.nums, m.cols).nums is m.nums
    c = data.draw(st.integers(0, 4))
    b = IntMatrix(
        [data.draw(st.lists(st.integers(-3, 3), min_size=c, max_size=c)) for _ in range(m.cols)], c
    )
    got = matmul(m, b)
    assert (got.rows, got.cols) == (m.rows, c)
    assert got.nums == [dense_apply(T(b).nums, row) for row in m.nums]


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]], 2)
    with pytest.raises(ValueError):
        IntMatrix([[1], [1, 2]], 1)
    with pytest.raises(ValueError):
        M([[1, Fraction(1, 2)], [3]])
    assert (IntMatrix([], 3).rows, IntMatrix([], 3).cols) == (0, 3)


def reference_bareiss(a, nrows, ncols):
    """Oracle: eager fraction-free elimination.  Every row below the pivot
    is brought to the new pivot at each step, whether or not its entry in
    the pivot column is zero."""
    piv_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), -1)
        if pr < 0:
            continue
        a[pr], a[r] = a[r], a[pr]
        arow = a[r]
        pivot = arow[c]
        for i in range(r + 1, nrows):
            row = a[i]
            t = row[c]
            for j in range(c + 1, ncols):
                row[j] = (pivot * row[j] - t * arow[j]) // prev
            row[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
    return piv_cols


def assert_same_echelon(rows, ncols):
    eager, lazy = [row[:] for row in rows], [row[:] for row in rows]
    assert _bareiss_echelon(lazy, len(rows), ncols) == reference_bareiss(eager, len(rows), ncols)
    assert lazy == eager


@st.composite
def integer_rows(draw):
    """Integer matrices of mixed density, from 1xn and nx1 up to 9x9, with
    zeroed rows and columns and rows that combine two others."""
    r, c = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    zeros = draw(st.sampled_from((0, 4, 12, 40)))
    cell = st.sampled_from([0] * zeros + [x for x in range(-6, 7) if x])
    rows = [draw(st.lists(cell, min_size=c, max_size=c)) for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=r // 3)):
        rows[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=c // 3)):
        for row in rows:
            row[j] = 0
    for i in range(r):
        if r > 2 and draw(st.booleans()):
            j, k = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            t = draw(st.integers(-2, 2))
            rows[i] = [x + t * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_lazy_bareiss_matches_eager_reference(rows):
    assert_same_echelon(rows, len(rows[0]))
    m = IntMatrix(rows, len(rows[0]))
    assert kernel_vector(m) == (nullspace_basis(m) or [None])[0]


@settings(max_examples=150, deadline=None)
@given(integer_rows(), st.data())
def test_row_scaling_keeps_rank_and_primitive_kernel(rows, data):
    c = len(rows[0])
    factor = st.integers(-5, 5).filter(bool)
    factors = data.draw(st.lists(factor, min_size=len(rows), max_size=len(rows)))
    m = IntMatrix(rows, c)
    scaled = IntMatrix([[k * x for x in row] for k, row in zip(factors, rows)], c)
    basis = nullspace_basis(m)
    assert rank(scaled) == rank(m)
    assert nullspace_basis(scaled) == basis
    for v in basis:
        assert_primitive_positive_lead(v)
        assert dense_apply(rows, v) == [0] * len(rows)


def test_lazy_bareiss_matches_eager_reference_on_inclusion_matrices():
    for l in range(1, 9):
        for n in range(l + 1):
            for m in range(l - n + 1):
                inc = inclusion_matrix(l, n, m)
                assert_same_echelon(inc.nums, inc.cols)


def test_kernel_vector_hand_cases():
    assert kernel_vector(M([[1, 0], [0, 1]])) is None
    assert kernel_vector(M([[1, 2, 3], [2, 4, 6]])) == [2, -1, 0]
    assert kernel_vector(M([[0, 2, -4]])) == [1, 0, 0]
    assert kernel_vector(M([[3, 1, 0], [0, 0, 1]])) == [1, -3, 0]
    assert kernel_vector(M([[0, 1]])) == [1, 0]
