"""Containment matrices, rank laws, and the derivation/scaling identity.

The matrix form of that identity, D(e) S(f) = S(f) D(f) with D the
one-step derivation and S the diagonal point-weight scaling, is kept here
as the dense oracle of the entrywise `check_commutation`."""

import random
from math import comb

from hypothesis import given, settings, strategies as st

from agealgebra import incidence
from agealgebra.cli import run
from agealgebra.incidence import check_commutation, inclusion_matrix, verify_kantor
from agealgebra.linalg import IntMatrix, rank
from agealgebra.setfuncs import MultOperator, SetFunction, cofactor, mult_matrix, singleton_ones
from agealgebra.subsets import ksubsets, members


def weight(l, values):
    return SetFunction(l, 1, {1 << i: v for i, v in values.items() if v})


def derivation_matrix(f, n):
    """Weighted one-step contraction from degree n+1 down to degree n, as
    dense rows: the entry at (B, Q) is f(Q minus B) when B is inside Q,
    the transpose of multiplication by f from degree n."""
    assert f.degree == 1 and 0 <= n < f.n
    return [list(col) for col in zip(*mult_matrix(f, n).matrix.nums)]


def scaling_matrix(f, n):
    """Diagonal rescaling of n-subsets by the product of their point
    weights, as dense rows."""
    assert f.degree == 1 and 0 <= n <= f.n
    points = [f.value(1 << x) for x in range(f.n)]
    diag = []
    for s in ksubsets(f.n, n):
        w = 1
        for x in members(s):
            w *= points[x]
        diag.append(w)
    return [[w if i == j else 0 for j in range(len(diag))] for i, w in enumerate(diag)]


def dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_inclusion_matrix_shape_and_entries():
    m = inclusion_matrix(4, 1, 1)
    assert (m.rows, m.cols) == (4, 6)
    total = sum(sum(row) for row in m.nums)
    # each pair contains two singletons
    assert total == 12


def test_inclusion_matrix_matches_dense_containment():
    # Up to 10 points: every matrix `kantor --max-l 10` ranks.
    for l in range(1, 11):
        for n in range(l + 1):
            rows = [set(members(b)) for b in ksubsets(l, n)]
            for m in range(l - n + 1):
                cols = [set(members(q)) for q in ksubsets(l, n + m)]
                dense = [[1 if b <= q else 0 for q in cols] for b in rows]
                inc = inclusion_matrix(l, n, m)
                assert (inc.nums, inc.cols) == (dense, comb(l, n + m))


def test_mutating_a_result_leaves_later_results_unchanged():
    # An in-place elimination overwrites the rows it is given; the shared
    # blocks behind every inclusion matrix must not see that.
    first = inclusion_matrix(6, 2, 1)
    want = [row[:] for row in first.nums]
    for row in first.nums:
        row[:] = [5] * len(row)
    first.nums[0].append(1)
    assert inclusion_matrix(6, 2, 1).nums == want
    # W_{2,3}(7) holds W_{2,3}(6) as its top-left block.
    bigger = inclusion_matrix(7, 2, 1)
    assert [row[:comb(6, 3)] for row in bigger.nums[:comb(6, 2)]] == want
    assert verify_kantor(6, 2, 1) and rank(inclusion_matrix(6, 2, 1)) == comb(6, 2)


def test_full_row_rank_inside_the_threshold():
    for l in range(1, 8):
        for n in range(l // 2 + 1):
            for m in range(l - 2 * n + 1):
                if n + m == 0:
                    continue
                assert verify_kantor(l, n, m), (l, n, m)


def test_rank_deficient_outside_the_threshold():
    # 2-subsets into 3-subsets of a 3-set: a single target row
    m = inclusion_matrix(3, 2, 1)
    assert rank(m) == 1 < comb(3, 2)


def test_weighted_rank_needs_enough_nonzero_points():
    l, n = 5, 2
    full = weight(l, {i: i + 1 for i in range(l)})
    assert cofactor(full, n) is None
    # only 2n nonzero points: the rank argument breaks down
    sparse = weight(l, {0: 1, 1: 1, 2: 1, 3: 1})
    assert cofactor(sparse, n) is not None


def test_commutation_for_all_ones_weight():
    for l in range(2, 6):
        for n in range(0, l - 1):
            assert check_commutation(singleton_ones(l), n)


def test_commutation_for_random_weights_with_zeros():
    rng = random.Random(23)
    for _ in range(30):
        l = rng.randint(2, 6)
        n = rng.randint(0, min(3, l - 1))
        f = weight(l, {i: rng.randint(-2, 2) for i in range(l)})
        assert check_commutation(f, n)


def perturbed_mult_matrix(f, degree):
    """`mult_matrix` with its first entry raised by one."""
    m = mult_matrix(f, degree).matrix
    nums = [row[:] for row in m.nums]
    nums[0][0] += 1
    return MultOperator(IntMatrix(nums, m.cols))


def test_commutation_fails_on_a_perturbed_multiplication_matrix(monkeypatch):
    f = weight(5, {0: 2, 1: -4, 2: 6, 3: 1, 4: 10})
    assert check_commutation(f, 2)
    code, rep = run(["commutation", "--l", "5", "--n", "2", "--trials", "3"])
    assert code == 0 and all(r["pass"] for r in rep["results"])
    monkeypatch.setattr(incidence, "mult_matrix", perturbed_mult_matrix)
    assert not check_commutation(f, 2)
    assert not check_commutation(singleton_ones(5), 2)
    code, rep = run(["commutation", "--l", "5", "--n", "2", "--trials", "3"])
    assert code == 1 and [r["pass"] for r in rep["results"]] == [False, False]


def test_derivation_matrix_column_sums_with_unit_weights():
    # replacing one point at a time: each 2-set feeds both its singletons
    d = derivation_matrix(singleton_ones(4), 1)
    for col in zip(*d):
        assert sum(col) == 2


def test_scaling_matrix_is_diagonal_product():
    f = weight(3, {0: 2, 1: 3, 2: 5})
    s = scaling_matrix(f, 2)
    diag = [s[i][i] for i in range(len(s))]
    assert sorted(diag) == [6, 10, 15]
    for i, row in enumerate(s):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0


def test_commutation_identity_written_out():
    # both composites send a set Q to prod of its point weights when the
    # smaller set sits inside Q, independently of the path taken
    f = weight(4, {0: 2, 1: -4, 2: 6, 3: 1})
    n = 1
    e = singleton_ones(4)
    lhs = dense_product(derivation_matrix(e, n), scaling_matrix(f, n + 1))
    rhs = dense_product(scaling_matrix(f, n), derivation_matrix(f, n))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_entrywise_commutation_agrees_with_dense_products(data):
    l = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(0, l - 1))
    values = data.draw(st.lists(st.integers(-8, 8), min_size=l, max_size=l))
    f = weight(l, dict(enumerate(values)))
    e = singleton_ones(l)
    lhs = dense_product(derivation_matrix(e, n), scaling_matrix(f, n + 1))
    rhs = dense_product(scaling_matrix(f, n), derivation_matrix(f, n))
    assert check_commutation(f, n) == (lhs == rhs)
