"""Inclusion matrices, weighted derivations, and full-rank checks.

The unweighted inclusion matrix between n-subsets and (n+m)-subsets has
full row rank C(l, n) whenever 2n + m <= l.  The weighted analogues built
from a degree-1 function share that behaviour as soon as the function has
at least 2n+1 nonzero values, which is checked here through the kernel of
the multiplication operator.
"""

from __future__ import annotations

from math import comb, prod

from .linalg import RationalMatrix, kernel_vector, rank
from .relational import RelStructure, invariant_basis
from .setfuncs import SetFunction, mult_matrix, product, singleton_ones
from .subsets import Subset, ksubsets


def inclusion_matrix(ground_size: int, n: int, m: int) -> RationalMatrix:
    """0/1 matrix of the containment relation, n-subsets by (n+m)-subsets."""
    if n < 0 or m < 0:
        raise ValueError("sizes must be nonnegative")
    if n + m > ground_size:
        raise ValueError("column subsets exceed the ground set")
    cols = [q.mask for q in ksubsets(ground_size, n + m)]
    rows = ksubsets(ground_size, n)
    return RationalMatrix.from_scaled(
        [[1 if b.mask & q == b.mask else 0 for q in cols] for b in rows],
        [1] * len(rows),
        len(cols),
    )


def verify_kantor(ground_size: int, n: int, m: int) -> bool:
    """True iff the inclusion matrix reaches full row rank C(l, n)."""
    return rank(inclusion_matrix(ground_size, n, m)) == comb(ground_size, n)


def _set_weights(f: SetFunction, subsets: list[Subset]) -> tuple[list[int], int]:
    """D = f.den and, per subset S, the integer D**|S| times the product of
    the point weights f({x}) over S: the product of their numerators."""
    nums = [f.coeffs.get(Subset(f.n, 1 << x), 0) for x in range(f.n)]
    return [prod(nums[x] for x in s.elements()) for s in subsets], f.den


def check_commutation(f: SetFunction, n: int) -> bool:
    """Unweighted contraction after rescaling equals rescaling after
    weighted contraction, from degree n+1 to degree n.

    With w the product of the point weights, the identity is checked entry
    by entry on the stored rows of M = mult_matrix(f, n): w(B) * M[Q][B]
    must be w(Q) when B is inside Q and 0 otherwise.  Both sides are
    compared as integers: with D = f.den, W = D**|S| w the product of
    stored numerators from `_set_weights`, and the row M[Q] = nums / den,
    the test is W(B) * x * D = W(Q) * den, since |Q| = |B| + 1.
    """
    if f.degree != 1:
        raise ValueError("commutation check needs a degree-1 weight function")
    if n < 0 or n + 1 > f.n:
        raise ValueError("degree out of range for the ground set")
    m = mult_matrix(f, n).matrix
    rows, cols = ksubsets(f.n, n + 1), ksubsets(f.n, n)
    weights, d = _set_weights(f, rows + cols)
    pairs = [(b.mask, wb * d) for b, wb in zip(cols, weights[len(rows):])]
    for q, wq, nums, den in zip(rows, weights, m.nums, m.dens):
        outside, target = ~q.mask, wq * den
        for (b, wbd), x in zip(pairs, nums):
            if (x if b & outside else wbd * x != target):
                return False
    return True


def e_regular_on_invariants(structure: RelStructure, n: int) -> bool:
    """True iff multiplying by the all-ones degree-1 function is injective
    on the span of the isomorphism-invariant indicator functions.
    """
    basis = invariant_basis(structure, n)
    ground = structure.base_size
    if n + 1 > ground:
        raise ValueError("image degree exceeds the base")
    ones = singleton_ones(ground)
    images = [product(ones, h) for h in basis]
    entries = [[img.value(q) for img in images] for q in ksubsets(ground, n + 1)]
    return kernel_vector(RationalMatrix(entries)) is None
