"""Inclusion matrices, weighted derivations, and full-rank checks.

The unweighted inclusion matrix between n-subsets and (n+m)-subsets has
full row rank C(l, n) whenever 2n + m <= l.  The weighted analogues built
from a degree-1 function share that behaviour as soon as the function has
at least 2n+1 nonzero values; `check_commutation` checks, entry by entry,
the rescaling identity that carries the rank over.

In colex order the sets without the last point l-1 come first, so
W_{n,k}(l) = [[W_{n,k}(l-1), W_{n,k-1}(l-1)], [0, W_{n-1,k-1}(l-1)]];
inclusion matrices are assembled from these blocks, each built once per
process as rows of bytes and shared by every matrix that contains it.
"""

from __future__ import annotations

from functools import cache
from math import comb, prod

from .linalg import IntMatrix, rank
from .setfuncs import SetFunction, mult_matrix
from .subsets import Subset, ksubsets, members


@cache
def _inclusion_rows(ell: int, n: int, k: int) -> tuple[bytes, ...]:
    """Rows of W_{n,k}(ell), n-subsets by k-subsets of ell points in colex
    order, each row a bytes of 0/1 entries."""
    if n > k or k > ell:
        return (bytes(comb(ell, k)),) * comb(ell, n)
    if n == 0:
        return (b"\1" * comb(ell, k),)
    pad = bytes(comb(ell - 1, k))
    return tuple(
        [a + b for a, b in zip(_inclusion_rows(ell - 1, n, k), _inclusion_rows(ell - 1, n, k - 1))]
        + [pad + b for b in _inclusion_rows(ell - 1, n - 1, k - 1)]
    )


def inclusion_matrix(ground_size: int, n: int, m: int) -> IntMatrix:
    """0/1 matrix of the containment relation, n-subsets by (n+m)-subsets."""
    if n < 0 or m < 0:
        raise ValueError("sizes must be nonnegative")
    if n + m > ground_size:
        raise ValueError("column subsets exceed the ground set")
    rows = _inclusion_rows(ground_size, n, n + m)
    return IntMatrix([list(row) for row in rows], comb(ground_size, n + m))


def verify_kantor(ground_size: int, n: int, m: int) -> bool:
    """True iff the inclusion matrix reaches full row rank C(l, n)."""
    return rank(inclusion_matrix(ground_size, n, m)) == comb(ground_size, n)


def check_commutation(f: SetFunction, n: int) -> bool:
    """Unweighted contraction after rescaling equals rescaling after
    weighted contraction, from degree n+1 to degree n.

    With w the product of the point weights, the identity is checked entry
    by entry on M = mult_matrix(f, n): w(B) * M[Q][B] must be w(Q) when B
    is inside Q and 0 otherwise.
    """
    if f.degree != 1:
        raise ValueError("commutation check needs a degree-1 weight function")
    if n < 0 or n + 1 > f.n:
        raise ValueError("degree out of range for the ground set")
    m = mult_matrix(f, n).matrix
    rows, cols = ksubsets(f.n, n + 1), ksubsets(f.n, n)
    point = [f.value(Subset(f.n, 1 << x)) for x in range(f.n)]
    weights = [prod(point[x] for x in members(s)) for s in rows + cols]
    pairs = list(zip(cols, weights[len(rows):]))
    for q, wq, nums in zip(rows, weights, m.nums):
        outside = ~q
        for (b, wb), x in zip(pairs, nums):
            if (x if b & outside else wb * x != wq):
                return False
    return True

