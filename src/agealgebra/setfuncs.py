"""Homogeneous weighted set functions and their graded convolution product.

A degree-m function assigns an integer to every m-subset of the ground set
(sparsely, keyed by the subset's mask: absent keys mean zero).  Integers
suffice: supports and zero products, all the library asks about, do not
change when a function is multiplied by a nonzero integer.  The product of a degree-m and a degree-n
function is the degree-(m+n) function whose value at Q sums
f(P) * g(Q minus P) over all m-subsets P of Q.  Two independent
implementations of that sum live here: `product` convolves the supports,
`product_by_splits` evaluates the defining sum on the candidate sets A ∪ B
(disjoint A in supp f, B in supp g), the only sets where it can be nonzero.
They are cross-checked in the tests and the second backs witness checks.
"""

from __future__ import annotations

from typing import Mapping

from .linalg import IntMatrix, kernel_vector
from .subsets import MAX_GROUND, SetFamily, Subset, ksubsets, splits


class SetFunction:
    """Sparse map from the masks of m-subsets of {0..n-1} to nonzero integers.

    The constructor drops zero values.  It raises TypeError on a key or a
    value that is not an `int` (a `bool` or a `Subset` included) and
    ValueError on a key with bits outside the ground or of the wrong size,
    so `is_zero` is an emptiness test.
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: Mapping[int, int] | None = None):
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground size must be in 0..{MAX_GROUND}, got {n}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        kept: dict[int, int] = {}
        for k, v in (terms or {}).items():
            if type(k) is not int:
                raise TypeError(f"key {k!r} is {type(k).__name__}, not an int mask")
            if k < 0 or k >> n:
                raise ValueError(f"mask {k:#x} has bits outside 0..{n - 1}")
            if k.bit_count() != degree:
                raise ValueError(f"mask {k:#x} has size {k.bit_count()}, expected degree {degree}")
            if type(v) is not int:
                raise TypeError(f"value at {k:#x} is {type(v).__name__}, not int")
            if v:
                kept[k] = v
        self.n = n
        self.degree = degree
        self.terms = kept

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def coeffs(self) -> dict[Subset, int]:
        """The terms keyed by `Subset`, built on each read for the benchmark's
        tracer; the library reads `terms`."""
        return {Subset(self.n, k): v for k, v in self.terms.items()}

    def value(self, mask: int) -> int:
        if type(mask) is not int:
            raise TypeError(f"value takes an int mask, not {type(mask).__name__}")
        return self.terms.get(mask, 0)

    def support(self) -> SetFamily:
        return SetFamily(self.n, [Subset(self.n, k) for k in self.terms])

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n}, degree={self.degree}, {len(self.terms)} terms)"


def singleton_ones(ground_size: int) -> SetFunction:
    """The degree-1 function equal to 1 on every singleton."""
    if ground_size < 1:
        raise ValueError("need a nonempty ground set")
    return SetFunction(ground_size, 1, {1 << i: 1 for i in range(ground_size)})


def product(f: SetFunction, g: SetFunction) -> SetFunction:
    """Graded convolution product, computed by convolving the supports."""
    if f.n != g.n:
        raise ValueError("ground-set mismatch in product")
    gm = list(g.terms.items())
    out: dict[int, int] = {}
    for am, fa in f.terms.items():
        for bm, gb in gm:
            if not am & bm:
                q = am | bm
                out[q] = out.get(q, 0) + fa * gb
    return SetFunction(f.n, f.degree + g.degree, out)


def product_by_splits(f: SetFunction, g: SetFunction) -> SetFunction:
    """Same product, evaluating the defining sum on the candidate sets A ∪ B.

    Independent of `product`: for every union Q of disjoint A in supp f and
    B in supp g, taken in colex order, it sums f(first part) * g(second
    part) over all splits of Q.  No other set can be nonzero, since each
    term of the defining sum at Q needs f(P) != 0 and g(Q minus P) != 0.
    """
    if f.n != g.n:
        raise ValueError("ground-set mismatch in product")
    fm, gm = f.terms, g.terms
    out: dict[int, int] = {}
    for qmask in sorted({am | bm for am in fm for bm in gm if not am & bm}):
        total = sum(fm[p] * gm[r] for p, r in splits(qmask, f.degree) if p in fm and r in gm)
        if total:
            out[qmask] = total
    return SetFunction(f.n, f.degree + g.degree, out)


class MultOperator:
    """Matrix of multiplication by f from degree d to degree d + deg(f).

    Rows are the (deg f + d)-subsets and columns the d-subsets of the
    ground set, both in colex order as `ksubsets` lists them; the entry at
    (Q, B) is f(Q minus B) when B is contained in Q and zero otherwise.  A
    coefficient vector over the columns maps to the product's values over
    the rows.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix


def mult_matrix(f: SetFunction, source_degree: int) -> MultOperator:
    if source_degree < 0:
        raise ValueError("source degree must be nonnegative")
    if f.degree + source_degree > f.n:
        raise ValueError("target degree exceeds ground set")
    col_of = {b: j for j, b in enumerate(ksubsets(f.n, source_degree))}
    terms = list(f.terms.items())
    nums: list[list[int]] = []
    for qm in ksubsets(f.n, f.degree + source_degree):
        row = [0] * len(col_of)
        for am, v in terms:
            if am & qm == am:
                row[col_of[qm ^ am]] = v
        nums.append(row)
    return MultOperator(IntMatrix(nums, len(col_of)))


def cofactor(f: SetFunction, degree: int) -> SetFunction | None:
    """A nonzero degree-`degree` g with f * g = 0, or None if none exists.

    g is the primitive kernel vector of the multiplication matrix, positive
    at its first nonzero set in colex order; the product is re-checked
    before returning.
    """
    if f.is_zero:
        raise ValueError("zero function has every cofactor")
    vec = kernel_vector(mult_matrix(f, degree).matrix)
    if vec is None:
        return None
    g = SetFunction(f.n, degree, {b: x for b, x in zip(ksubsets(f.n, degree), vec) if x})
    if not product(f, g).is_zero:
        raise AssertionError("kernel vector is not a cofactor")
    return g

