"""Homogeneous weighted set functions and their graded convolution product.

A degree-m function assigns an integer to every m-subset of the ground set
(sparsely: absent keys mean zero).  Integers suffice: supports and zero
products, all the library asks about, do not change when a function is
multiplied by a nonzero integer.  The product of a degree-m and a degree-n
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
from .subsets import SetFamily, Subset, ksubsets, splits


class GroundMismatchError(ValueError):
    pass


class DegreeMismatchError(ValueError):
    pass


class SetFunction:
    """Sparse map from m-subsets of {0..n-1} to nonzero integers.

    The constructor drops zero values and raises TypeError on any value that
    is not an `int` (a `bool` included), so `is_zero` is an emptiness test.
    All zero functions on the same ground compare equal regardless of
    recorded degree; nonzero ones compare by degree and values.
    """

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: Mapping[Subset, int] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if n < 0:
            raise ValueError("ground size must be nonnegative")
        kept: dict[Subset, int] = {}
        for s, v in (coeffs or {}).items():
            if s.n != n:
                raise GroundMismatchError(f"key {s!r} not over ground of size {n}")
            if s.mask.bit_count() != degree:
                raise ValueError(f"key {s!r} has size {s.mask.bit_count()}, expected degree {degree}")
            if type(v) is not int:
                raise TypeError(f"value at {s!r} is {type(v).__name__}, not int")
            if v:
                kept[s] = v
        self.n = n
        self.degree = degree
        self.coeffs = kept

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def value(self, s: Subset) -> int:
        return self.coeffs.get(s, 0)

    def support(self) -> SetFamily:
        return SetFamily(self.n, self.coeffs.keys())

    def __add__(self, other: "SetFunction") -> "SetFunction":
        if self.n != other.n:
            raise GroundMismatchError("ground-set mismatch")
        if self.degree != other.degree:
            raise DegreeMismatchError(f"cannot add degree {self.degree} to degree {other.degree}")
        out = dict(self.coeffs)
        for s, v in other.coeffs.items():
            out[s] = out.get(s, 0) + v
        return SetFunction(self.n, self.degree, out)

    def __mul__(self, other: int) -> "SetFunction":
        return SetFunction(self.n, self.degree, {s: other * v for s, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero and other.is_zero:
            return True
        return (self.degree, self.coeffs) == (other.degree, other.coeffs)

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n}, degree={self.degree}, {len(self.coeffs)} terms)"


def singleton_ones(ground_size: int) -> SetFunction:
    """The degree-1 function equal to 1 on every singleton."""
    if ground_size < 1:
        raise ValueError("need a nonempty ground set")
    return SetFunction(ground_size, 1, {Subset(ground_size, 1 << i): 1 for i in range(ground_size)})


def product(f: SetFunction, g: SetFunction) -> SetFunction:
    """Graded convolution product, computed by convolving the supports."""
    if f.n != g.n:
        raise GroundMismatchError("ground-set mismatch in product")
    n = f.n
    gm = [(b.mask, gb) for b, gb in g.coeffs.items()]
    out: dict[int, int] = {}
    for a, fa in f.coeffs.items():
        am = a.mask
        for bm, gb in gm:
            if not am & bm:
                q = am | bm
                out[q] = out.get(q, 0) + fa * gb
    out_sets = {Subset(n, q): v for q, v in out.items()}
    return SetFunction(n, f.degree + g.degree, out_sets)


def product_by_splits(f: SetFunction, g: SetFunction) -> SetFunction:
    """Same product, evaluating the defining sum on the candidate sets A ∪ B.

    Independent of `product`: for every union Q of disjoint A in supp f and
    B in supp g, taken in colex order, it sums f(first part) * g(second
    part) over all splits of Q.  No other set can be nonzero, since each
    term of the defining sum at Q needs f(P) != 0 and g(Q minus P) != 0.
    """
    if f.n != g.n:
        raise GroundMismatchError("ground-set mismatch in product")
    n, m = f.n, f.degree
    fm = {s.mask: v for s, v in f.coeffs.items()}
    gm = {s.mask: v for s, v in g.coeffs.items()}
    out: dict[Subset, int] = {}
    for qmask in sorted({am | bm for am in fm for bm in gm if not am & bm}):
        total = sum(fm[p] * gm[r] for p, r in splits(qmask, m) if p in fm and r in gm)
        if total:
            out[Subset(n, qmask)] = total
    return SetFunction(n, f.degree + g.degree, out)


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
    terms = [(s.mask, v) for s, v in f.coeffs.items()]
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
    g = SetFunction(f.n, degree, {Subset(f.n, b): x for b, x in zip(ksubsets(f.n, degree), vec) if x})
    if not product(f, g).is_zero:
        raise AssertionError("kernel vector is not a cofactor")
    return g

