"""Homogeneous weighted set functions and their graded convolution product.

A degree-m function assigns a rational to every m-subset of the ground set
(sparsely: absent keys mean zero).  The product of a degree-m and a
degree-n function is the degree-(m+n) function whose value at Q sums
f(P) * g(Q minus P) over all m-subsets P of Q.  Two independent
implementations of that sum live here: `product` convolves the supports,
`product_by_splits` evaluates the defining sum on the candidate sets A ∪ B
(disjoint A in supp f, B in supp g), the only sets where it can be nonzero,
in integer numerators over the lcm of each factor's denominators.
They are cross-checked in the tests and the second backs witness checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Mapping

from .linalg import RationalMatrix, kernel_vector
from .subsets import SetFamily, Subset, ksubsets, splits


class GroundMismatchError(ValueError):
    pass


class DegreeMismatchError(ValueError):
    pass


class SetFunction:
    """Sparse map from m-subsets of {0..n-1} to nonzero rationals.

    Zero coefficients are pruned on construction, so `is_zero` is just an
    emptiness test.  All zero functions on the same ground compare equal
    regardless of recorded degree; nonzero functions compare by degree and
    coefficients.
    """

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: Mapping[Subset, Fraction | int] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if n < 0:
            raise ValueError("ground size must be nonnegative")
        clean: dict[Subset, Fraction] = {}
        if coeffs:
            for s, v in coeffs.items():
                if s.n != n:
                    raise GroundMismatchError(f"key {s!r} not over ground of size {n}")
                if len(s) != degree:
                    raise ValueError(f"key {s!r} has size {len(s)}, expected degree {degree}")
                fv = Fraction(v)
                if fv:
                    clean[s] = fv
        self.n = n
        self.degree = degree
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def value(self, s: Subset) -> Fraction:
        return self.coeffs.get(s, Fraction(0))

    def support(self) -> SetFamily:
        return SetFamily(self.n, self.coeffs.keys())

    def items(self):
        """Coefficient pairs in colex order of the keys."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].mask)

    def restrict(self, window: Subset) -> "SetFunction":
        """Zero out every coefficient whose key is not contained in window."""
        if window.n != self.n:
            raise GroundMismatchError("window over a different ground set")
        kept = {s: v for s, v in self.coeffs.items() if s.issubset(window)}
        return SetFunction(self.n, self.degree, kept)

    def _check_compatible(self, other: "SetFunction") -> None:
        if self.n != other.n:
            raise GroundMismatchError("ground-set mismatch")
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot add degree {self.degree} to degree {other.degree}"
            )

    def __add__(self, other: "SetFunction") -> "SetFunction":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for s, v in other.coeffs.items():
            out[s] = out.get(s, Fraction(0)) + v
        return SetFunction(self.n, self.degree, out)

    def __mul__(self, other):
        scalar = Fraction(other)
        return SetFunction(self.n, self.degree, {s: scalar * v for s, v in self.coeffs.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n}, degree={self.degree}, {len(self.coeffs)} terms)"


def unit(ground_size: int) -> SetFunction:
    """Multiplicative unit: 1 on the empty set."""
    return SetFunction(ground_size, 0, {Subset(ground_size, 0): Fraction(1)})


def singleton_ones(ground_size: int) -> SetFunction:
    """The degree-1 function equal to 1 on every singleton."""
    if ground_size < 1:
        raise ValueError("need a nonempty ground set")
    return SetFunction(
        ground_size, 1, {Subset(ground_size, 1 << i): Fraction(1) for i in range(ground_size)}
    )


def product(f: SetFunction, g: SetFunction) -> SetFunction:
    """Graded convolution product, computed by convolving the supports."""
    if f.n != g.n:
        raise GroundMismatchError("ground-set mismatch in product")
    n = f.n
    out: dict[Subset, Fraction] = {}
    for a, fa in f.coeffs.items():
        am = a.mask
        for b, gb in g.coeffs.items():
            if am & b.mask:
                continue
            q = Subset(n, am | b.mask)
            prev = out.get(q)
            out[q] = fa * gb if prev is None else prev + fa * gb
    return SetFunction(n, f.degree + g.degree, out)


def product_by_splits(f: SetFunction, g: SetFunction) -> SetFunction:
    """Same product, evaluating the defining sum on the candidate sets A ∪ B.

    Independent of `product`: for every union Q of disjoint A in supp f and
    B in supp g, taken in colex order, it sums f(first part) * g(second
    part) over all splits of Q.  No other set can be nonzero, since each
    term of the defining sum at Q needs f(P) != 0 and g(Q minus P) != 0.
    The sums run on integer numerators over the lcm Df of f's denominators
    and Dg of g's; a nonzero total t becomes the value t / (Df * Dg).
    """
    if f.n != g.n:
        raise GroundMismatchError("ground-set mismatch in product")
    n = f.n
    m = f.degree
    df = lcm(*(v.denominator for v in f.coeffs.values()))
    dg = lcm(*(v.denominator for v in g.coeffs.values()))
    fm = {s.mask: v.numerator * (df // v.denominator) for s, v in f.coeffs.items()}
    gm = {s.mask: v.numerator * (dg // v.denominator) for s, v in g.coeffs.items()}
    out: dict[Subset, Fraction] = {}
    for qmask in sorted({am | bm for am in fm for bm in gm if not am & bm}):
        total = sum(fm[p] * gm[r] for p, r in splits(qmask, m) if p in fm and r in gm)
        if total:
            out[Subset(n, qmask)] = Fraction(total, df * dg)
    return SetFunction(n, f.degree + g.degree, out)


class MultOperator:
    """Matrix of multiplication by f from degree d to degree d + deg(f).

    Rows are the (deg f + d)-subsets and columns the d-subsets of the
    ground set, both in colex order as `ksubsets` lists them; the entry at
    (Q, B) is f(Q minus B) when B is contained in Q and zero otherwise.
    A coefficient vector over the columns maps to the product's
    coefficients over the rows.
    """

    __slots__ = ("f", "source_degree", "matrix")

    def __init__(self, f: SetFunction, source_degree: int, matrix: RationalMatrix):
        self.f = f
        self.source_degree = source_degree
        self.matrix = matrix


def mult_matrix(f: SetFunction, source_degree: int) -> MultOperator:
    if source_degree < 0:
        raise ValueError("source degree must be nonnegative")
    if f.degree + source_degree > f.n:
        raise ValueError("target degree exceeds ground set")
    col_of = {b.mask: j for j, b in enumerate(ksubsets(f.n, source_degree))}
    terms = [(s.mask, v) for s, v in f.coeffs.items()]
    nums: list[list[int]] = []
    dens: list[int] = []
    for q in ksubsets(f.n, f.degree + source_degree):
        qm = q.mask
        cells = [(col_of[qm ^ am], v) for am, v in terms if am & qm == am]
        den = lcm(*(v.denominator for _, v in cells))
        row = [0] * len(col_of)
        for j, v in cells:
            row[j] = v.numerator * (den // v.denominator)
        nums.append(row)
        dens.append(den)
    return MultOperator(f, source_degree, RationalMatrix.from_scaled(nums, dens, len(col_of)))


def cofactor(f: SetFunction, degree: int) -> SetFunction | None:
    """A nonzero degree-`degree` g with f * g = 0, or None if none exists.

    Takes one vector of the kernel of the multiplication matrix and
    re-checks the product before returning.
    """
    if f.is_zero:
        raise ValueError("zero function has every cofactor")
    vec = kernel_vector(mult_matrix(f, degree).matrix)
    if vec is None:
        return None
    g = SetFunction(f.n, degree, dict(zip(ksubsets(f.n, degree), vec)))
    if not product(f, g).is_zero:
        raise AssertionError("kernel vector is not a cofactor")
    return g


# Sign partition of the nonzero rationals.  Two blocks suffice for the
# property needed here: any dot product of same-block sequences with both
# factors drawn from a single block is strictly positive or strictly
# negative, hence nonzero.

def block_of(q: Fraction | int) -> int:
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no block")
    return 1 if q > 0 else -1


# JSON serialization.  Rationals are carried as decimal strings so integer
# overflow in other tooling is never a concern.

def set_function_to_dict(f: SetFunction) -> dict:
    return {
        "ground_size": f.n,
        "degree": f.degree,
        "terms": [
            {"set": list(s.elements()), "num": str(v.numerator), "den": str(v.denominator)}
            for s, v in f.items()
        ],
    }


def set_function_from_dict(data: dict) -> SetFunction:
    n = int(data["ground_size"])
    degree = int(data["degree"])
    coeffs: dict[Subset, Fraction] = {}
    for term in data["terms"]:
        s = Subset.from_indices(n, term["set"])
        if s in coeffs:
            raise ValueError("duplicate term in serialized function")
        coeffs[s] = Fraction(int(term["num"]), int(term["den"]))
    return SetFunction(n, degree, coeffs)


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace.  Round-trips exactly."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
