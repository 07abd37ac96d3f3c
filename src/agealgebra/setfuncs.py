"""Homogeneous weighted set functions and their graded convolution product.

A degree-m function assigns a rational to every m-subset of the ground set
(sparsely: absent keys mean zero), stored as integer numerators over one
common denominator.  The product of a degree-m and a degree-n function is
the degree-(m+n) function whose value at Q sums f(P) * g(Q minus P) over
all m-subsets P of Q.  Two independent implementations of that sum live
here, both on the numerators over f.den * g.den: `product` convolves the
supports, `product_by_splits` evaluates the defining sum on the candidate
sets A ∪ B (disjoint A in supp f, B in supp g), the only sets where it can
be nonzero.  They are cross-checked in the tests and the second backs
witness checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .linalg import IntMatrix, kernel_vector
from .subsets import SetFamily, Subset, ksubsets, splits


class GroundMismatchError(ValueError):
    pass


class DegreeMismatchError(ValueError):
    pass


class SetFunction:
    """Sparse map from m-subsets of {0..n-1} to nonzero rationals.

    f(S) = coeffs[S] / den: integer numerators over one positive `den`.
    The constructor takes `Fraction` or `int` values over an optional
    `den` and stores the canonical form: no zero numerators,
    gcd(den, *numerators) == 1, and den == 1 for the zero function.  So
    `is_zero` is an emptiness test and equality compares the stored form:
    all zero functions on the same ground compare equal regardless of
    recorded degree; nonzero ones compare by degree, `den` and numerators.
    """

    __slots__ = ("n", "degree", "coeffs", "den")

    def __init__(self, n: int, degree: int, coeffs: Mapping[Subset, Fraction | int] | None = None,
                 den: int = 1):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if n < 0:
            raise ValueError("ground size must be nonnegative")
        if den < 1:
            raise ValueError("denominator must be positive")
        kept: dict[Subset, Fraction | int] = {}
        for s, v in (coeffs or {}).items():
            if s.n != n:
                raise GroundMismatchError(f"key {s!r} not over ground of size {n}")
            if len(s) != degree:
                raise ValueError(f"key {s!r} has size {len(s)}, expected degree {degree}")
            if v:
                kept[s] = v
        scale = lcm(*(v.denominator for v in kept.values()))
        nums = {s: v.numerator * (scale // v.denominator) for s, v in kept.items()}
        g = gcd(den * scale, *nums.values())
        self.n = n
        self.degree = degree
        self.coeffs = {s: v // g for s, v in nums.items()}
        self.den = den * scale // g

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def value(self, s: Subset) -> Fraction:
        return Fraction(self.coeffs.get(s, 0), self.den)

    def support(self) -> SetFamily:
        return SetFamily(self.n, self.coeffs.keys())

    def items(self) -> list[tuple[Subset, Fraction]]:
        """Nonzero values in colex order of the keys."""
        ordered = sorted(self.coeffs.items(), key=lambda kv: kv[0].mask)
        return [(s, Fraction(v, self.den)) for s, v in ordered]

    def restrict(self, window: Subset) -> "SetFunction":
        """Zero out every coefficient whose key is not contained in window."""
        if window.n != self.n:
            raise GroundMismatchError("window over a different ground set")
        kept = {s: v for s, v in self.coeffs.items() if s.issubset(window)}
        return SetFunction(self.n, self.degree, kept, self.den)

    def __add__(self, other: "SetFunction") -> "SetFunction":
        if self.n != other.n:
            raise GroundMismatchError("ground-set mismatch")
        if self.degree != other.degree:
            raise DegreeMismatchError(f"cannot add degree {self.degree} to degree {other.degree}")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {s: v * a for s, v in self.coeffs.items()}
        for s, v in other.coeffs.items():
            out[s] = out.get(s, 0) + v * b
        return SetFunction(self.n, self.degree, out, den)

    def __mul__(self, other):
        c = Fraction(other)
        out = {s: c.numerator * v for s, v in self.coeffs.items()}
        return SetFunction(self.n, self.degree, out, self.den * c.denominator)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFunction):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero and other.is_zero:
            return True
        return (self.degree, self.den, self.coeffs) == (other.degree, other.den, other.coeffs)

    def __repr__(self) -> str:
        return f"SetFunction(n={self.n}, degree={self.degree}, {len(self.coeffs)} terms)"


def unit(ground_size: int) -> SetFunction:
    """Multiplicative unit: 1 on the empty set."""
    return SetFunction(ground_size, 0, {Subset(ground_size, 0): 1})


def singleton_ones(ground_size: int) -> SetFunction:
    """The degree-1 function equal to 1 on every singleton."""
    if ground_size < 1:
        raise ValueError("need a nonempty ground set")
    return SetFunction(ground_size, 1, {Subset(ground_size, 1 << i): 1 for i in range(ground_size)})


def product(f: SetFunction, g: SetFunction) -> SetFunction:
    """Graded convolution product, computed by convolving the supports in
    integer numerators over f.den * g.den."""
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
    return SetFunction(n, f.degree + g.degree, out_sets, f.den * g.den)


def product_by_splits(f: SetFunction, g: SetFunction) -> SetFunction:
    """Same product, evaluating the defining sum on the candidate sets A ∪ B.

    Independent of `product`: for every union Q of disjoint A in supp f and
    B in supp g, taken in colex order, it sums f(first part) * g(second
    part) over all splits of Q.  No other set can be nonzero, since each
    term of the defining sum at Q needs f(P) != 0 and g(Q minus P) != 0.
    The sums run on the stored numerators, and a nonzero total t becomes
    the value t / (f.den * g.den).
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
    return SetFunction(n, f.degree + g.degree, out, f.den * g.den)


class MultOperator:
    """Matrix of multiplication by f from degree d to degree d + deg(f).

    Rows are the (deg f + d)-subsets and columns the d-subsets of the
    ground set, both in colex order as `ksubsets` lists them; the entry at
    (Q, B) is the numerator of f(Q minus B) when B is contained in Q and
    zero otherwise, so the matrix is f.den times the operator and has the
    same rank and kernel.  A coefficient vector over the columns maps to
    the product's numerators over the rows.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        self.matrix = matrix


def mult_matrix(f: SetFunction, source_degree: int) -> MultOperator:
    if source_degree < 0:
        raise ValueError("source degree must be nonnegative")
    if f.degree + source_degree > f.n:
        raise ValueError("target degree exceeds ground set")
    col_of = {b.mask: j for j, b in enumerate(ksubsets(f.n, source_degree))}
    terms = [(s.mask, v) for s, v in f.coeffs.items()]
    nums: list[list[int]] = []
    for q in ksubsets(f.n, f.degree + source_degree):
        qm = q.mask
        row = [0] * len(col_of)
        for am, v in terms:
            if am & qm == am:
                row[col_of[qm ^ am]] = v
        nums.append(row)
    return MultOperator(IntMatrix(nums, len(col_of)))


def cofactor(f: SetFunction, degree: int) -> SetFunction | None:
    """A nonzero degree-`degree` g with f * g = 0, or None if none exists.

    Takes one vector of the kernel of the multiplication matrix, scaled so
    g is 1 at its first nonzero set in colex order, and re-checks the
    product before returning.
    """
    if f.is_zero:
        raise ValueError("zero function has every cofactor")
    vec = kernel_vector(mult_matrix(f, degree).matrix)
    if vec is None:
        return None
    lead = next(x for x in vec if x)
    g = SetFunction(f.n, degree, dict(zip(ksubsets(f.n, degree), vec)), lead)
    if not product(f, g).is_zero:
        raise AssertionError("kernel vector is not a cofactor")
    return g


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
