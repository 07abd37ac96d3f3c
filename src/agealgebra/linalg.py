"""Exact linear algebra over the rationals on integer rows.

A matrix stores each row once, as integers scaled by the lcm of that row's
denominators.  Scaling a row changes neither the rank nor the right kernel,
so rank and kernel eliminate the stored integer rows directly with
fraction-free (Bareiss) elimination: intermediate entries stay minors of
the scaled matrix instead of blowing up as unreduced fractions.  The
rescaling Bareiss applies to every row below a pivot is done lazily: a
row remembers the pivot it was last brought to and is touched only when
it has an entry in the pivot column or becomes the pivot row, so sparse
rows cost little.  Kernel vectors are back-substituted in integers, one
free column at a time, and re-checked exactly against the stored rows;
`kernel_vector` does this for the first free column only, where
`nullspace_basis` does it for all of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class RationalMatrix:
    """Immutable-by-convention matrix over Q stored as scaled integer rows.

    Row i is `nums[i]` divided by `dens[i]`, where `dens[i]` is the lcm of
    the denominators in that row, so the stored form is unique and equality
    compares it directly.  Integral entries never become Fractions.
    """

    __slots__ = ("rows", "cols", "nums", "dens")

    def __init__(self, entries: Sequence[Sequence]):
        nums: list[list[int]] = []
        dens: list[int] = []
        cols = None
        for row in entries:
            row = [x if type(x) is int else Fraction(x) for x in row]
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise ValueError("ragged rows in matrix")
            den = lcm(*(x.denominator for x in row))
            nums.append([x.numerator * (den // x.denominator) for x in row])
            dens.append(den)
        self.nums = nums
        self.dens = dens
        self.rows = len(nums)
        self.cols = cols or 0

    @classmethod
    def from_scaled(cls, nums: list[list[int]], dens: list[int], cols: int) -> "RationalMatrix":
        """Adopt rows already in stored form: row i is nums[i] / dens[i] with
        dens[i] the lcm of that row's reduced denominators (1 for a zero row)."""
        m = cls.__new__(cls)
        m.nums = nums
        m.dens = dens
        m.rows = len(nums)
        m.cols = cols
        return m

    @property
    def entries(self) -> list[list[Fraction]]:
        return [[Fraction(x, d) for x in row] for row, d in zip(self.nums, self.dens)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.entries)))

    def apply(self, vec: Sequence) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        v = [Fraction(x) for x in vec]
        return [
            sum((x * v[j] for j, x in enumerate(row) if x), Fraction(0)) / d
            for row, d in zip(self.nums, self.dens)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.nums, self.dens) == (
            other.rows, other.cols, other.nums, other.dens
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Dense product, kept as the reference the tests compare against."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = list(zip(*b.entries))
    return RationalMatrix([
        [sum((x * y for x, y in zip(arow, bcol)), Fraction(0)) for bcol in bt]
        for arow in a.entries
    ])


def _bareiss_echelon(a: list[list[int]], nrows: int, ncols: int) -> list[int]:
    """In-place fraction-free row echelon reduction with lazy rescaling.

    Returns the list of pivot columns; pivots and reduced rows are those of
    eager Bareiss elimination.  Its pivot/prev rescalings telescope, so row
    i keeps the pivot `scale[i]` it was last brought to.  Eliminating it
    divides by that scale instead of prev, and a pivot row is brought up to
    date first.  Every value computed is an exact minor of the input, so
    all the divisions are exact.
    """
    piv_cols: list[int] = []
    scale = [1] * nrows
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if a[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            a[pr], a[r] = a[r], a[pr]
            scale[pr], scale[r] = scale[r], scale[pr]
        arow = a[r]
        s = scale[r]
        if s != prev:
            arow[c:] = [x * prev // s for x in arow[c:]]
        pivot = arow[c]
        tail = arow[c + 1:]
        for i in range(r + 1, nrows):
            row = a[i]
            t = row[c]
            if not t:
                continue
            s = scale[i]
            row[c + 1:] = [(pivot * x - t * y) // s for x, y in zip(row[c + 1:], tail)]
            row[c] = 0
            scale[i] = pivot
        prev = pivot
        piv_cols.append(c)
        r += 1
    return piv_cols


def _echelon(m: RationalMatrix) -> tuple[list[list[int]], list[int]]:
    a = [row[:] for row in m.nums]
    return a, _bareiss_echelon(a, m.rows, m.cols)


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    return len(_echelon(m)[1])


def _kernel_vector_at(
    m: RationalMatrix, a: list[list[int]], piv_cols: list[int], fc: int
) -> list[Fraction]:
    """The kernel vector of free column fc from the echelon rows `a`.

    It is back-substituted in integers, re-checked exactly against the
    stored rows, and normalized so its first nonzero coordinate is 1.
    """
    # w is the kernel vector scaled to integers; rescale it whenever a
    # pivot does not divide the sum it has to cancel.
    w = [0] * m.cols
    w[fc] = 1
    for i in range(len(piv_cols) - 1, -1, -1):
        pc = piv_cols[i]
        if pc > fc:
            continue
        row = a[i]
        s = 0
        for j in range(pc + 1, fc + 1):
            if row[j] and w[j]:
                s += row[j] * w[j]
        p = row[pc]
        g = gcd(s, p)
        k = abs(p) // g
        if k != 1:
            for j in range(pc + 1, fc + 1):
                if w[j]:
                    w[j] *= k
        w[pc] = -(s // g) if p > 0 else s // g
    support = [(j, x) for j, x in enumerate(w) if x]
    for row in m.nums:
        if sum(row[j] * x for j, x in support):
            raise AssertionError("kernel vector failed exact re-check")
    lead = support[0][1]
    return [Fraction(x, lead) for x in w]


def nullspace_basis(m: RationalMatrix) -> list[list[Fraction]]:
    """Exact basis of the right kernel, one vector per free column, each
    normalized so its first nonzero coordinate is 1."""
    a, piv_cols = _echelon(m)
    piv_set = set(piv_cols)
    return [_kernel_vector_at(m, a, piv_cols, fc) for fc in range(m.cols) if fc not in piv_set]


def kernel_vector(m: RationalMatrix) -> list[Fraction] | None:
    """The first vector of `nullspace_basis(m)`, or None if the kernel is trivial."""
    a, piv_cols = _echelon(m)
    fc = next((c for c, pc in enumerate(piv_cols) if c != pc), len(piv_cols))
    return _kernel_vector_at(m, a, piv_cols, fc) if fc < m.cols else None
