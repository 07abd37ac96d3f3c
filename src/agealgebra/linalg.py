"""Exact linear algebra over the rationals on integer rows.

A matrix stores each row once, as integers scaled by the lcm of that row's
denominators.  Scaling a row changes neither the rank nor the right kernel,
so rank and kernel eliminate the stored integer rows directly with
fraction-free (Bareiss) elimination: intermediate entries stay minors of
the scaled matrix instead of blowing up as unreduced fractions.  Nullspace
vectors are back-substituted in integers and re-checked against the
stored rows, skipping their zero entries.
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
    """In-place fraction-free row echelon reduction.

    Returns the list of pivot columns.  Every entry stays an exact minor of
    the input, so all the divisions below are exact integer divisions.
    """
    piv_cols: list[int] = []
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
        arow = a[r]
        pivot = arow[c]
        for i in range(r + 1, nrows):
            row = a[i]
            t = row[c]
            if t:
                for j in range(c + 1, ncols):
                    row[j] = (pivot * row[j] - t * arow[j]) // prev
                row[c] = 0
            elif prev != 1:
                for j in range(c + 1, ncols):
                    if row[j]:
                        row[j] = pivot * row[j] // prev
            elif pivot != 1:
                for j in range(c + 1, ncols):
                    if row[j]:
                        row[j] = pivot * row[j]
        prev = pivot
        piv_cols.append(c)
        r += 1
    return piv_cols


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    return len(_bareiss_echelon([row[:] for row in m.nums], m.rows, m.cols))


def nullspace_basis(m: RationalMatrix) -> list[list[Fraction]]:
    """Exact basis of the right kernel, one vector per free column.

    Each vector is normalized so its first nonzero coordinate is 1, and is
    re-checked against the stored integer rows before being returned.
    """
    a = [row[:] for row in m.nums]
    piv_cols = _bareiss_echelon(a, m.rows, m.cols)
    piv_set = set(piv_cols)
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in m.nums]
    basis = []
    for fc in range(m.cols):
        if fc in piv_set:
            continue
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
        for row in sparse:
            if sum(x * w[j] for j, x in row):
                raise AssertionError("kernel vector failed exact re-check")
        lead = next(x for x in w if x)
        basis.append([Fraction(x, lead) for x in w])
    return basis
