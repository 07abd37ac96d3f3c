"""Exact rank and kernel over the rationals on integer rows.

Every matrix here has integer entries, as set functions have integer
values.  `rank` first eliminates mod P = 127, on rows held as bytes: a
minor nonzero mod P is nonzero over Z, so full rank mod P proves full
rank.  P is the largest prime whose residues add in pairs within a byte,
so a row operation adds two rows as big integers with no slot carrying.
By Wilson's p-rank formula (Europ. J. Combin. 11, 1990) an inclusion
matrix of t-sets against k-sets, t <= min(k, l - k), has full rank mod p
for k < p, so no `kantor` matrix needs more.  Other ranks and all kernels
use fraction-free (Bareiss) elimination: intermediate entries stay
minors of the matrix instead of blowing up as unreduced fractions.  The
rescaling Bareiss applies to every row below a pivot is done lazily: a
row remembers the pivot it was last brought to and is touched only when
it has an entry in the pivot column or becomes the pivot row, so sparse
rows cost little.  Kernel vectors are back-substituted in integers, one
free column at a time, re-checked exactly against the rows, and returned
primitive with a positive first nonzero entry; `kernel_vector` does this
for the first free column only, eliminating up to it, where
`nullspace_basis` does it for all of them.
"""

from __future__ import annotations

from functools import cache
from math import gcd

P = 127
_MOD = bytes(x % P for x in range(256))


class IntMatrix:
    """Immutable-by-convention integer matrix: `nums` is the list of rows,
    each of length `cols`."""

    __slots__ = ("rows", "cols", "nums")

    def __init__(self, nums: list[list[int]], cols: int):
        if any(len(row) != cols for row in nums):
            raise ValueError("ragged rows in matrix")
        self.nums = nums
        self.rows = len(nums)
        self.cols = cols

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Dense integer product, kept as the reference the tests compare against."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = [[row[j] for row in b.nums] for j in range(b.cols)]
    return IntMatrix(
        [[sum(x * y for x, y in zip(arow, bcol)) for bcol in bt] for arow in a.nums], b.cols
    )


def _bareiss_echelon(a: list[list[int]], nrows: int, ncols: int, to_free: bool = False) -> list[int]:
    """In-place fraction-free row echelon reduction with lazy rescaling.

    Returns the list of pivot columns; pivots and reduced rows are those of
    eager Bareiss elimination, up to the first column without a pivot if
    `to_free`.  Its pivot/prev rescalings telescope, so row i keeps the
    pivot `scale[i]` it was last brought to.  Eliminating it divides by
    that scale instead of prev, and a pivot row is brought up to date
    first.  Every value computed is an exact minor of the input, so all
    the divisions are exact.
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
            if to_free:
                break
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


def _echelon(m: IntMatrix, to_free: bool = False) -> tuple[list[list[int]], list[int]]:
    a = [row[:] for row in m.nums]
    return a, _bareiss_echelon(a, m.rows, m.cols, to_free)


@cache
def _times(k: int) -> bytes:
    """Translation table taking each residue y to k*y mod P."""
    return bytes(k * y % P for y in range(256))


def _rank_mod_p(m: IntMatrix) -> int:
    """Rank over GF(P) by Gauss elimination on rows held as bytes."""
    rows = []
    for row in reversed(m.nums):
        try:
            rows.append(bytes(row).translate(_MOD))
        except ValueError:
            rows.append(bytes(x % P for x in row))
    width, r = m.cols, 0
    while rows:
        prow = rows.pop()
        c = width - len(prow.lstrip(b"\0"))
        if c == width:
            continue
        prow = prow.translate(_times(pow(prow[c], -1, P)))
        minus = {}
        for i, row in enumerate(rows):
            if t := row[c]:
                if t not in minus:
                    minus[t] = int.from_bytes(prow.translate(_times(P - t)), "big")
                s = int.from_bytes(row, "big") + minus[t]
                rows[i] = s.to_bytes(width, "big").translate(_MOD)
        r += 1
    return r


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals: full rank mod P if that holds, else
    the rank of the fraction-free echelon form."""
    full = min(m.rows, m.cols)
    return full if _rank_mod_p(m) == full else len(_echelon(m)[1])


def _kernel_vector_at(
    m: IntMatrix, a: list[list[int]], piv_cols: list[int], fc: int
) -> list[int]:
    """The kernel vector of free column fc from the echelon rows `a`.

    It is back-substituted in integers, re-checked exactly against the
    rows of m, and returned primitive with a positive first nonzero entry.
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
    g = gcd(*w)
    if support[0][1] < 0:
        g = -g
    return [x // g for x in w]


def nullspace_basis(m: IntMatrix) -> list[list[int]]:
    """Exact basis of the right kernel, one primitive integer vector per
    free column, each with a positive first nonzero entry."""
    a, piv_cols = _echelon(m)
    piv_set = set(piv_cols)
    return [_kernel_vector_at(m, a, piv_cols, fc) for fc in range(m.cols) if fc not in piv_set]


def kernel_vector(m: IntMatrix) -> list[int] | None:
    """The first vector of `nullspace_basis(m)`, or None if the kernel is trivial."""
    a, piv_cols = _echelon(m, to_free=True)
    fc = len(piv_cols)
    return _kernel_vector_at(m, a, piv_cols, fc) if fc < m.cols else None
