"""Exact rank and kernel over the rationals on integer rows.

Every matrix here has integer entries.  A caller with rational rows stores
an integer multiple of each (multiplication by f stores f's numerators),
since scaling a row by a nonzero number changes neither the rank nor the
right kernel.  Rank and kernel eliminate the rows with fraction-free
(Bareiss) elimination: intermediate entries stay minors of the matrix
instead of blowing up as unreduced fractions.  The rescaling Bareiss
applies to every row below a pivot is done lazily: a row remembers the
pivot it was last brought to and is touched only when it has an entry in
the pivot column or becomes the pivot row, so sparse rows cost little.
Kernel vectors are back-substituted in integers, one free column at a
time, re-checked exactly against the rows, and returned primitive with a
positive first nonzero entry; `kernel_vector` does this for the first
free column only, where `nullspace_basis` does it for all of them.
"""

from __future__ import annotations

from math import gcd


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


def _echelon(m: IntMatrix) -> tuple[list[list[int]], list[int]]:
    a = [row[:] for row in m.nums]
    return a, _bareiss_echelon(a, m.rows, m.cols)


def rank(m: IntMatrix) -> int:
    """Exact rank over the rationals via fraction-free elimination."""
    return len(_echelon(m)[1])


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
    a, piv_cols = _echelon(m)
    fc = next((c for c, pc in enumerate(piv_cols) if c != pc), len(piv_cols))
    return _kernel_vector_at(m, a, piv_cols, fc) if fc < m.cols else None
