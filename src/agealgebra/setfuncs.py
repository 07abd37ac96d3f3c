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
At each candidate it sums only the splits whose part from the smaller
support is a member of it, found through a bit-sliced containment index;
every split it skips has a zero factor.  A product with only a few splits
in all lists them outright, which is cheaper than building the index.
The two routes are cross-checked in the tests, against an oracle that
lists every split, and the second backs witness checks.  `cofactor` finds
a mate as the kernel vector of the multiplication matrix, solved block by
block over the points of f's support.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from .linalg import IntMatrix, kernel_vector
from .subsets import MAX_GROUND, SetFamily, Subset, columns, ksubsets, members, splits

# Up to this many splits in all, `product_by_splits` lists them: on random
# products of 2-9 points, listing took a median 0.4-0.8 times the index's time up to
# 20 splits and 1.0-1.3 times from 24 on (2-core Xeon, Python 3.11).
FEW_SPLITS = 20


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
    B in supp g, taken in colex order, it sums f(P) * g(Q minus P) over the
    splits of Q.  No other set can be nonzero, since each term of the
    defining sum at Q needs f(P) != 0 and g(Q minus P) != 0.  For the same
    reason only the splits whose part from the smaller support lies in that
    support are summed: if g's support is the smaller, the terms are g(R)
    * f(Q minus R) for the members R of supp g inside Q (f read as zero off
    its support), and likewise with f and g swapped.  Every split left out
    has a zero factor, so the sum is exact.

    The members inside Q come from a bit-sliced index (O'Neil & Quass,
    SIGMOD 1997) built once per call: byte c of the ground gets a table
    whose entry at v is the OR of the smaller support's occ columns
    (`columns`) over the bits of v, the members holding one of those
    elements.  ORing each table's entry at the matching byte of the
    outside of Q gives the members that meet the outside; the rest lie
    inside Q.  A product with at most `FEW_SPLITS` splits in all lists
    them with `splits` instead, since building the index would cost more.
    """
    if f.n != g.n:
        raise ValueError("ground-set mismatch in product")
    fm, gm = f.terms, g.terms
    candidates = sorted({am | bm for am in fm for bm in gm if not am & bm})
    if len(candidates) * comb(f.degree + g.degree, f.degree) <= FEW_SPLITS:
        sums = (
            (q, sum(fm[p] * gm[r] for p, r in splits(q, f.degree) if p in fm and r in gm))
            for q in candidates
        )
    else:
        sums = _indexed_sums(fm, gm, candidates, f.n)
    return SetFunction(f.n, f.degree + g.degree, {q: total for q, total in sums if total})


def _indexed_sums(fm: dict[int, int], gm: dict[int, int], candidates: list[int], n: int):
    """(Q, the split sum at Q) for each candidate Q, through the index."""
    small, big = (fm, gm) if len(fm) <= len(gm) else (gm, fm)
    keys, values = list(small), list(small.values())
    occ = columns(keys, n)
    tables = []
    for shift in range(0, n, 8):
        table = [0]
        for column in occ[shift : shift + 8]:
            table += [t | column for t in table]
        tables.append((shift, table))
    ground = (1 << n) - 1
    everyone = (1 << len(keys)) - 1
    for qmask in candidates:
        outside = ground ^ qmask
        meets = 0
        for shift, table in tables:
            meets |= table[outside >> shift & 255]
        inside = everyone ^ meets
        total = 0
        while inside:
            low = inside & -inside
            inside ^= low
            i = low.bit_length() - 1
            total += values[i] * big.get(qmask ^ keys[i], 0)
        yield qmask, total


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

    g is `kernel_vector(mult_matrix(f, degree).matrix)`: the primitive
    kernel vector of the multiplication matrix M, positive at its first
    nonzero set in colex order.  It is solved block by block.  Let S be
    the union of f's support, s = |S|, and f_S the function f relabelled
    onto S's points in increasing order.  M[Q][B] = f(Q minus B) is
    nonzero only when Q minus S = B minus S, so M is block diagonal by
    O = B minus S.  The block of O is `mult_matrix(f_S, d)` with
    d = degree - |O|, its columns in their order in M.  A column of M is
    free exactly when it is free in its block, and which columns of a
    block are free depends on d only.  The block's first free column is
    the last nonzero entry T_d of its kernel vector, or the lowest d
    points of S when deg f + d > s leaves the block without rows.  So M's
    first free column is the least O_d | T_d, with O_d the lowest
    degree - d points outside S.  M's kernel vector is the one kernel
    vector (up to scale) that is zero past that column, and the block's
    vector placed on O_d is one, so the two are equal.  The product is
    re-checked before returning, which checks this argument.
    """
    if f.is_zero:
        raise ValueError("zero function has every cofactor")
    if degree < 0:
        raise ValueError("source degree must be nonnegative")
    if f.degree + degree > f.n:
        raise ValueError("target degree exceeds ground set")
    inside = 0
    for am in f.terms:
        inside |= am
    points = members(inside)
    outside = members(((1 << f.n) - 1) ^ inside)
    s = len(points)

    def lift(t: int) -> int:
        """The mask on the ground of the mask t on S."""
        return sum(1 << points[i] for i in members(t))

    place = {p: 1 << i for i, p in enumerate(points)}
    f_s = SetFunction(s, f.degree, {sum(place[p] for p in members(am)): v
                                    for am, v in f.terms.items()})
    best = None
    for d in range(max(0, degree - len(outside)), min(degree, s) + 1):
        if f.degree + d > s:
            cols, vec = [(1 << d) - 1], [1]
        else:
            vec = kernel_vector(mult_matrix(f_s, d).matrix)
            if vec is None:
                continue
            while not vec[-1]:
                vec.pop()
            cols = ksubsets(s, d)[: len(vec)]
        o = sum(1 << p for p in outside[: degree - d])
        first = o | lift(cols[-1])
        if best is None or first < best[0]:
            best = first, o, cols, vec
    if best is None:
        return None
    _, o, cols, vec = best
    g = SetFunction(f.n, degree, {o | lift(t): x for t, x in zip(cols, vec) if x})
    if not product(f, g).is_zero:
        raise AssertionError("kernel vector is not a cofactor")
    return g

