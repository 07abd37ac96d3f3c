"""Bit-mask subsets of a bounded ground set, and their enumeration.

The ground set is always {0, ..., n-1} with n <= 64.  A subset is an
integer bitmask, so the colexicographic order on k-subsets is plain
integer comparison of masks and enumeration in that order is Gosper's hack;
`ksubsets` lists the masks.
Set operations are int operations on masks, and `members` lists a mask's
elements.  `columns` transposes a list of masks into one int per element,
the bit index that `hitting` and the split sums of `setfuncs` search.
`Subset` (a ground size and a mask) and `SetFamily` (distinct Subsets in
colex order) are records that carry `tau`'s family and witness.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

MAX_GROUND = 64


def members(mask: int) -> list[int]:
    """The elements of the set with this mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Subset:
    """A subset of {0, ..., n-1} as a record: its ground size and its mask.

    It is a member of `tau`'s family and its witness; set operations read
    `mask`.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground size must be in 0..{MAX_GROUND}, got {n}")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} has bits outside 0..{n - 1}")
        self.n = n
        self.mask = mask

    def __repr__(self) -> str:
        return f"Subset({members(self.mask)}, n={self.n})"


def ksubsets(ground_size: int, k: int) -> list[int]:
    """The masks of all k-subsets of {0..ground_size-1}, in colex
    (ascending) order.

    k > ground_size or k < 0 gives the empty list, not an error.
    """
    if not 0 <= ground_size <= MAX_GROUND:
        raise ValueError(f"ground size must be in 0..{MAX_GROUND}")
    if k < 0 or k > ground_size:
        return []
    if k == 0:
        return [0]
    out = []
    m = (1 << k) - 1
    limit = 1 << ground_size
    while m < limit:
        out.append(m)
        # Gosper's hack: next-larger integer with the same popcount
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return out


def columns(masks: list[int], n: int) -> list[int]:
    """occ[e] for each e < n: the int of the indices of the members holding e.

    One bit transpose.  Packed w bits apiece into one int, the members print
    as a single binary string in which member i's bit e is the character at
    (len(masks) - 1 - i) * w + w - 1 - e, so the stride-w slice from w - 1 - e
    spells occ[e] from its top bit down.
    """
    if not masks:
        return [0] * n
    w = -(-n // 8)
    packed = int.from_bytes(b"".join([m.to_bytes(w, "little") for m in masks]), "little")
    digits = format(packed, f"0{len(masks) * w * 8}b")
    w *= 8
    return [int(digits[w - 1 - e :: w], 2) for e in range(n)]


def splits(qmask: int, m: int) -> list[tuple[int, int]]:
    """All ordered splits of the set with mask qmask into (P, Q minus P)
    with |P| = m, as masks.

    Returns all C(|Q|, m) pairs; the second mask is the exact complement
    of the first inside Q.  `setfuncs.product_by_splits` lists the splits
    of products too small for its index this way, and the tests' oracle
    lists every split of every set.
    """
    if qmask < 0:
        raise ValueError(f"mask {qmask} is negative")
    bits = []
    rest = qmask
    while rest:
        low = rest & -rest
        bits.append(low)
        rest ^= low
    if m < 0 or m > len(bits):
        return []
    return [(p, qmask ^ p) for p in map(sum, combinations(bits, m))]


class SetFamily:
    """A finite family of distinct subsets sharing one ground set.

    Members are kept sorted in colex order, so `sets` and `masks()` are
    deterministic.
    """

    __slots__ = ("n", "sets")

    def __init__(self, n: int, sets: Iterable[Subset]):
        seen: set[int] = set()
        out = []
        for s in sets:
            if s.n != n:
                raise ValueError("ground-set mismatch inside family")
            if s.mask in seen:
                raise ValueError(f"duplicate subset {s!r} in family")
            seen.add(s.mask)
            out.append(s)
        out.sort(key=lambda s: s.mask)
        self.n = n
        self.sets = tuple(out)

    def masks(self) -> list[int]:
        return [s.mask for s in self.sets]

    def union(self, other: "SetFamily") -> "SetFamily":
        if self.n != other.n:
            raise ValueError("ground-set mismatch between families")
        return SetFamily(self.n, {s.mask: s for s in self.sets + other.sets}.values())

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, {len(self.sets)} sets)"
