"""Bit-vector subsets of a bounded ground set, and their enumeration.

The ground set is always {0, ..., n-1} with n <= 64.  A subset is stored
as an integer bitmask, so the colexicographic order on k-subsets is plain
integer comparison of masks and enumeration in that order is Gosper's hack.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

MAX_GROUND = 64


class Subset:
    """Immutable subset of {0, ..., n-1} backed by a bitmask.

    Equality and hashing look at the member set only; the ground size is
    carried along for complementation and enumeration.  Ordering (``<``)
    is colexicographic, which on bitmasks is integer comparison.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if not 0 <= n <= MAX_GROUND:
            raise ValueError(f"ground size must be in 0..{MAX_GROUND}, got {n}")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} has bits outside 0..{n - 1}")
        self.n = n
        self.mask = mask

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "Subset":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside ground set of size {n}")
            mask |= 1 << i
        return cls(n, mask)

    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "Subset") -> bool:
        return self.mask < other.mask

    def complement(self) -> "Subset":
        return Subset(self.n, ~self.mask & ((1 << self.n) - 1))

    def __repr__(self) -> str:
        return f"Subset({list(self.elements())}, n={self.n})"


def ksubsets(ground_size: int, k: int) -> list[Subset]:
    """All k-subsets of {0..ground_size-1} in colex (ascending mask) order.

    k > ground_size or k < 0 gives the empty list, not an error.
    """
    if not 0 <= ground_size <= MAX_GROUND:
        raise ValueError(f"ground size must be in 0..{MAX_GROUND}")
    if k < 0 or k > ground_size:
        return []
    if k == 0:
        return [Subset(ground_size, 0)]
    out = []
    m = (1 << k) - 1
    limit = 1 << ground_size
    while m < limit:
        out.append(Subset(ground_size, m))
        # Gosper's hack: next-larger integer with the same popcount
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r
    return out


def splits(qmask: int, m: int) -> list[tuple[int, int]]:
    """All ordered splits of the set with mask qmask into (P, Q minus P)
    with |P| = m, as masks.

    Returns all C(|Q|, m) pairs; the second mask is the exact complement
    of the first inside Q.
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

    Members are kept sorted in colex order, so iteration is deterministic.
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

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.sets)

    def __contains__(self, s: Subset) -> bool:
        return isinstance(s, Subset) and any(t.mask == s.mask for t in self.sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self.n == other.n and self.sets == other.sets

    def masks(self) -> list[int]:
        return [s.mask for s in self.sets]

    def union(self, other: "SetFamily") -> "SetFamily":
        if self.n != other.n:
            raise ValueError("ground-set mismatch between families")
        merged = {s.mask: s for s in self.sets}
        for s in other.sets:
            merged.setdefault(s.mask, s)
        return SetFamily(self.n, merged.values())

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, {len(self.sets)} sets)"
