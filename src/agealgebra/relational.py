"""Finite relational structures, isomorphism types, and profiles.

Canonicalization refines an isomorphism-invariant colouring of the points
(the refinement step of McKay and Piperno's individualization-refinement)
and then minimizes the relabelled encoding over the orders that keep each
colour cell in its own block of positions.  It is exact for bases of at
most 8 points; a single cell still costs l! orders.  Results sit in a
bounded LRU cache keyed by the structure, which makes profile sweeps over
thousands of restrictions cheap.  The profile of a structure counts
isomorphism types of its n-point restrictions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product as iproduct
from typing import Iterable, Sequence

from .subsets import Subset, ksubsets

MAX_CANON_BASE = 8
CANON_CACHE_SIZE = 1 << 14


class RelStructure:
    """A finite base {0..l-1} with one tuple set per signature symbol."""

    __slots__ = ("base_size", "signature", "relations")

    def __init__(
        self,
        base_size: int,
        signature: Sequence[int],
        relations: Sequence[Iterable[tuple[int, ...]]],
    ):
        if base_size < 0:
            raise ValueError("base size must be nonnegative")
        sig = tuple(int(a) for a in signature)
        if any(a < 1 for a in sig):
            raise ValueError("arities must be positive")
        if len(relations) != len(sig):
            raise ValueError("one tuple set per signature symbol required")
        rels = []
        for arity, tuples in zip(sig, relations):
            clean = set()
            for t in tuples:
                t = tuple(int(x) for x in t)
                if len(t) != arity:
                    raise ValueError(f"tuple {t} does not match arity {arity}")
                if any(not 0 <= x < base_size for x in t):
                    raise ValueError(f"tuple {t} leaves the base")
                clean.add(t)
            rels.append(frozenset(clean))
        self.base_size = base_size
        self.signature = sig
        self.relations = tuple(rels)

    def encode(self) -> tuple:
        return tuple(tuple(sorted(rel)) for rel in self.relations)

    def restriction(self, points: Subset) -> "RelStructure":
        """Induced substructure, re-indexed to 0..|points|-1 in point order."""
        if points.n != self.base_size:
            raise ValueError("point set is not over this base")
        order = {p: i for i, p in enumerate(points.elements())}
        keep = points.mask
        rels = []
        for rel in self.relations:
            kept = [
                tuple(order[x] for x in t)
                for t in rel
                if all(keep >> x & 1 for x in t)
            ]
            rels.append(kept)
        return RelStructure(len(points), self.signature, rels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelStructure):
            return NotImplemented
        return (
            self.base_size == other.base_size
            and self.signature == other.signature
            and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.base_size, self.signature, self.relations))

    def __repr__(self) -> str:
        counts = ",".join(str(len(r)) for r in self.relations)
        return f"RelStructure(base={self.base_size}, sig={self.signature}, tuples=[{counts}])"


@dataclass(frozen=True)
class IsoType:
    """Canonical encoding of a structure; equal types mean isomorphic structures.

    The encoding is the least relabelled encoding (each relation's tuples,
    sorted) over the orders that send the i-th refined colour cell onto the
    i-th block of consecutive positions.  Isomorphic structures have the
    same cells and hence the same candidate encodings.
    """

    base_size: int
    signature: tuple[int, ...]
    encoding: tuple


def _colour_cells(r: RelStructure) -> list[list[int]]:
    """Points grouped by colour refinement, cells in colour order.

    Starting from one colour, each round gives a point x the pair of its
    colour and the sorted multiset of (relation index, position of x,
    colours of the tuple) over every occurrence of x in a tuple.  New
    colours are ranked by sorting these keys, never by point labels, so
    the cells and their order are isomorphism invariant.  Rounds stop
    when none splits a cell.
    """
    l = r.base_size
    colour = [0] * l
    count = min(l, 1)
    while True:
        occurrences: list[list[tuple]] = [[] for _ in range(l)]
        for ri, rel in enumerate(r.relations):
            for t in rel:
                colours = tuple(colour[x] for x in t)
                for pos, x in enumerate(t):
                    occurrences[x].append((ri, pos, colours))
        keys = [(colour[x], tuple(sorted(occurrences[x]))) for x in range(l)]
        ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
        colour = [ranks[key] for key in keys]
        if len(ranks) == count:
            break
        count = len(ranks)
    cells: list[list[int]] = [[] for _ in range(count)]
    for x in range(l):
        cells[colour[x]].append(x)
    return cells


@lru_cache(maxsize=CANON_CACHE_SIZE)
def canonical_form(r: RelStructure) -> IsoType:
    """Isomorphism type of r; cached, see `canonical_form.cache_info()`."""
    if r.base_size > MAX_CANON_BASE:
        raise ValueError("base too large for exhaustive canonicalization")
    perm = [0] * r.base_size
    best = None
    for orders in iproduct(*(permutations(cell) for cell in _colour_cells(r))):
        pos = 0
        for order in orders:
            for x in order:
                perm[x] = pos
                pos += 1
        enc = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in rel))
            for rel in r.relations
        )
        if best is None or enc < best:
            best = enc
    return IsoType(r.base_size, r.signature, best)


def type_classes(r: RelStructure, n: int) -> dict[IsoType, list[Subset]]:
    """The n-subsets grouped by the isomorphism type of their restriction.

    Types come in order of first colex occurrence, and each class lists
    its subsets in colex order.
    """
    if not 0 <= n <= r.base_size:
        raise ValueError("degree out of range")
    classes: dict[IsoType, list[Subset]] = {}
    for points in ksubsets(r.base_size, n):
        classes.setdefault(canonical_form(r.restriction(points)), []).append(points)
    return classes


def profile(r: RelStructure, n: int) -> int:
    """Number of isomorphism types among restrictions to n-point subsets."""
    return len(type_classes(r, n))


@dataclass
class ProfileReport:
    base_size: int
    values: list[int]
    checks: list[dict]


def check_profile_inequalities(r: RelStructure, upto: int | None = None) -> ProfileReport:
    """Both profile growth laws at every applicable (n, m) with n + m <= upto.

    Ratio law: profile(n) <= (n+1) * profile(n+1) for n < upto.
    Monotone law: profile(n) <= profile(n+m) whenever 2n+m <= base.
    Only degrees up to upto (at most, and by default, the base size) are
    computed.  Every check is recorded with its pass flag; a violation
    would mean the implementation is broken.
    """
    l = r.base_size
    upto = l if upto is None else min(upto, l)
    values = [profile(r, n) for n in range(upto + 1)]
    checks = []
    for n in range(upto):
        lhs, rhs = values[n], (n + 1) * values[n + 1]
        checks.append(
            {"kind": "ratio", "n": n, "m": 1, "lhs": lhs, "rhs": rhs, "pass": lhs <= rhs}
        )
    for n in range(upto + 1):
        for m in range(upto + 1 - n):
            if 2 * n + m > l:
                break
            lhs, rhs = values[n], values[n + m]
            checks.append(
                {"kind": "monotone", "n": n, "m": m, "lhs": lhs, "rhs": rhs, "pass": lhs <= rhs}
            )
    return ProfileReport(l, values, checks)


# JSON input: {base_size, signature, relations}, tuples as index lists.

def _json_int(value) -> int:
    """value itself when it is a JSON integer (a bool is not one)."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def structure_from_dict(data: dict) -> RelStructure:
    """The structure a JSON object describes; the base size, the arities and
    the tuple entries must be integers."""
    return RelStructure(
        _json_int(data["base_size"]),
        [_json_int(a) for a in data["signature"]],
        [[tuple(map(_json_int, t)) for t in rel] for rel in data["relations"]],
    )


def structure_from_json(text: str) -> RelStructure:
    return structure_from_dict(json.loads(text))
