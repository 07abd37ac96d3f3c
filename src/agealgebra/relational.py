"""Finite relational structures, isomorphism types, and profiles.

Canonicalization is individualization-refinement (McKay and Piperno,
*Practical graph isomorphism II*, 2014): refine an isomorphism-invariant
ordered colouring of the points, branch by giving one point of a cell a
colour of its own, and keep the least relabelled encoding over the leaves,
skipping points whose swap with an already tried one is an automorphism.
It is exact for bases of at most 8 points.  Results sit in a bounded LRU
cache keyed by the structure, which makes profile sweeps over thousands of
restrictions cheap.  The profile of a structure counts isomorphism types
of its n-point restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

from .subsets import ksubsets, members

MAX_CANON_BASE = 8
CANON_CACHE_SIZE = 1 << 14


class RelStructure:
    """A finite base {0..l-1} with one tuple set per signature symbol.

    The base size, the arities and the tuple entries must be ints (a bool
    is not one): anything else raises TypeError before any range check,
    and nothing is coerced.
    """

    __slots__ = ("base_size", "signature", "relations")

    def __init__(
        self,
        base_size: int,
        signature: Sequence[int],
        relations: Sequence[Iterable[tuple[int, ...]]],
    ):
        sig = tuple(signature)
        rels = [[tuple(t) for t in tuples] for tuples in relations]
        entries = (x for tuples in rels for t in tuples for x in t)
        for value in chain((base_size,), sig, entries):
            if type(value) is not int:
                raise TypeError(f"{value!r} is not an integer")
        if base_size < 0:
            raise ValueError("base size must be nonnegative")
        if any(a < 1 for a in sig):
            raise ValueError("arities must be positive")
        if len(rels) != len(sig):
            raise ValueError("one tuple set per signature symbol required")
        for arity, tuples in zip(sig, rels):
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} does not match arity {arity}")
                if any(not 0 <= x < base_size for x in t):
                    raise ValueError(f"tuple {t} leaves the base")
        self.base_size = base_size
        self.signature = sig
        self.relations = tuple(map(frozenset, rels))

    def encode(self) -> tuple:
        return tuple(tuple(sorted(rel)) for rel in self.relations)

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


def _occurrences(r: RelStructure) -> list[list[tuple]]:
    """Per point x, the triples (relation index, position of x, tuple)."""
    occurrences: list[list[tuple]] = [[] for _ in range(r.base_size)]
    for ri, rel in enumerate(r.relations):
        for t in rel:
            for pos, x in enumerate(t):
                occurrences[x].append((ri, pos, t))
    return occurrences


def _refine(occurrences: list[list[tuple]], colour: list[int]) -> list[int]:
    """The coarsest stable refinement of an ordered colouring, as ranks.

    Each round gives a point x the pair of its colour and the sorted
    multiset of (relation index, position of x, colours of the tuple) over
    the occurrences of x that `occurrences[x]` lists.  New colours are
    ranked by sorting these keys, never by point labels, so the result is
    isomorphism invariant and keeps the order of the cells it splits.
    Rounds stop when none splits a cell or every cell is a single point.
    """
    count = len(set(colour))
    while True:
        get = colour.__getitem__
        keys = [
            (colour[x], tuple(sorted([(ri, pos, tuple(map(get, t))) for ri, pos, t in occ])))
            for x, occ in enumerate(occurrences)
        ]
        ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
        colour = [ranks[key] for key in keys]
        if len(ranks) in (count, len(colour)):
            return colour
        count = len(ranks)


def _twins(r: RelStructure, occurrences: list[list[tuple]], colour: list[int]) -> list[int]:
    """twin[x]: the least point y such that swapping x and y is an
    automorphism of r (x itself when there is none).

    Such swaps compose to swaps, so twins form classes, and x is tested
    only against the least point of each earlier class of its colour in
    the refined `colour`, which automorphisms keep.  A swap moves only the
    tuples through x or y, which `occurrences` lists.
    """
    twin = list(range(r.base_size))
    for x in range(r.base_size):
        for y in range(x):
            if twin[y] != y or colour[y] != colour[x]:
                continue
            swap = {x: y, y: x}
            if all(
                tuple([swap.get(z, z) for z in t]) in r.relations[ri]
                for ri, _, t in occurrences[x] + occurrences[y]
            ):
                twin[x] = y
                break
    return twin


@lru_cache(maxsize=CANON_CACHE_SIZE)
def canonical_form(r: RelStructure) -> tuple:
    """Isomorphism type of r, as (base size, signature, encoding); equal
    types mean isomorphic structures.  Cached, see
    `canonical_form.cache_info()`.

    Individualization-refinement: a node refines its colouring; a discrete
    one is a leaf, read as the labelling x -> colour[x]; otherwise the node
    branches on its first cell of two or more points, giving each point
    in turn a colour of its own just before its cell-mates.  The tree is
    built without reference to labels, so isomorphic structures have the
    same leaf encodings, and the least one (each relation's relabelled
    tuples, sorted) is canonical.  A point whose twin was already tried in
    the same cell is skipped: the swap fixes the individualized points, so
    it maps one subtree onto the other with equal encodings.
    """
    l = r.base_size
    if l > MAX_CANON_BASE:
        raise ValueError("base too large for exhaustive canonicalization")
    occurrences = _occurrences(r)
    twin = None
    best = None

    def search(colour: list[int]) -> None:
        nonlocal twin, best
        colour = _refine(occurrences, colour)
        cell = min((c for c in colour if colour.count(c) > 1), default=None)
        if cell is None:
            enc = tuple(tuple(sorted([tuple([colour[x] for x in t]) for t in rel])) for rel in r.relations)
            best = enc if best is None else min(best, enc)
            return
        if twin is None:  # the first branch is the root's
            twin = _twins(r, occurrences, colour)
        tried = set()
        for x in range(l):
            if colour[x] == cell and twin[x] not in tried:
                tried.add(twin[x])
                search([2 * c + (y != x) for y, c in enumerate(colour)])

    search([0] * l)
    return l, r.signature, best


def type_classes(r: RelStructure, n: int) -> dict[tuple, list[int]]:
    """The n-subsets grouped by the isomorphism type of their restriction.

    Types come in order of first colex occurrence, and each class lists
    its subsets' masks in colex order.  A restriction keeps the tuples whose
    point mask lies inside the subset, re-indexed to 0..n-1 in point
    order; they come from a checked structure, so they are not checked
    again.
    """
    if not 0 <= n <= r.base_size:
        raise ValueError("degree out of range")
    tagged = [[(sum({1 << x for x in t}), t) for t in rel] for rel in r.relations]
    classes: dict[tuple, list[int]] = {}
    for keep in ksubsets(r.base_size, n):
        index = dict(zip(members(keep), range(n)))
        sub = object.__new__(RelStructure)
        sub.base_size, sub.signature = n, r.signature
        sub.relations = tuple(
            frozenset([tuple([index[x] for x in t]) for m, t in rel if m | keep == keep]) for rel in tagged
        )
        classes.setdefault(canonical_form(sub), []).append(keep)
    return classes


def profile(r: RelStructure, n: int) -> int:
    """Number of isomorphism types among restrictions to n-point subsets."""
    return len(type_classes(r, n))


@dataclass
class ProfileReport:
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
    return ProfileReport(values, checks)
