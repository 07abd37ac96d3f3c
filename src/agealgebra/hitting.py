"""Exact minimum transversals (hitting sets) of finite set families.

Branch and bound over bitmasks: each node carries a set of chosen elements
and a set of banned elements, branches on an uncovered member with the
fewest allowed elements, and prunes with a greedy incumbent from above and
a disjoint-subfamily packing bound from below.  Determinism: members are
scanned in colex order and elements in increasing index order, so the
reported witness never depends on hash order.

Symmetry (orbital branching, Ostrowski, Linderoth, Rossi & Smriglio, Math.
Prog. 2011): elements x and y are twins when the transposition (x y) maps
the minimal members onto themselves, that is when {M - x : x in M, y not
in M} equals {M - y : y in M, x not in M}.  A product of transpositions is
again an automorphism, so twinhood is an equivalence; its classes are
computed once at the root.  After the branch that chooses x, the later
branches ban x's whole class outside the chosen set, not just x.  This is
exact: for a free y twin to x, (x y) fixes the chosen and the banned sets,
so it maps any transversal of the node that takes y but not x to one of
the same size that takes x, which the branch of x already explored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .subsets import SetFamily, Subset


class NoTransversalError(ValueError):
    pass


@dataclass(frozen=True)
class TransversalResult:
    size: int
    witness: Subset
    nodes_expanded: int
    root_lower_bound: int
    root_upper_bound: int


def is_transversal(candidate: Subset, family: SetFamily) -> bool:
    if candidate.n != family.n:
        raise ValueError("ground-set mismatch")
    cm = candidate.mask
    return all(cm & s.mask for s in family.sets)


def is_minimal_transversal(candidate: Subset, family: SetFamily) -> bool:
    """True when candidate hits everything but no proper subset does."""
    if not is_transversal(candidate, family):
        return False
    cm = candidate.mask
    masks = family.masks()
    for i in candidate.elements():
        reduced = cm & ~(1 << i)
        if all(reduced & m for m in masks):
            return False
    return True


def _minimal_members(masks: list[int]) -> list[int]:
    """Drop any member that contains another; hitting the rest hits it too.

    Members come out by size, then colex.  Each is tested only against the
    kept members of strictly smaller size: distinct sets of one size never
    nest.
    """
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    smaller: list[int] = []
    size = -1
    for m in masks:
        if m.bit_count() != size:
            size, smaller = m.bit_count(), kept[:]
        if not any(k & m == k for k in smaller):
            kept.append(m)
    return kept


def _twin_classes(masks: list[int], ground_size: int) -> list[int]:
    """Mask of each element's twin class (see the module docstring).

    Twins lie in the same number of members, so each element is compared
    only with one representative per class of its degree.
    """
    containing: list[list[int]] = [[] for _ in range(ground_size)]
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            containing[low.bit_length() - 1].append(m)
            rest ^= low
    rep = list(range(ground_size))
    class_mask = [0] * ground_size
    reps_by_degree: dict[int, list[int]] = {}
    for x in range(ground_size):
        bx = 1 << x
        same_degree = reps_by_degree.setdefault(len(containing[x]), [])
        for r in same_degree:
            br = 1 << r
            if {m ^ bx for m in containing[x] if not m & br} == {
                m ^ br for m in containing[r] if not m & bx
            }:
                rep[x] = r
                break
        else:
            same_degree.append(x)
        class_mask[rep[x]] |= bx
    return [class_mask[r] for r in rep]


def _greedy_transversal(masks: list[int], ground_size: int) -> int:
    """Greedy cover (max coverage, lowest index on ties), then pruned."""
    chosen = 0
    uncovered = list(masks)
    while uncovered:
        counts = [0] * ground_size
        for m in uncovered:
            while m:
                low = m & -m
                counts[low.bit_length() - 1] += 1
                m ^= low
        best = max(range(ground_size), key=lambda i: (counts[i], -i))
        chosen |= 1 << best
        uncovered = [m for m in uncovered if not m >> best & 1]
    for i in range(ground_size):
        bit = 1 << i
        if chosen & bit:
            reduced = chosen ^ bit
            if all(reduced & m for m in masks):
                chosen = reduced
    return chosen


def _packing_bound(uncovered: list[int], banned: int) -> int:
    """Size of a greedy family of pairwise disjoint allowed parts.

    Any transversal needs one fresh element per member of a disjoint
    subfamily, so this lower-bounds the number of elements still missing.
    """
    used = 0
    count = 0
    for m in uncovered:
        a = m & ~banned
        if not a & used:
            count += 1
            used |= a
    return count


def tau(family: SetFamily) -> TransversalResult:
    """Exact minimum transversal size with an optimal witness.

    Raises NoTransversalError when the family contains the empty set.
    The empty family has the empty transversal.
    """
    n = family.n
    raw = family.masks()
    if any(m == 0 for m in raw):
        raise NoTransversalError("no transversal exists: family contains the empty set")
    if not raw:
        return TransversalResult(0, Subset(n, 0), 0, 0, 0)
    masks = _minimal_members(raw)
    twins = _twin_classes(masks, n)
    greedy = _greedy_transversal(masks, n)
    root_upper = greedy.bit_count()
    root_lower = _packing_bound(masks, 0)
    best_size = root_upper
    best_mask = greedy
    nodes = 0

    def search(uncovered: list[int], chosen: int, banned: int, nchosen: int) -> None:
        nonlocal best_size, best_mask, nodes
        nodes += 1
        while True:
            if not uncovered:
                if nchosen < best_size:
                    best_size = nchosen
                    best_mask = chosen
                return
            forced = 0
            for m in uncovered:
                a = m & ~banned
                if a == 0:
                    return
                if a & (a - 1) == 0:
                    forced |= a
            if not forced:
                break
            chosen |= forced
            nchosen = chosen.bit_count()
            if nchosen >= best_size:
                return
            uncovered = [m for m in uncovered if not m & chosen]
        if nchosen + _packing_bound(uncovered, banned) >= best_size:
            return
        branch = min(uncovered, key=lambda m: ((m & ~banned).bit_count(), m))
        allowed = branch & ~banned
        new_banned = banned
        while allowed:
            bit = allowed & -allowed
            sub = [m for m in uncovered if not m & bit]
            search(sub, chosen | bit, new_banned, nchosen + 1)
            new_banned |= twins[bit.bit_length() - 1] & ~chosen
            allowed &= ~new_banned

    search(masks, 0, 0, 0)
    witness = Subset(n, best_mask)
    if not is_transversal(witness, family):
        raise AssertionError("search returned a non-transversal")
    if not root_lower <= best_size <= root_upper:
        raise AssertionError("bounds disagree with the optimum")
    return TransversalResult(best_size, witness, nodes, root_lower, root_upper)
