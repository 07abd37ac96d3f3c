"""Exact minimum transversals (hitting sets) of finite set families.

Branch and bound over bitsets.  The minimal members are indexed by size,
then colex; occ[e] is the int of the indices of the members that contain
element e.  The uncovered members are one int, and choosing e leaves
`uncovered & ~occ[e]`.  Each member's count of allowed (unbanned) elements
is kept bit-sliced: plane k holds bit k of every count, and banning e
subtracts occ[e] with a borrow ripple, so the members with no, exactly one
and fewest allowed elements are each a few ANDs over the planes.  A node
branches on an uncovered member with the fewest allowed elements, ties
going to the smallest mask (the lowest index of each size group, then the
smallest of those), and prunes with a greedy incumbent from above and a
disjoint-subfamily packing bound from below.  Determinism: members are
scanned in index order and elements in increasing index order, so the
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


def _elements(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        for e in _elements(m):
            containing[e].append(m)
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


def _greedy_transversal(occ: list[int], full: int) -> int:
    """Greedy cover (max coverage, lowest index on ties), then pruned."""
    chosen = 0
    uncovered = full
    while uncovered:
        best = max(range(len(occ)), key=lambda i: ((occ[i] & uncovered).bit_count(), -i))
        chosen |= 1 << best
        uncovered &= ~occ[best]
    for e in _elements(chosen):
        reduced = chosen ^ 1 << e
        covered = 0
        for f in _elements(reduced):
            covered |= occ[f]
        if covered == full:
            chosen = reduced
    return chosen


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
    elems = [tuple(_elements(m)) for m in masks]
    occ = [0] * n
    size_groups: dict[int, int] = {}
    # planes[k] holds bit k of every member's count of allowed elements.
    planes = [0] * len(elems[-1]).bit_length()
    for i, es in enumerate(elems):
        for e in es:
            occ[e] |= 1 << i
        size_groups[len(es)] = size_groups.get(len(es), 0) | 1 << i
        for k in range(len(planes)):
            planes[k] |= (len(es) >> k & 1) << i
    full = (1 << len(masks)) - 1

    def packing(uncovered: int, banned: int, limit: int) -> int:
        """Size, capped at limit, of a greedy family of members with pairwise
        disjoint allowed parts, taken in index order: each needs one more
        element of any transversal."""
        count = 0
        while uncovered and count < limit:
            i = (uncovered & -uncovered).bit_length() - 1
            count += 1
            for e in elems[i]:
                if not banned >> e & 1:
                    uncovered &= ~occ[e]
        return count

    greedy = _greedy_transversal(occ, full)
    root_upper = greedy.bit_count()
    root_lower = packing(full, 0, len(masks))
    best_size = root_upper
    best_mask = greedy
    nodes = 0

    def search(uncovered: int, planes: list[int], chosen: int, banned: int, nchosen: int) -> None:
        nonlocal best_size, best_mask, nodes
        nodes += 1
        high = 0
        for p in planes[1:]:
            high |= p
        while True:
            if not uncovered:
                if nchosen < best_size:
                    best_size = nchosen
                    best_mask = chosen
                return
            if uncovered & ~(planes[0] | high):
                return
            single = uncovered & planes[0] & ~high
            if not single:
                break
            forced = 0
            for i in _elements(single):
                forced |= masks[i]
            forced &= ~banned
            chosen |= forced
            nchosen = chosen.bit_count()
            if nchosen >= best_size:
                return
            for e in _elements(forced):
                uncovered &= ~occ[e]
        if nchosen + packing(uncovered, banned, best_size - nchosen) >= best_size:
            return
        # Fewest allowed elements: keep the members whose count is minimal
        # bit by bit from the top plane down.
        fewest = uncovered
        for p in reversed(planes):
            if fewest & ~p:
                fewest &= ~p
        # Then the smallest mask: the lowest index within each size group.
        branch = min(
            masks[(low & -low).bit_length() - 1]
            for low in (fewest & g for g in size_groups.values())
            if low
        )
        allowed = branch & ~banned
        new_banned = banned
        planes = planes[:]
        while allowed:
            bit = allowed & -allowed
            e = bit.bit_length() - 1
            search(uncovered & ~occ[e], planes, chosen | bit, new_banned, nchosen + 1)
            fresh = twins[e] & ~chosen & ~new_banned
            new_banned |= fresh
            allowed &= ~new_banned
            for f in _elements(fresh):
                borrow = occ[f]
                for k, p in enumerate(planes):
                    planes[k] = p ^ borrow
                    borrow &= ~p
                    if not borrow:
                        break

    search(full, planes, 0, 0, 0)
    witness = Subset(n, best_mask)
    if not is_transversal(witness, family):
        raise AssertionError("search returned a non-transversal")
    if not root_lower <= best_size <= root_upper:
        raise AssertionError("bounds disagree with the optimum")
    return TransversalResult(best_size, witness, nodes, root_lower, root_upper)
