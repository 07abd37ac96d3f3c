"""Exact minimum transversals (hitting sets) of finite set families.

Branch and bound over bitsets.  The distinct members are sorted by size
then colex, and occ[e], the int of the indices of the members that
contain element e, comes from one bit transpose of all of them
(`subsets.columns`).  The AND of occ[e] over the elements of a member is
every member containing it, so the members that contain another are dropped
column by column, leaving the minimal ones.  These are then sorted by size,
then by falling busyness (the sum of their elements' degrees among the
minimal members), then colex, and transposed again if a member was dropped
or moved.  When every element has the same degree, as on the block gadgets,
two-squares and `tau1n`, nothing is re-sorted and the order stays colex.
The uncovered members are one int, and choosing e leaves `uncovered &
~occ[e]`.  Each member's count of allowed (unbanned) elements is kept in
unary: below[k] holds the members with fewer than k, and banning e moves
the members of occ[e] down one count, so the members with no, exactly one
and fewest allowed elements are each an AND or two.

The two greedy choices read this order from opposite ends.  A node branches
on the uncovered member with the fewest allowed elements that has the lowest
index, the busiest one: its elements are the likeliest to hit the rest.  It
tries that member's allowed elements busiest first: by falling degree among
the uncovered members, ties going to the lowest index.  It prunes with a
greedy incumbent from above and a disjoint-subfamily packing bound from
below: the packing takes members with pairwise disjoint allowed parts,
fewest allowed elements first and then the highest index, the least busy
one, since a tight member that meets few others rules out fewer of them (the
min-degree greedy for independent sets, Halldorsson & Radhakrishnan,
Algorithmica 1997).  It looks up the members that a member's allowed part
misses in a table keyed by that part, which lives for one `tau` call.
Determinism: the member order is a function of the family alone, with colex
as the last key, and every choice breaks its ties by index, so the reported
witness never depends on hash order.

One each (a bound rule in the style of the d-Hitting-Set rules, Abu-Khzam,
JCSS 2010): at a node where the packing misses pruning by exactly one, a
strictly better transversal adds at most as many elements as the packing
has parts.  The parts are disjoint and each needs one, so such a
transversal takes exactly one allowed element from each part and nothing
else.  A member that meets one part and no other must then hold that part's
element, so each part narrows to the elements all such members hold, until
no part narrows.  An empty part, or an uncovered member meeting no part,
shows the node holds no better transversal, and it is pruned.  This is
exact: the pruned subtrees would never have replaced the incumbent, so the
witness and the root bounds are those of the search without the rule, and
the rule only removes nodes.

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
from itertools import compress, groupby

from .subsets import SetFamily, Subset, columns, members


class NoTransversalError(ValueError):
    pass


@dataclass(frozen=True)
class TransversalResult:
    size: int
    witness: Subset
    nodes_expanded: int
    root_lower_bound: int
    root_upper_bound: int


def is_transversal(mask: int, masks: list[int]) -> bool:
    return all(mask & m for m in masks)


def is_minimal_transversal(mask: int, masks: list[int]) -> bool:
    """True when mask hits every member but no proper subset of it does."""
    return is_transversal(mask, masks) and not any(
        is_transversal(mask ^ 1 << i, masks) for i in members(mask)
    )


def _minimal(masks: list[int], n: int) -> tuple[list[int], list[int]]:
    """The minimal members, by size, then falling busyness, then colex, and
    their occ columns.

    The members holding every element of member j are the AND of occ[e] over
    e in j; all of them but j itself are proper supersets and are dropped.
    Only members below the top size can have one: distinct sets of one size
    never nest.  A member's busyness is the sum of its elements' degrees
    among the minimal members.  When those degrees are all equal, busyness
    follows size and the colex order stands.
    """
    # The dedupe keeps a family's colex order, so the sort is one pass.
    masks = sorted(dict.fromkeys(masks))
    masks.sort(key=int.bit_count)
    occ = columns(masks, n)
    top = masks[-1].bit_count() if masks else 0
    everyone = (1 << len(masks)) - 1
    dropped = 0
    for j, m in enumerate(masks):
        if m.bit_count() == top:
            break
        supersets = everyone ^ 1 << j
        for e in members(m):
            supersets &= occ[e]
        dropped |= supersets
    kept = everyone & ~dropped
    degree = [(column & kept).bit_count() for column in occ]
    if dropped:
        masks = [m for j, m in enumerate(masks) if not dropped >> j & 1]
    if len(set(degree) - {0}) > 1:
        # Stable, so ties keep their colex order.
        masks.sort(key=lambda m: (m.bit_count(), -sum(degree[e] for e in members(m))))
    elif not dropped:
        return masks, occ
    return masks, columns(masks, n)


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _twins(masks: list[int], occ: list[int]) -> list[int]:
    """Mask of each element's twin class (see the module docstring).

    Twins lie in the same number of members, so each element is compared
    only with one representative per class of its degree, a popcount.  For
    such a pair (x, r) the swap fixes the family when every member holding x
    but not r, found from occ, lands on a member.  Most pairs fail on the
    first such member, so it is tried alone before the rest are listed; a
    pair with no such member has equal columns and passes.
    """
    family = set(masks)
    rep = list(range(len(occ)))
    class_mask = [0] * len(occ)
    reps_by_degree: dict[int, list[int]] = {}
    for x, column in enumerate(occ):
        bx = 1 << x
        same_degree = reps_by_degree.setdefault(column.bit_count(), [])
        for r in same_degree:
            swap = bx | 1 << r
            holders = column & ~occ[r]
            if holders and masks[(holders & -holders).bit_length() - 1] ^ swap not in family:
                continue
            # One byte per member index, 1 for the members holding x but not r.
            flags = format(holders, f"0{len(masks)}b")[::-1].encode()
            moved = compress(masks, flags.translate(_DIGIT_VALUES))
            if family.issuperset(map(swap.__xor__, moved)):
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
        counts = [(column & uncovered).bit_count() for column in occ]
        best = counts.index(max(counts))
        chosen |= 1 << best
        uncovered &= ~occ[best]
    for e in members(chosen):
        reduced = chosen ^ 1 << e
        covered = 0
        for f in members(reduced):
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
    if 0 in raw:
        raise NoTransversalError("no transversal exists: family contains the empty set")
    if not raw:
        return TransversalResult(0, Subset(n, 0), 0, 0, 0)
    masks, occ = _minimal(raw, n)
    twins = _twins(masks, occ)
    full = (1 << len(masks)) - 1
    # The members of one size are a run of indices.  below[k] holds the
    # members with fewer than k allowed elements, at first those of size
    # below k: the indices before the first run of size k or more.
    below = [0]
    start = 0
    for size, run in groupby(map(int.bit_count, masks)):
        below += [(1 << start) - 1] * (size + 1 - len(below))
        start += len(list(run))
    below.append(full)
    levels = range(1, len(below) - 1)
    # Keyed by a member's allowed part: the members it does not meet.
    missed: dict[int, int] = {}
    # The allowed parts that the last packing took.
    parts: list[int] = []

    def packing(uncovered: int, below: list[int], banned: int, limit: int) -> int:
        """Size, capped at limit, of a greedy family of members with pairwise
        disjoint allowed parts, fewest allowed elements first, ties going to
        the highest index, the least busy member: each needs one more element
        of any transversal."""
        parts.clear()
        allowed = ~banned
        count = 0
        k = 1
        while uncovered and count < limit:
            # Taking members only removes others, so k never goes back down.
            while not uncovered & below[k]:
                k += 1
            part = masks[(uncovered & below[k]).bit_length() - 1] & allowed
            disjoint = missed.get(part)
            if disjoint is None:
                disjoint = -1
                rest = part
                while rest:
                    low = rest & -rest
                    disjoint &= ~occ[low.bit_length() - 1]
                    rest ^= low
                missed[part] = disjoint
            parts.append(part)
            uncovered &= disjoint
            count += 1
        return count

    def one_each(uncovered: int) -> bool:
        """Whether no choice of one element from each part of the last packing,
        which ran until it covered `uncovered`, hits every uncovered member."""
        hits = [uncovered & ~missed[part] for part in parts]
        while True:
            once = twice = 0
            for hit in hits:
                twice |= once & hit
                once |= hit
            if uncovered & ~once:
                return True
            alone = once & ~twice
            narrowed = False
            for i, part in enumerate(parts):
                # The members meeting part i alone must hold its chosen element.
                need = hits[i] & alone
                if not need:
                    continue
                kept = met = 0
                rest = part
                while rest:
                    low = rest & -rest
                    column = occ[low.bit_length() - 1]
                    if not need & ~column:
                        kept |= low
                        met |= column
                    rest ^= low
                if kept != part:
                    if not kept:
                        return True
                    parts[i] = kept
                    hits[i] = met & uncovered
                    narrowed = True
            if not narrowed:
                return False

    greedy = _greedy_transversal(occ, full)
    root_upper = greedy.bit_count()
    root_lower = packing(full, below, 0, len(masks))
    best_size = root_upper
    best_mask = greedy
    nodes = 0

    def search(uncovered: int, below: list[int], chosen: int, banned: int, nchosen: int) -> None:
        nonlocal best_size, best_mask, nodes
        nodes += 1
        while True:
            if not uncovered:
                if nchosen < best_size:
                    best_size = nchosen
                    best_mask = chosen
                return
            if uncovered & below[1]:
                return
            single = uncovered & below[2]
            if not single:
                break
            forced = 0
            while single:
                low = single & -single
                forced |= masks[low.bit_length() - 1]
                single ^= low
            forced &= ~banned
            chosen |= forced
            nchosen = chosen.bit_count()
            if nchosen >= best_size:
                return
            while forced:
                low = forced & -forced
                uncovered &= ~occ[low.bit_length() - 1]
                forced ^= low
        short = best_size - nchosen - packing(uncovered, below, banned, best_size - nchosen)
        if short <= 0:
            return
        # One short of pruning, the packing ran until it covered everything.
        if short == 1 and one_each(uncovered):
            return
        # The branch member has the fewest allowed elements, at least two
        # here, then the lowest index: the busiest member.
        k = 3
        while not uncovered & below[k]:
            k += 1
        fewest = uncovered & below[k]
        allowed = masks[(fewest & -fewest).bit_length() - 1] & ~banned
        # Its elements by falling degree among the uncovered members, ties
        # going to the lowest index.
        order = []
        rest = allowed
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            order.append((-(occ[e] & uncovered).bit_count(), e))
            rest ^= low
        order.sort()
        new_banned = banned
        below = below[:]
        for _, e in order:
            bit = 1 << e
            # Skip the elements that an earlier branch's twin ban removed.
            if not allowed & bit:
                continue
            search(uncovered & ~occ[e], below, chosen | bit, new_banned, nchosen + 1)
            fresh = twins[e] & ~chosen & ~new_banned
            new_banned |= fresh
            allowed &= ~new_banned
            # The bans only matter to the branches still to come.
            while fresh and allowed:
                low = fresh & -fresh
                hit = occ[low.bit_length() - 1]
                fresh ^= low
                # A member holding the banned element joins below[k] when it
                # had exactly k allowed elements.
                for k in levels:
                    below[k] ^= (below[k] ^ below[k + 1]) & hit

    search(full, below, 0, 0, 0)
    if not is_transversal(best_mask, raw):
        raise AssertionError("search returned a non-transversal")
    if not root_lower <= best_size <= root_upper:
        raise AssertionError("bounds disagree with the optimum")
    return TransversalResult(best_size, Subset(n, best_mask), nodes, root_lower, root_upper)
