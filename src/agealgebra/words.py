"""Layered ground sets, word codings, shuffles, and leading-term checks.

A layered ground set is F together with V x C for a chain C of columns.
A subset is coded by its F-part plus the word of nonempty column traces
read along the chain.  The radix order on words (length first, then
letterwise) combined with a cardinality-descending order on F-parts turns
codes into the leading-term device: the lead of a product of two suitably
invariant functions is the max shuffle of their leads, and in particular
the product cannot vanish.  `leading_product_check(f, g, layered)` reads
the sign colors of the pair from f and g themselves; the lead of the zero
function is None.  A word function is a `dict[Word, int]`: its values are
integers, as a set function's are, since scaling by a nonzero integer
changes no lead.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .setfuncs import SetFunction, product
from .subsets import MAX_GROUND, ksubsets, members


def letter_key(mask: int) -> tuple[int, int]:
    """Alphabet order on nonempty subsets of V: cardinality, then mask."""
    return (mask.bit_count(), mask)


class Word:
    """Sequence of letters; each letter a nonempty bitmask over V."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        ls = tuple(int(x) for x in letters)
        if any(x <= 0 for x in ls):
            raise ValueError("letters must be nonempty masks")
        self.letters = ls

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def sort_key(self) -> tuple:
        return (len(self.letters), tuple(letter_key(x) for x in self.letters))

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        body = ",".join("{" + ",".join(map(str, members(x))) + "}" for x in self.letters)
        return f"Word({body})"


def shuffle(u: Word, positions: Iterable[int], v: Word) -> Word:
    """The word of length |u|+|v| carrying u at the given positions, in
    order, and v at the remaining positions."""
    pos = sorted(set(int(p) for p in positions))
    total = len(u) + len(v)
    if len(pos) != len(u):
        raise ValueError("position count must equal |u|")
    if pos and (pos[0] < 0 or pos[-1] >= total):
        raise ValueError("positions leave the result word")
    out: list[int | None] = [None] * total
    for letter, p in zip(u.letters, pos):
        out[p] = letter
    vi = iter(v.letters)
    for i in range(total):
        if out[i] is None:
            out[i] = next(vi)
    return Word(out)


def max_shuffle(u: Word, v: Word) -> Word:
    """Lexicographically largest interleaving of u and v.

    All interleavings have length |u|+|v|, so radix order among them is
    letterwise `letter_key` order.  The merge is built greedily: the next
    letter comes from whichever remaining suffix is larger as a plain
    tuple of `letter_key`s, where a proper prefix is smaller (not by
    `Word.sort_key`, which would put the shorter suffix first).
    """
    a = [letter_key(x) for x in u.letters]
    b = [letter_key(x) for x in v.letters]
    i = j = 0
    out = []
    while i < len(a) and j < len(b):
        if a[i:] >= b[j:]:
            out.append(u.letters[i])
            i += 1
        else:
            out.append(v.letters[j])
            j += 1
    return Word(out + list(u.letters[i:]) + list(v.letters[j:]))


class Code(NamedTuple):
    """The code w(Q) of a subset Q: its F-part and its column word.

    Tuple order is code order: F-parts first (cardinality DESCENDING, ties
    by mask, so the empty F-part is the largest), then words in radix
    order.  The word itself breaks no tie, since equal radix keys mean
    equal words.
    """

    f_rank: int
    f_mask: int
    radix: tuple
    word: Word


def make_code(f_mask: int, word: Word) -> Code:
    """The code with this F-part and column word."""
    return Code(-f_mask.bit_count(), f_mask, word.sort_key(), word)


class LayeredGround:
    """Ground set F plus V x C, flattened as F first, then (v, c) with the
    chain position as the major index."""

    __slots__ = ("f_size", "v_size", "chain_size")

    def __init__(self, f_size: int, v_size: int, chain_size: int):
        if f_size < 0 or v_size < 1 or chain_size < 0:
            raise ValueError("need nonnegative F, nonempty V, nonnegative chain")
        if f_size + v_size * chain_size > MAX_GROUND:
            raise ValueError(f"flat ground set exceeds {MAX_GROUND} points")
        self.f_size = f_size
        self.v_size = v_size
        self.chain_size = chain_size

    @property
    def flat_size(self) -> int:
        return self.f_size + self.v_size * self.chain_size

    def column_letter(self, q_mask: int, c: int) -> int:
        return q_mask >> (self.f_size + c * self.v_size) & ((1 << self.v_size) - 1)


def code(q_mask: int, layered: LayeredGround) -> Code:
    """F-part and column-trace word of a flat subset, empty columns skipped."""
    letters = []
    for c in range(layered.chain_size):
        letter = layered.column_letter(q_mask, c)
        if letter:
            letters.append(letter)
    return make_code(q_mask & ((1 << layered.f_size) - 1), Word(letters))


def lead(f: SetFunction, layered: LayeredGround) -> Code | None:
    """Largest code in the support; None for the zero function."""
    return max((code(s, layered) for s in f.terms), default=None)


def code_classes(layered: LayeredGround, degree: int) -> dict[Code, list[int]]:
    """The masks of the degree-subsets of the flat ground, grouped by code.

    Codes come in order of first colex occurrence, and each class lists
    its masks in colex order.
    """
    classes: dict[Code, list[int]] = {}
    for s in ksubsets(layered.flat_size, degree):
        classes.setdefault(code(s, layered), []).append(s)
    return classes


def code_determined(f: SetFunction, layered: LayeredGround) -> bool:
    """Whether f takes equal values on subsets with equal codes; this is
    the working form of invariance for structures on a layered ground."""
    return all(
        len({f.value(s) for s in cls}) == 1 for cls in code_classes(layered, f.degree).values()
    )


class HypothesisError(ValueError):
    def __init__(self, hypothesis: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis failed: {hypothesis}")


def leading_product_check(f: SetFunction, g: SetFunction, layered: LayeredGround) -> dict[str, bool]:
    """Verify the leading-term equations on a concrete invariant pair.

    Hypotheses checked up front (each failure raises HypothesisError):
    both functions are determined by codes, the chain is at least as long
    as the total degree, and f has support clear of F.  Together these
    make the signs of f and g invariant at every chain size: mapping r
    columns onto r others in order keeps each subset's F-part and column
    word, hence its code, hence its values.  Returns each check by name.
    """
    if f.n != layered.flat_size or g.n != layered.flat_size:
        raise ValueError("functions are not over this layered ground")
    if f.is_zero or g.is_zero:
        raise ValueError("functions must be nonzero")
    if layered.chain_size < f.degree + g.degree:
        raise HypothesisError("chain_at_least_total_degree")
    if not code_determined(f, layered):
        raise HypothesisError("f_code_determined")
    if not code_determined(g, layered):
        raise HypothesisError("g_code_determined")
    fm, gm = f.terms, g.terms
    f_all = (1 << layered.f_size) - 1
    if not any(a & f_all == 0 for a in fm):
        raise HypothesisError("f_support_meets_pure_columns")

    pairs = [(a, b) for a in fm for b in gm if not a & b]
    checks: dict[str, bool] = {"support_pairs_nonempty": bool(pairs)}
    if not pairs:
        return checks

    q0 = max((a | b for a, b in pairs), key=lambda q: code(q, layered))
    splitters = sorted((a, b) for a, b in pairs if a | b == q0)
    a0, b0 = splitters[0]
    lead_f = lead(f, layered)
    lead_g = lead(g, layered)
    checks["lead_f_avoids_f_part"] = a0 & f_all == 0
    checks["splitter_codes_are_leads"] = all(
        code(a, layered) == lead_f and code(b, layered) == lead_g for a, b in splitters
    )
    checks["splitter_values_constant"] = all(
        (fm[a], gm[b]) == (fm[a0], gm[b0]) for a, b in splitters
    )
    prod = product(f, g)
    at_q0 = prod.value(q0)
    checks["value_at_q0_is_count_times_leads"] = at_q0 == len(splitters) * fm[a0] * gm[b0]
    lead_prod = lead(prod, layered)
    checks["product_lead_is_best_pair_code"] = lead_prod == code(q0, layered)
    top = max_shuffle(code(a0, layered).word, code(b0, layered).word)
    checks["product_lead_is_max_shuffle_of_leads"] = lead_prod == make_code(q0 & f_all, top)
    checks["product_nonzero_at_q0"] = at_q0 != 0
    checks["product_nonzero"] = not prod.is_zero
    return checks


def shuffle_product(f: Mapping[Word, int], g: Mapping[Word, int]) -> dict[Word, int]:
    """Sum of f(u) g(v) over every interleaving of every support pair, as a
    dict without zero values."""
    out: dict[Word, int] = {}
    for u, fu in f.items():
        for v, gv in g.items():
            c = fu * gv
            for pos in combinations(range(len(u) + len(v)), len(u)):
                w = shuffle(u, pos, v)
                out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def code_blind_function(
    layered: LayeredGround, degree: int, seed: int, need_pure_column_support: bool = False
) -> SetFunction:
    """Random nonzero function whose value depends only on the code.

    Such functions are invariant by construction.  Optionally forces some
    support on subsets disjoint from F (a hypothesis of the leading-term
    equations)."""
    rng = random.Random(seed)
    classes = code_classes(layered, degree)
    values = {c: rng.choice((-1, 0, 0, 1)) for c in classes}
    terms = dict(sorted((s, v) for c, v in values.items() if v for s in classes[c]))

    def force_class(pure_columns: bool) -> None:
        target = next((c for c in classes if not pure_columns or c.f_mask == 0), None)
        if target is None:
            raise ValueError("no subset matches the forced class")
        terms.update(dict.fromkeys(classes[target], 1))

    if need_pure_column_support and not any(c.f_mask == 0 and v for c, v in values.items()):
        force_class(True)
    if not terms:
        force_class(False)
    return SetFunction(layered.flat_size, degree, terms)
