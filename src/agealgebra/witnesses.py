"""Explicit zero-divisor pairs, their certificates, and symbolic bounds.

Constructions:
  * gadget_tau1n: the signed transversal pair on 2n points whose support
    needs all 2n elements to hit, matching the exact value tau(1,n) = 2n.
  * gadget_full_support: a mate for the all-ones degree-1 function that is
    nonzero on every n-subset of a 2n-point ground set, in closed form
    g(S) = L / prod_{y in S, t not in S} (t - y) with L the lcm of the
    products, so every value is an integer.
  * gadget_lower: the block direct sum realizing the general lower bound
    (m+1)(n+1) - 2 on a ground set of 2nm points.
  * two_squares: the degree-(2,2) pair on 8 points with transversality 7.

Verification recomputes the product by the defining split sums on unions
of disjoint support members (not by the constructors' support convolution)
and runs the exact transversal solver on the union of supports, so a
certificate never depends on the code path that built the witness.  A
certificate holds the pair and its minimum transversal; callers compare
its size with their own expected value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from math import comb, gcd, lcm, prod

from .hitting import TransversalResult, tau
from .setfuncs import SetFunction, cofactor, product, product_by_splits, singleton_ones
from .subsets import MAX_GROUND, ksubsets, members


class NotAZeroDivisorPairError(ValueError):
    def __init__(self, offending: int, value: int):
        self.offending = offending
        self.value = value
        super().__init__(f"product is {value} at {members(offending)}, expected 0")


@dataclass(frozen=True)
class WitnessPair:
    """Two nonzero functions whose product vanishes identically."""

    f: SetFunction
    g: SetFunction


@dataclass(frozen=True)
class WitnessCertificate:
    pair: WitnessPair
    transversal: TransversalResult


def pair_index(half: int, column: int) -> int:
    """Flat index of grid point (half, column): columns are consecutive pairs."""
    return 2 * column + half


def gadget_tau1n(n: int) -> WitnessPair:
    """Signed pair on 2n points: one element per column pair, sign by the
    parity of bottom-half picks.  Together with the all-ones degree-1
    function this realizes transversality exactly 2n."""
    if n < 1:
        raise ValueError("need at least one column")
    ground = 2 * n
    terms: dict[int, int] = {}
    for picks in range(1 << n):
        mask = 0
        bottoms = 0
        for col in range(n):
            half = picks >> col & 1
            mask |= 1 << pair_index(half, col)
            if half == 0:
                bottoms += 1
        terms[mask] = -1 if bottoms & 1 else 1
    return WitnessPair(singleton_ones(ground), SetFunction(ground, n, terms))


def gadget_full_support(n: int) -> SetFunction:
    """A degree-n mate for the all-ones function, nonzero on every n-subset.

    g(S) = L / prod_{y in S, t not in S} (t - y) on the points 0..2n-1,
    where L is the lcm of the products.  For an (n+1)-set Q with complement
    C, g(Q - x) is, up to a factor free of x, prod_{c in C} (c - x) /
    prod_{y in Q - x} (x - y); summed over x in Q that is the n-th divided
    difference over Q of a polynomial of degree n - 1, hence zero.  The
    points are distinct, so no value vanishes.
    """
    if n < 1:
        raise ValueError("need at least one column")
    ground = 2 * n
    full = (1 << ground) - 1
    dens = {s: prod(t - y for y in members(s) for t in members(full ^ s))
            for s in ksubsets(ground, n)}
    scale = lcm(*dens.values())
    g = SetFunction(ground, n, {s: scale // d for s, d in dens.items()})
    if not product(singleton_ones(ground), g).is_zero:
        raise AssertionError("closed-form mate is not killed by the all-ones function")
    return g


def _embed(f: SetFunction, ground: int, offset: int) -> SetFunction:
    """Shift a function onto indices [offset, offset + f.n) of a larger ground."""
    if offset < 0 or offset + f.n > ground:
        raise ValueError("window does not fit in the ground set")
    return SetFunction(ground, f.degree, {k << offset: v for k, v in f.terms.items()})


def gadget_lower(m: int, n: int) -> WitnessPair:
    """Block direct sum on 2nm points realizing tau = (m+1)(n+1) - 2.

    f is the indicator of m-subsets meeting every one of the m blocks of
    size 2n, built as the choices of one point per block in colex order;
    g places a full-support mate inside each block.  Hitting the union of
    supports forces one whole block plus n+1 points in each other block:
    2n + (n+1)(m-1) elements.
    """
    if m < 1 or n < 1:
        raise ValueError("need positive degrees")
    ground = 2 * n * m
    if ground > MAX_GROUND:
        raise ValueError(f"ground set exceeds {MAX_GROUND} points")
    blocks = [[1 << (2 * n * i + j) for j in range(2 * n)] for i in range(m)]
    f_masks = sorted(sum(picks) for picks in iproduct(*blocks))
    inner = gadget_full_support(n).terms
    g = {k << 2 * n * i: v for i in range(m) for k, v in inner.items()}
    return WitnessPair(SetFunction(ground, m, dict.fromkeys(f_masks, 1)), SetFunction(ground, n, g))


def lower_bound_formula(m: int, n: int) -> int:
    return (m + 1) * (n + 1) - 2


def two_squares() -> WitnessPair:
    """The 8-point pair of degree (2, 2): sides at -1 and diagonals at 2
    inside each square, against the indicator of cross pairs.

    Every pair of points lands in one support or the other, so the
    transversality of the union is 7, witnessed by the 8 complements of a
    single point.
    """
    ground = 8
    squares = [(0, 1, 2, 3), (4, 5, 6, 7)]
    f_terms: dict[int, int] = {}
    for a, b, c, d in squares:
        for x, y in ((a, b), (b, c), (c, d), (d, a)):
            f_terms[1 << x | 1 << y] = -1
        for x, y in ((a, c), (b, d)):
            f_terms[1 << x | 1 << y] = 2
    g_terms = {1 << x | 1 << y: 1 for x in squares[0] for y in squares[1]}
    return WitnessPair(SetFunction(ground, 2, f_terms), SetFunction(ground, 2, g_terms))


def verify(pair: WitnessPair) -> WitnessCertificate:
    """Re-check a pair from scratch and return it with a minimum
    transversal of the union of its supports.

    The product is recomputed by the defining split sums on the candidate
    sets A ∪ B (disjoint A in supp f, B in supp g), the only sets where it
    can be nonzero; the first set with a nonzero value (in colex order) is
    reported on failure.
    """
    f, g = pair.f, pair.g
    if f.is_zero or g.is_zero:
        raise ValueError("witness functions must be nonzero")
    fg = product_by_splits(f, g)
    if not fg.is_zero:
        offender = min(fg.terms)
        raise NotAZeroDivisorPairError(offender, fg.terms[offender])
    return WitnessCertificate(pair, tau(f.support().union(g.support())))


# Symbolic upper bound.  The recurrence gives an integer combination of
# Ramsey numbers for colorings of r-tuples with 5**s colors; the numbers
# are never evaluated, only rendered.

def _render(constant: int, terms: list[tuple[int, str]]) -> str:
    g = gcd(constant, *(c for c, _ in terms))
    if g > 1 and len(terms) + bool(constant) > 1:
        return f"{g}*({_render(constant // g, [(c // g, sym) for c, sym in terms])})"
    chunks = [sym if c == 1 else f"{c}*{sym}" for c, sym in terms]
    if constant:
        chunks.append(str(constant))
    return " + ".join(chunks)


def tau_upper_bound(m: int, n: int) -> tuple[str, int | None]:
    """Rendered upper bound for tau(m, n), and its exact value when min(m, n) <= 1.

    Unrolls tau(k, hi) <= hi - k + k*R^hi_{5^s}(hi+k) + tau(k-1, hi), with
    s = C(k*hi+hi, k) + C(k*hi+hi, hi), for k = min(m, n) down to 2 and
    ends at the exact tail tau(1, hi) = 2*hi.  At min(m, n) = 1 it renders
    the k = 1 step itself.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    lo, hi = min(m, n), max(m, n)
    if lo == 0:
        return "0", 0
    constant = 2 * hi if lo >= 2 else 0
    terms = []
    for k in range(lo, min(lo, 2) - 1, -1):
        s = comb(k * hi + hi, k) + comb(k * hi + hi, hi)
        constant += hi - k
        terms.append((k, f"R^{hi}_{{5^{s}}}({hi + k})"))
    return _render(constant, terms), (2 * hi if lo == 1 else None)


# Search over candidate pairs for a given ground set.

# Seeded supports `search_best` draws for f when its strategy is not "gadget".
RANDOM_DRAWS = 8


def embeds_gadget(m: int, n: int, ground_size: int, strategy: str) -> bool:
    """Whether `search_best` builds the block gadget: its strategy allows it
    and the gadget's 2mn points fit the ground."""
    return strategy != "random" and 2 * m * n <= ground_size


def search_best(
    m: int, n: int, ground_size: int, strategy: str = "all", seed: int = 0
) -> WitnessCertificate | None:
    """Best verified certificate (largest transversality) found, or None.

    Strategies: "gadget" embeds the block construction when it fits,
    "random" draws seeded supports for f and solves for a mate through the
    multiplication kernel, "all" tries both.
    """
    if strategy not in ("gadget", "random", "all"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if m < 1 or n < 1 or m + n > ground_size:
        raise ValueError("degrees do not fit the ground set")
    candidates: list[WitnessCertificate] = []
    if embeds_gadget(m, n, ground_size, strategy):
        pair = gadget_lower(m, n)
        f = _embed(pair.f, ground_size, 0)
        g = _embed(pair.g, ground_size, 0)
        candidates.append(verify(WitnessPair(f, g)))
    if strategy in ("random", "all"):
        rng = random.Random(seed)
        shapes = ksubsets(ground_size, m)
        for _ in range(RANDOM_DRAWS):
            size = rng.randint(2, min(6, len(shapes)))
            chosen = rng.sample(shapes, size)
            f = SetFunction(ground_size, m, {s: rng.choice((-2, -1, 1, 2)) for s in chosen})
            mate = cofactor(f, n)
            if mate is None:
                continue
            candidates.append(verify(WitnessPair(f, mate)))
    if not candidates:
        return None
    return max(candidates, key=lambda c: c.transversal.size)
