"""Batch front end: human-readable verification tables or JSON certificates.

Every subcommand re-runs its checks from scratch and reports one line per
claim.  Each command first checks its inputs and estimates its work against
its cap, so a usage error exits 2 with a message before any work.  Exit
status is 0 exactly when every claim passes, and 1 on an internal failure
(the failing claim is still reported).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import cache
from math import comb

from .hitting import is_minimal_transversal
from .incidence import check_commutation, verify_kantor
from .relational import MAX_CANON_BASE, check_profile_inequalities, structure_from_json
from .setfuncs import SetFunction, singleton_ones
from .subsets import MAX_GROUND, members
from .witnesses import (
    RANDOM_DRAWS,
    NotAZeroDivisorPairError,
    embeds_gadget,
    gadget_lower,
    gadget_tau1n,
    lower_bound_formula,
    search_best,
    tau_upper_bound,
    two_squares,
    verify,
)
from .words import (
    LayeredGround,
    Word,
    code_blind_function,
    lead,
    leading_product_check,
    max_shuffle,
    shuffle_product,
)

# Largest |supp f|·|supp g| that `gadget` and `tau1n` take on: the (4,4)
# block gadget's 4,096 × 280 support pairs.
MAX_SUPPORT_PAIRS = 1_146_880
# Largest matrix cells that `kantor` ranks (`--max-l 10` fills 492,202 and
# builds and certifies every matrix mod 127 in 45-70 ms on a 2-core Xeon
# under Python 3.11; `--max-l 11` would fill 1,893,493) and that
# `commutation` checks (`--l 10 --n 4 --trials 17`, 952,560 cells, 70-120 ms).
MAX_KANTOR_CELLS = 500_000
MAX_COMMUTATION_CELLS = 1_000_000
# Largest cells of the random multiplication matrices `search` solves, plus
# its embedded gadget's support pairs: `--m 1 --n 3 --l 16` needs 8,153,720
# and takes 2-3 s.
MAX_SEARCH_CELLS = 10_000_000
# Largest (restrictions) · (symbols + tuples) that `profile` scans: every
# restriction of at most --max-n points reads each relation and each tuple.
# On a 2-core Xeon, all 4-tuples on 8 points (1,048,832) take under 1 s,
# and 20,000 empty relations on 8 points (5,120,000) would take 7 s.
MAX_PROFILE_SCANS = 2_000_000


class UsageError(Exception):
    """An input a command refuses before any work; `agealg` exits 2."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _cap(amount: int, cap: int, work: str) -> None:
    """Refuse a run whose estimate `amount` exceeds `cap`; `work` formats it."""
    _require(amount <= cap, f"{work.format(amount)}, above the cap of {cap:,}")


def _kantor_sweep(max_l: int):
    """(ell, n, m) of each inclusion matrix `kantor` ranks: n-subsets against
    (n+m)-subsets of ell points, for 2n + m <= ell and n + m >= 1."""
    for ell in range(1, max_l + 1):
        for n in range(ell // 2 + 1):
            for m in range(ell - 2 * n + 1):
                if n + m:
                    yield ell, n, m


def _kantor_cells(max_l: int) -> int:
    return sum(comb(ell, n) * comb(ell, n + m) for ell, n, m in _kantor_sweep(max_l))


def _gadget_pairs(m: int, n: int) -> int:
    """|supp f|·|supp g| of the (m,n) block gadget."""
    return (2 * n) ** m * m * comb(2 * n, n)


def _search_cells(m: int, n: int, ell: int, strategy: str) -> int:
    """Cells of the random multiplication matrices `search` solves, plus its
    embedded gadget's support pairs when it builds that gadget."""
    cells = RANDOM_DRAWS * comb(ell, m + n) * comb(ell, n) if strategy != "gadget" else 0
    if embeds_gadget(m, n, ell, strategy):
        cells += _gadget_pairs(m, n)
    return cells


def _cmd_kantor(args):
    _require(1 <= args.max_l <= MAX_GROUND, f"kantor needs 1 <= max-l <= {MAX_GROUND}")
    _cap(_kantor_cells(args.max_l), MAX_KANTOR_CELLS, "kantor would fill {:,} matrix cells")
    for ell, n, m in _kantor_sweep(args.max_l):
        yield (f"inclusion matrix ({n} -> {n + m}) on {ell} points has full row rank",
               True, verify_kantor(ell, n, m))


def _certify(name: str, pair):
    """Verify a pair once; its split sums decide the zero-product claim.

    Returns the certificate, or None after reporting the offending set."""
    try:
        cert = verify(pair)
    except NotAZeroDivisorPairError as ex:
        yield (f"{name} multiplies to zero", True,
               {"set": members(ex.offending), "value": ex.value})
        return None
    yield f"{name} multiplies to zero", True, True
    return cert


def _cmd_tau1n(args):
    _require(1 <= args.n <= MAX_GROUND // 2, f"tau1n needs 1 <= n <= {MAX_GROUND // 2}")
    _cap(2 * args.n * 2 ** args.n, MAX_SUPPORT_PAIRS, "tau1n would multiply {:,} support pairs")
    for n in range(1, args.n + 1):
        cert = yield from _certify(f"degree (1,{n}) pair", gadget_tau1n(n))
        if cert is not None:
            yield f"tau of the (1,{n}) gadget", 2 * n, cert.transversal.size


def _cmd_gadget(args):
    m, n = args.m, args.n
    _require(m >= 1 and n >= 1 and 2 * m * n <= MAX_GROUND,
             f"gadget needs --m >= 1, --n >= 1 and 2*m*n <= {MAX_GROUND} ground points")
    _cap(_gadget_pairs(m, n), MAX_SUPPORT_PAIRS, "gadget would multiply {:,} support pairs")
    cert = yield from _certify(f"block gadget ({m},{n})", gadget_lower(m, n))
    if cert is not None:
        yield f"tau of the ({m},{n}) block gadget", lower_bound_formula(m, n), cert.transversal.size


def _cmd_two_squares(args):
    pair = two_squares()
    cert = yield from _certify("two-squares pair", pair)
    if cert is None:
        return
    yield "tau of the two-squares support", 7, cert.transversal.size
    masks = pair.f.support().union(pair.g.support()).masks()
    full = (1 << 8) - 1
    cos = [x for x in range(8) if is_minimal_transversal(full ^ 1 << x, masks)]
    yield "number of minimal co-singleton transversals", 8, len(cos)


def _cmd_search(args):
    m, n, ell = args.m, args.n, args.l
    _require(1 <= min(m, n) and m + n <= ell <= MAX_GROUND,
             f"search needs --m >= 1, --n >= 1 and m+n <= l <= {MAX_GROUND}")
    _require(args.strategy != "gadget" or 2 * m * n <= ell,
             "search --strategy gadget needs the block gadget's 2*m*n <= l points")
    _cap(_search_cells(m, n, ell, args.strategy), MAX_SEARCH_CELLS,
         "search would fill {:,} matrix cells")
    cert = search_best(m, n, ell, strategy=args.strategy, seed=args.seed)
    yield "search found a verified zero-divisor pair", True, cert is not None
    if cert is None:
        return
    size = cert.transversal.size
    yield f"best tau found on {ell} points at degrees ({m},{n})", size, size
    # Missing at most min(m,n) - 1 points, that many points meet every
    # m-set and every n-set.
    cap = ell - min(m, n) + 1
    yield f"best tau is at most l-min(m,n)+1 = {cap}", True, size <= cap
    if embeds_gadget(m, n, ell, args.strategy):
        bound = lower_bound_formula(m, n)
        yield f"best tau is at least the block gadget's (m+1)(n+1)-2 = {bound}", True, size >= bound
    if min(m, n) == 1:
        exact = tau_upper_bound(m, n)[1]
        yield (f"best tau is at most tau(1,{max(m, n)}) = 2*max(m,n) = {exact}",
               True, size <= exact)


def _cmd_bound(args):
    lo, hi = min(args.m, args.n), max(args.m, args.n)
    _require(0 <= lo and hi <= MAX_GROUND, f"bound needs 0 <= m, n <= {MAX_GROUND}")
    rendered, exact = tau_upper_bound(args.m, args.n)
    yield f"upper bound for tau({args.m},{args.n})", rendered, rendered
    if lo == 0:
        yield "exact value (degree zero case)", 0, exact
    elif lo == 1:
        yield "exact value (linear case)", 2 * hi, exact


def _cmd_profile(args):
    _require(args.max_n is None or args.max_n >= 0, "profile needs --max-n >= 0")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            structure = structure_from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as ex:
        raise UsageError(
            f"cannot read a structure from {args.input}: {type(ex).__name__}: {ex}"
        ) from None
    ell = structure.base_size
    _require(ell <= MAX_CANON_BASE, f"profile needs a base of at most {MAX_CANON_BASE} points")
    upto = ell if args.max_n is None else min(args.max_n, ell)
    scans = sum(comb(ell, n) for n in range(upto + 1)) * (
        len(structure.signature) + sum(map(len, structure.relations)))
    _cap(scans, MAX_PROFILE_SCANS, "profile would scan {:,} relations and tuples")
    report = check_profile_inequalities(structure, upto)
    yield f"profile values for degrees 0..{upto}", report.values, report.values
    for chk in report.checks:
        yield (f"{chk['kind']} inequality at n={chk['n']}, m={chk['m']}",
               True, chk["lhs"] <= chk["rhs"])


def _cmd_words(args):
    u, v = Word([3, 1]), Word([3])
    yield "radix order puts longer words above", True, v < u
    yield ("largest interleaving of (2,1)-letter and (2)-letter words",
           [3, 3, 1], list(max_shuffle(u, v)))
    sq = shuffle_product({Word([1]): 1}, {Word([1]): 1})
    yield ("square of a one-letter indicator", {"(1, 1)": "2"},
           {str(tuple(w)): str(val) for w, val in sq.items()})
    layered = LayeredGround(1, 2, 4)
    zero = SetFunction(layered.flat_size, 2, {})
    yield "lead of the zero function is None", True, lead(zero, layered) is None
    f = code_blind_function(layered, 2, seed=args.seed, need_pure_column_support=True)
    g = code_blind_function(layered, 2, seed=args.seed + 1)
    for name, ok in leading_product_check(f, g, layered).items():
        yield f"leading-term property: {name}", True, ok


def _cmd_commutation(args):
    ell, n = args.l, args.n
    _require(0 <= n < ell <= MAX_GROUND and args.trials >= 0,
             f"commutation needs 0 <= n < l <= {MAX_GROUND} and --trials >= 0")
    _cap((args.trials + 1) * comb(ell, n + 1) * comb(ell, n), MAX_COMMUTATION_CELLS,
         "commutation would fill {:,} matrix cells")
    yield (f"derivation and scaling commute for the all-ones weight on {ell} points",
           True, check_commutation(singleton_ones(ell), n))
    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.trials):
        terms = {}
        for x in range(ell):
            # Six times the weight a/b for a in -3..3, b in 1..3: the
            # identity is homogeneous in the weights.
            val = rng.randint(-3, 3) * 6 // rng.randint(1, 3)
            if val:
                terms[1 << x] = val
        ok = ok and check_commutation(SetFunction(ell, 1, terms), n)
    yield f"derivation and scaling commute for {args.trials} random weights", True, ok


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `agealg` parser, built on first use and shared by every later
    `run` and `main` call: parsing reads it and leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    # No default, so a subcommand cannot reset a --json given before it.
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit the report as canonical JSON")
    parser = argparse.ArgumentParser(
        prog="agealg",
        description="verify transversal certificates and algebra identities",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    p = command("kantor", _cmd_kantor, "rank sweep for inclusion matrices")
    p.add_argument("--max-l", type=int, required=True)

    p = command("tau1n", _cmd_tau1n, "degree-(1,n) gadgets and their tau values")
    p.add_argument("--n", type=int, required=True)

    p = command("gadget", _cmd_gadget, "block gadget certificate for general degrees")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    command("two-squares", _cmd_two_squares, "the eight-point worked example")

    p = command("search", _cmd_search, "search supports for large-tau pairs")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=("gadget", "random", "all"), default="all")

    p = command("bound", _cmd_bound, "symbolic upper bound from the recurrence")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("profile", _cmd_profile, "profile table and growth inequalities")
    p.add_argument("--input", required=True)
    p.add_argument("--max-n", type=int, default=None)

    p = command("words", _cmd_words, "shuffle, lead, and invariance demonstration")
    p.add_argument("--demo", action="store_true",
                   help="accepted for compatibility; the demonstration always runs")
    p.add_argument("--seed", type=int, default=0)

    p = command("commutation", _cmd_commutation, "derivation/scaling commutation sweep")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: list[str]) -> tuple[int, dict]:
    """Parse argv, execute the subcommand, and build the report."""
    parser = build_parser()
    return _execute(parser, parser.parse_args(argv))


def _execute(parser: argparse.ArgumentParser, args) -> tuple[int, dict]:
    inputs = {
        k: v for k, v in vars(args).items() if k not in ("command", "json", "run") and v is not None
    }
    results: list[dict] = []
    start = time.monotonic()
    try:
        for claim, expected, computed in args.run(args):
            results.append({"claim": claim, "expected": expected, "computed": computed,
                            "pass": expected == computed})
    except UsageError as ex:
        parser.error(str(ex))
    except Exception as ex:  # noqa: BLE001 - reported, not swallowed
        results.append({"claim": f"internal failure: {ex}", "expected": "no exception",
                        "computed": f"{type(ex).__name__}: {ex}", "pass": False})
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "seed": getattr(args, "seed", 0),
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }
    return int(not all(r["pass"] for r in results)), report


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    code, report = _execute(parser, args)
    if getattr(args, "json", False):
        lines = [json.dumps(report, sort_keys=True, separators=(",", ":"))]
    else:
        results = report["results"]
        lines = [f"{report['command']}  (seed {report['seed']}, {report['elapsed_ms']} ms)"]
        for r in results:
            mark = "ok " if r["pass"] else "FAIL"
            lines.append(
                f"  [{mark}] {r['claim']}: expected {r['expected']}, computed {r['computed']}"
            )
        lines.append(f"{sum(1 for r in results if r['pass'])}/{len(results)} claims pass")
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so the flush
        # at shutdown cannot raise again.
        sys.stdout = open(os.devnull, "w")
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
