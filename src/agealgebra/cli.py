"""Batch front end: human-readable verification tables or JSON certificates.

Every subcommand re-runs its checks from scratch and reports one line per
claim.  Exit status is 0 exactly when every claim passes, 1 on an internal
failure (the failing claim is still reported), 2 on usage errors, which are
caught before any work; they include `gadget` and `tau1n` inputs whose
support pairs exceed `MAX_SUPPORT_PAIRS`, and `kantor`, `commutation` and
`search` inputs whose matrix cells exceed `MAX_KANTOR_CELLS`,
`MAX_COMMUTATION_CELLS` or `MAX_SEARCH_CELLS`, and `bound` degrees above
`MAX_GROUND`.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from fractions import Fraction
from math import comb

from .hitting import is_minimal_transversal, tau
from .incidence import check_commutation, verify_kantor
from .relational import MAX_CANON_BASE, check_profile_inequalities, structure_from_json
from .setfuncs import SetFunction, dumps_canonical, singleton_ones
from .subsets import MAX_GROUND, SetFamily, Subset
from .witnesses import (
    NotAZeroDivisorPairError,
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
    word_indicator,
)

# Largest |supp f|·|supp g| that `gadget` and `tau1n` take on: the (4,4)
# block gadget's 4,096 × 280 support pairs.
MAX_SUPPORT_PAIRS = 1_146_880
# Largest matrix cells that `kantor` ranks (`--max-l 10` fills 492,202 in
# about 1 s) and that `commutation` checks (`--l 10 --n 4 --trials 17`,
# 952,560 cells, about 1 s).
MAX_KANTOR_CELLS = 500_000
MAX_COMMUTATION_CELLS = 1_000_000
# Largest cells of the 8 random multiplication matrices `search` solves,
# plus its embedded gadget's support pairs: `--m 1 --n 3 --l 16` needs
# 8,153,720 and takes 2-3 s.
MAX_SEARCH_CELLS = 10_000_000


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, Subset):
        return sorted(value.elements())
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _claim(results: list, claim: str, expected, computed) -> bool:
    expected = _jsonable(expected)
    computed = _jsonable(computed)
    results.append(
        {"claim": claim, "expected": expected, "computed": computed, "pass": expected == computed}
    )
    return expected == computed


def _cmd_kantor(args, results: list) -> None:
    for ell in range(1, args.max_l + 1):
        for n in range(0, ell // 2 + 1):
            for m in range(0, ell - 2 * n + 1):
                if n + m == 0:
                    continue
                _claim(
                    results,
                    f"inclusion matrix ({n} -> {n + m}) on {ell} points has full row rank",
                    True,
                    verify_kantor(ell, n, m),
                )


def _certify(results: list, name: str, pair):
    """Verify a pair once; its split sums decide the zero-product claim.

    Returns the certificate, or None after reporting the offending set."""
    try:
        cert = verify(pair)
    except NotAZeroDivisorPairError as ex:
        _claim(results, f"{name} multiplies to zero", True,
               {"set": ex.offending, "value": ex.value})
        return None
    _claim(results, f"{name} multiplies to zero", True, True)
    return cert


def _cmd_tau1n(args, results: list) -> None:
    for n in range(1, args.n + 1):
        cert = _certify(results, f"degree (1,{n}) pair", gadget_tau1n(n))
        if cert is not None:
            _claim(results, f"tau of the (1,{n}) gadget", 2 * n, cert.transversal.size)


def _cmd_gadget(args, results: list) -> None:
    m, n = args.m, args.n
    cert = _certify(results, f"block gadget ({m},{n})", gadget_lower(m, n))
    if cert is not None:
        _claim(results, f"tau of the ({m},{n}) block gadget", lower_bound_formula(m, n),
               cert.transversal.size)


def _cmd_two_squares(args, results: list) -> None:
    pair = two_squares()
    cert = _certify(results, "two-squares pair", pair)
    if cert is None:
        return
    _claim(results, "tau of the two-squares support", 7, cert.transversal.size)
    family = SetFamily(8, set(pair.f.support()) | set(pair.g.support()))
    full = (1 << 8) - 1
    cos = [
        x
        for x in range(8)
        if is_minimal_transversal(Subset(8, full ^ (1 << x)), family)
    ]
    _claim(results, "number of minimal co-singleton transversals", 8, len(cos))


def _cmd_search(args, results: list) -> None:
    cert = search_best(args.m, args.n, args.l, strategy=args.strategy, seed=args.seed)
    if cert is None:
        _claim(results, "search found a verified zero-divisor pair", True, False)
        return
    _claim(results, "search found a verified zero-divisor pair", True, True)
    _claim(
        results,
        f"best tau found on {args.l} points at degrees ({args.m},{args.n})",
        cert.transversal.size,
        cert.transversal.size,
    )
    if _search_embeds_gadget(args):
        bound = lower_bound_formula(args.m, args.n)
        _claim(results, f"best tau is at least the block gadget's (m+1)(n+1)-2 = {bound}", True,
               cert.transversal.size >= bound)
    if min(args.m, args.n) == 1:
        exact = tau_upper_bound(args.m, args.n)[1]
        _claim(results, f"best tau is at most tau(1,{max(args.m, args.n)}) = 2*max(m,n) = {exact}",
               True, cert.transversal.size <= exact)


def _cmd_bound(args, results: list) -> None:
    rendered, exact = tau_upper_bound(args.m, args.n)
    _claim(results, f"upper bound for tau({args.m},{args.n})", rendered, rendered)
    lo, hi = min(args.m, args.n), max(args.m, args.n)
    if lo == 0:
        _claim(results, "exact value (degree zero case)", 0, exact)
    elif lo == 1:
        _claim(results, "exact value (linear case)", 2 * hi, exact)


def _cmd_profile(args, results: list) -> None:
    report = check_profile_inequalities(args.structure, args.max_n)
    upto = len(report.values) - 1
    _claim(results, f"profile values for degrees 0..{upto}", report.values, report.values)
    for chk in report.checks:
        _claim(
            results,
            f"{chk['kind']} inequality at n={chk['n']}"
            + (f", m={chk['m']}" if "m" in chk else ""),
            True,
            chk["lhs"] <= chk["rhs"],
        )


def _cmd_words(args, results: list) -> None:
    u, v = Word([3, 1]), Word([3])
    _claim(results, "radix order puts longer words above", True, v < u)
    _claim(
        results,
        "largest interleaving of (2,1)-letter and (2)-letter words",
        [3, 3, 1],
        list(max_shuffle(u, v)),
    )
    sq = shuffle_product(word_indicator(Word([1])), word_indicator(Word([1])))
    _claim(results, "square of a one-letter indicator", {"(1, 1)": "2"},
           {str(tuple(w)): str(val) for w, val in sq.coeffs.items()})
    layered = LayeredGround(1, 2, 4)
    zero = SetFunction(layered.flat_size, 2, {})
    _claim(results, "lead of the zero function is None", True,
           lead(zero, layered) is None)
    f = code_blind_function(layered, 2, seed=args.seed, need_pure_column_support=True)
    g = code_blind_function(layered, 2, seed=args.seed + 1)
    rep = leading_product_check(f, g, layered)
    for name, ok in rep.checks.items():
        _claim(results, f"leading-term property: {name}", True, ok)


def _cmd_commutation(args, results: list) -> None:
    e = singleton_ones(args.l)
    _claim(
        results,
        f"derivation and scaling commute for the all-ones weight on {args.l} points",
        True,
        check_commutation(e, args.n),
    )
    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.trials):
        coeffs = {}
        for x in range(args.l):
            val = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if val:
                coeffs[Subset(args.l, 1 << x)] = val
        ok = ok and check_commutation(SetFunction(args.l, 1, coeffs), args.n)
    _claim(
        results,
        f"derivation and scaling commute for {args.trials} random weights",
        True,
        ok,
    )


_DISPATCH = {
    "kantor": _cmd_kantor,
    "tau1n": _cmd_tau1n,
    "gadget": _cmd_gadget,
    "two-squares": _cmd_two_squares,
    "search": _cmd_search,
    "bound": _cmd_bound,
    "profile": _cmd_profile,
    "words": _cmd_words,
    "commutation": _cmd_commutation,
}


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("kantor", parents=[common], help="rank sweep for inclusion matrices")
    p.add_argument("--max-l", type=int, required=True)

    p = sub.add_parser("tau1n", parents=[common], help="degree-(1,n) gadgets and their tau values")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("gadget", parents=[common], help="block gadget certificate for general degrees")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    sub.add_parser("two-squares", parents=[common], help="the eight-point worked example")

    p = sub.add_parser("search", parents=[common], help="search supports for large-tau pairs")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=("gadget", "random", "all"), default="all")

    p = sub.add_parser("bound", parents=[common], help="symbolic upper bound from the recurrence")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("profile", parents=[common], help="profile table and growth inequalities")
    p.add_argument("--input", required=True)
    p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("words", parents=[common], help="shuffle, lead, and invariance demonstration")
    p.add_argument("--demo", action="store_true",
                   help="accepted for compatibility; the demonstration always runs")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("commutation", parents=[common], help="derivation/scaling commutation sweep")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _gadget_pairs(m: int, n: int) -> int:
    """|supp f|·|supp g| of the (m,n) block gadget."""
    return (2 * n) ** m * m * comb(2 * n, n)


def _support_pairs(args) -> int:
    """|supp f|·|supp g| of the largest pair `gadget` or `tau1n` builds."""
    if args.command == "gadget":
        return _gadget_pairs(args.m, args.n)
    return 2 * args.n * 2 ** args.n


def _search_embeds_gadget(args) -> bool:
    """Whether `search` builds the block gadget: its strategy allows it and
    the gadget's 2mn points fit the ground."""
    return args.strategy != "random" and 2 * args.m * args.n <= args.l


def _matrix_cells(args) -> int:
    """Cells of every matrix `kantor` ranks, `commutation` checks or `search`
    solves; `search` adds its embedded gadget's support pairs when its
    strategy builds that gadget."""
    if args.command == "kantor":
        return sum(
            comb(ell, n) * comb(ell, n + m)
            for ell in range(1, args.max_l + 1)
            for n in range(ell // 2 + 1)
            for m in range(ell - 2 * n + 1)
            if n + m
        )
    if args.command == "search":
        m, n, ell = args.m, args.n, args.l
        cells = 8 * comb(ell, m + n) * comb(ell, n) if args.strategy != "gadget" else 0
        if _search_embeds_gadget(args):
            cells += _gadget_pairs(m, n)
        return cells
    return (args.trials + 1) * comb(args.l, args.n + 1) * comb(args.l, args.n)


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2 on a usage error before any work; `profile` loads its structure here."""
    cmd = args.command
    if cmd == "kantor" and not 1 <= args.max_l <= MAX_GROUND:
        parser.error(f"kantor needs 1 <= max-l <= {MAX_GROUND}")
    if cmd == "tau1n" and not 1 <= args.n <= MAX_GROUND // 2:
        parser.error(f"tau1n needs 1 <= n <= {MAX_GROUND // 2}")
    if cmd == "gadget" and not (args.m >= 1 and args.n >= 1 and 2 * args.m * args.n <= MAX_GROUND):
        parser.error(f"gadget needs --m >= 1, --n >= 1 and 2*m*n <= {MAX_GROUND} ground points")
    if cmd in ("gadget", "tau1n") and (pairs := _support_pairs(args)) > MAX_SUPPORT_PAIRS:
        parser.error(
            f"{cmd} would multiply {pairs:,} support pairs, above the cap of {MAX_SUPPORT_PAIRS:,}"
        )
    if cmd == "search" and not (1 <= min(args.m, args.n) and args.m + args.n <= args.l <= MAX_GROUND):
        parser.error(f"search needs --m >= 1, --n >= 1 and m+n <= l <= {MAX_GROUND}")
    if cmd == "commutation" and not (0 <= args.n < args.l <= MAX_GROUND and args.trials >= 0):
        parser.error(f"commutation needs 0 <= n < l <= {MAX_GROUND} and --trials >= 0")
    cap = {
        "kantor": MAX_KANTOR_CELLS,
        "commutation": MAX_COMMUTATION_CELLS,
        "search": MAX_SEARCH_CELLS,
    }.get(cmd)
    if cap is not None and (cells := _matrix_cells(args)) > cap:
        parser.error(f"{cmd} would fill {cells:,} matrix cells, above the cap of {cap:,}")
    if cmd == "bound" and not (0 <= min(args.m, args.n) and max(args.m, args.n) <= MAX_GROUND):
        parser.error(f"bound needs 0 <= m, n <= {MAX_GROUND}")
    if cmd == "profile":
        if args.max_n is not None and args.max_n < 0:
            parser.error("profile needs --max-n >= 0")
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                args.structure = structure_from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as ex:
            parser.error(f"cannot read a structure from {args.input}: {type(ex).__name__}: {ex}")
        if args.structure.base_size > MAX_CANON_BASE:
            parser.error(f"profile needs a base of at most {MAX_CANON_BASE} points")


def run(argv: list[str]) -> tuple[int, dict]:
    """Parse argv, execute the subcommand, and build the report."""
    parser = build_parser()
    return _execute(parser, parser.parse_args(argv))


def _execute(parser: argparse.ArgumentParser, args) -> tuple[int, dict]:
    inputs = {
        k: v for k, v in vars(args).items() if k not in ("command", "json") and v is not None
    }
    _validate(parser, args)
    seed = getattr(args, "seed", 0)
    results: list[dict] = []
    start = time.monotonic()
    code = 0
    try:
        _DISPATCH[args.command](args, results)
    except Exception as ex:  # noqa: BLE001 - reported, not swallowed
        results.append(
            {
                "claim": f"internal failure: {ex}",
                "expected": "no exception",
                "computed": f"{type(ex).__name__}: {ex}",
                "pass": False,
            }
        )
        code = 1
    if code == 0 and not all(r["pass"] for r in results):
        code = 1
    report = {
        "command": args.command,
        "inputs": _jsonable(inputs),
        "results": results,
        "seed": seed,
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }
    return code, report


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    code, report = _execute(parser, args)
    if getattr(args, "json", False):
        lines = [dumps_canonical(report)]
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
