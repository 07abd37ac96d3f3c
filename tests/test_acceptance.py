"""Acceptance gate: one test per published criterion, exact arithmetic,
stated time budgets.  Each test prints a single PASS/FAIL line."""

import random
import time
from itertools import combinations, product as iproduct
from math import comb

from agealgebra.cli import run as cli_run
from agealgebra.hitting import is_minimal_transversal, tau
from agealgebra.incidence import check_commutation, verify_kantor, inclusion_matrix
from agealgebra.linalg import nullspace_basis, rank
from agealgebra.relational import check_profile_inequalities
from agealgebra.setfuncs import (
    SetFunction,
    mult_matrix,
    product_by_splits,
    singleton_ones,
)
from agealgebra.subsets import ksubsets
from agealgebra.witnesses import (
    gadget_lower,
    gadget_tau1n,
    lower_bound_formula,
    two_squares,
    verify,
)
from agealgebra.words import (
    LayeredGround,
    Word,
    code_blind_function,
    leading_product_check,
    max_shuffle,
    shuffle,
    shuffle_product,
)

from test_relational import all_graph_classes, hilbert_inequality_check, random_structure
from test_setfuncs import check_partition_property
from test_words import check_invariance, lead_word


def report(num: int, label: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {num:2d} [{elapsed:7.2f}s] {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_doubling_transversality():
    ok = True
    worst = 0.0
    for n in range(1, 5):
        t0 = time.monotonic()
        pair = gadget_tau1n(n)
        assert not pair.g.is_zero
        cert = verify(pair)  # re-multiplies from scratch
        ok = ok and cert.transversal.size == 2 * n
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        ok = ok and dt < 1.0
    report(1, "degree-(1,n) gadgets reach exactly 2n for n=1..4", ok, worst)


def test_criterion_02_weighted_rank_killing():
    t0 = time.monotonic()
    rng = random.Random(20240201)
    ok = True
    for n in range(1, 4):
        for l in range(2 * n + 1, 2 * n + 4):
            for _ in range(20):
                support_size = rng.randint(2 * n + 1, l)
                points = rng.sample(range(l), support_size)
                # 12 times a weight v/d with d in 1..4: scaling keeps the kernel
                terms = {
                    1 << x: rng.choice([v for v in range(-5, 6) if v]) * 12 // rng.randint(1, 4)
                    for x in points
                }
                f = SetFunction(l, 1, terms)
                ok = ok and nullspace_basis(mult_matrix(f, n).matrix) == []
    elapsed = time.monotonic() - t0
    report(2, "well-supported weights annihilate nothing (180 kernels)", ok and elapsed < 10, elapsed)


def test_criterion_03_containment_rank_sweep():
    t0 = time.monotonic()
    ok = True
    for l in range(1, 9):
        for n in range(l // 2 + 1):
            for m in range(l - 2 * n + 1):
                if n + m == 0:
                    continue
                ok = ok and verify_kantor(l, n, m)
    neg = rank(inclusion_matrix(3, 2, 1))
    ok = ok and neg == 1 < comb(3, 2)
    elapsed = time.monotonic() - t0
    report(3, "full row rank inside the threshold, deficient outside", ok and elapsed < 10, elapsed)


def test_criterion_04_block_gadget_lower_bounds():
    ok = True
    worst = 0.0
    for m, n in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        t0 = time.monotonic()
        pair = gadget_lower(m, n)
        cert = verify(pair)
        dt = time.monotonic() - t0
        ok = ok and cert.transversal.size == lower_bound_formula(m, n)
        ok = ok and (dt < 60.0 if (m, n) == (3, 3) else dt < 5.0)
        worst = max(worst, dt)
    report(4, "block gadgets hit (m+1)(n+1)-2 through (3,3)", ok, worst)


def test_criterion_05_two_squares_example():
    t0 = time.monotonic()
    pair = two_squares()
    prod = product_by_splits(pair.f, pair.g)
    ok = all(prod.value(q) == 0 for q in ksubsets(8, 4))
    cert = verify(pair)
    ok = ok and cert.transversal.size == 7
    masks = pair.f.support().union(pair.g.support()).masks()
    for x in range(8):
        ok = ok and is_minimal_transversal(((1 << 8) - 1) ^ (1 << x), masks)
    elapsed = time.monotonic() - t0
    report(5, "two squares: zero on all 70 shapes, tau 7, 8 co-singletons", ok and elapsed < 1, elapsed)


def test_criterion_06_derivation_scaling_commutation():
    t0 = time.monotonic()
    rng = random.Random(777)
    ok = True
    for _ in range(50):
        l = rng.randint(2, 6)
        n = rng.randint(0, min(3, l - 1))
        terms = {}
        for x in range(l):
            v = rng.randint(-3, 3)
            if v:
                terms[1 << x] = v * 6 // rng.randint(1, 3)  # 6 times v/d
        ok = ok and check_commutation(SetFunction(l, 1, terms), n)
    elapsed = time.monotonic() - t0
    report(6, "derivation against scaling, 50 random weights", ok and elapsed < 5, elapsed)


def test_criterion_07_profile_growth_corpus():
    t0 = time.monotonic()
    ok = True
    for l in range(1, 7):
        for g in all_graph_classes(l):
            ok = ok and all(c["pass"] for c in check_profile_inequalities(g).checks)
    rng = random.Random(4242)
    for _ in range(100):
        base = rng.randint(1, 6)
        nsyms = rng.randint(1, 2)
        sig = tuple(rng.randint(1, 2) for _ in range(nsyms))
        rep = check_profile_inequalities(random_structure(rng, base, sig))
        ok = ok and all(c["pass"] for c in rep.checks)
    elapsed = time.monotonic() - t0
    report(7, "growth laws on every small graph plus 100 random structures", ok and elapsed < 120, elapsed)


def test_criterion_08_shuffle_monotonicity_and_products():
    t0 = time.monotonic()
    ok = True
    # exhaustive strict monotonicity, two-letter alphabet
    for lu in range(1, 6):
        for lv in range(0, 6):
            if lu + lv > 6:
                continue
            us = [Word(t) for t in iproduct((1, 2), repeat=lu)]
            vs = [Word(t) for t in iproduct((1, 2), repeat=lv)]
            for u1 in us:
                for u2 in us:
                    if not u1 < u2:
                        continue
                    for v in vs:
                        for pos in combinations(range(lu + lv), lu):
                            if not shuffle(u1, pos, v) < shuffle(u2, pos, v):
                                ok = False
    rng = random.Random(88)
    for _ in range(200):
        def draw():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = Word(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 5)))
                terms[w] = rng.choice((-2, -1, 1, 2))
            return terms

        f, g = draw(), draw()
        prod = shuffle_product(f, g)
        ok = ok and bool(prod)
        ok = ok and lead_word(prod) == max_shuffle(lead_word(f), lead_word(g))
    elapsed = time.monotonic() - t0
    report(8, "shuffles grow strictly; 200 random products stay nonzero", ok and elapsed < 30, elapsed)


def test_criterion_09_invariant_structure_corpus():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for f_size in (0, 1, 2):
        for v_size in (1, 2):
            for m, n in ((1, 1), (1, 2), (2, 2)):
                for chain in (m + n, min(6, m + n + 2)):
                    if f_size + v_size * chain > 12:
                        continue
                    layered = LayeredGround(f_size, v_size, chain)
                    for seed in range(3):
                        f = code_blind_function(layered, m, seed=seed, need_pure_column_support=True)
                        g = code_blind_function(layered, n, seed=seed + 1000)
                        flags = [check_invariance(layered, f, g, r) for r in range(chain + 1)]
                        ok = ok and all(flags)
                        for r, flag in enumerate(flags):  # heredity downward
                            if flag:
                                ok = ok and all(flags[: r + 1])
                        checks = leading_product_check(f, g, layered)
                        ok = ok and all(checks.values())
                        checked += 1
    elapsed = time.monotonic() - t0
    report(9, f"leading equations on {checked} blind invariant pairs", ok and elapsed < 30, elapsed)


def test_criterion_10_sign_block_dot_products():
    t0 = time.monotonic()
    out = check_partition_property(max_len=8, trials=1000, seed=1)
    ok = out["all_nonzero"] and out["trials"] == 1000
    elapsed = time.monotonic() - t0
    report(10, "1000 same-block pairings keep nonzero products", ok and elapsed < 1, elapsed)


def test_criterion_11_hilbert_sequence_checks():
    t0 = time.monotonic()
    ok = True
    for k in (2, 3, 4):
        ok = ok and hilbert_inequality_check(tuple(k**i for i in range(11)), 10)
    ok = ok and not hilbert_inequality_check((1, 2, 2, 2, 2), 4)
    elapsed = time.monotonic() - t0
    report(11, "geometric growth admitted, flat growth rejected", ok and elapsed < 1, elapsed)


def test_criterion_12_symbolic_bound_rendering():
    t0 = time.monotonic()
    code, rep = cli_run(["bound", "--m", "2", "--n", "2"])
    printed = rep["results"][0]["computed"]
    ok = code == 0 and printed == "2*(R^2_{5^30}(4) + 2)"
    elapsed = time.monotonic() - t0
    report(12, "the astronomical bound survives only as its exact symbol", ok, elapsed)
