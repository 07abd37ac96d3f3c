"""Front-end behavior: reports, exit codes, canonical JSON."""

import contextlib
import io
import json
import os
import random
import sys
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from agealgebra.cli import build_parser, main, run
from agealgebra.relational import check_profile_inequalities

from test_relational import graph, structure_to_dict


def claims(report):
    return [r["claim"] for r in report["results"]]


def test_report_schema_and_exit_zero():
    code, rep = run(["tau1n", "--n", "2"])
    assert code == 0
    assert set(rep) == {"command", "inputs", "results", "seed", "elapsed_ms"}
    assert rep["command"] == "tau1n"
    assert rep["inputs"] == {"n": 2}
    assert all(set(r) == {"claim", "expected", "computed", "pass"} for r in rep["results"])
    assert all(r["pass"] for r in rep["results"])


def test_tau1n_reports_doubling_values():
    _, rep = run(["tau1n", "--n", "3"])
    taus = [r["computed"] for r in rep["results"] if r["claim"].startswith("tau of")]
    assert taus == [2, 4, 6]


def test_two_squares_lists_all_co_singletons():
    code, rep = run(["two-squares"])
    assert code == 0
    count = [r for r in rep["results"] if r["claim"].startswith("number of minimal co-singleton")]
    assert len(count) == 1 and count[0]["expected"] == count[0]["computed"] == 8
    assert count[0]["pass"]


def test_bound_matches_printed_expression():
    _, rep = run(["bound", "--m", "2", "--n", "2"])
    assert rep["results"][0]["computed"] == "2*(R^2_{5^30}(4) + 2)"


def test_bound_exact_linear_case():
    _, rep = run(["bound", "--m", "1", "--n", "3"])
    exact = [r for r in rep["results"] if "exact value" in r["claim"]]
    assert exact and exact[0]["computed"] == 6


def test_bound_at_the_degree_cap_runs():
    code, rep = run(["bound", "--m", "64", "--n", "64"])
    assert code == 0
    assert rep["results"][0]["computed"].startswith("64*R^64_{5^")


def test_kantor_sweep_passes():
    code, rep = run(["kantor", "--max-l", "6"])
    assert code == 0 and rep["results"]


def test_kantor_sweep_is_certified_mod_p_without_exact_elimination(monkeypatch):
    from agealgebra import linalg

    def unreachable(*args, **kwargs):
        raise AssertionError("exact elimination reached")

    monkeypatch.setattr(linalg, "_echelon", unreachable)
    code, rep = run(["kantor", "--max-l", "9"])
    assert code == 0 and len(rep["results"]) == 115
    assert all(r["pass"] and r["computed"] is True for r in rep["results"])
    with pytest.raises(AssertionError, match="exact elimination reached"):
        linalg.rank(linalg.IntMatrix([[1, 2], [2, 4]], 2))


def test_words_demo_passes():
    code, rep = run(["words", "--demo"])
    assert code == 0
    assert any("leading-term property" in c for c in claims(rep))
    # the demo is also the default behavior
    code2, rep2 = run(["words"])
    assert code2 == 0 and claims(rep2) == claims(rep)


def test_words_demo_claims_are_pinned():
    code, rep = run(["words", "--demo", "--seed", "0"])
    assert code == 0
    leading = [
        "support_pairs_nonempty",
        "lead_f_avoids_f_part",
        "splitter_codes_are_leads",
        "splitter_values_constant",
        "value_at_q0_is_count_times_leads",
        "product_lead_is_best_pair_code",
        "product_lead_is_max_shuffle_of_leads",
        "product_nonzero_at_q0",
        "product_nonzero",
    ]
    assert [(r["claim"], r["pass"]) for r in rep["results"]] == [
        ("radix order puts longer words above", True),
        ("largest interleaving of (2,1)-letter and (2)-letter words", True),
        ("square of a one-letter indicator", True),
        ("lead of the zero function is None", True),
    ] + [(f"leading-term property: {name}", True) for name in leading]


def test_search_gadget_claim_is_independent_of_the_search(monkeypatch):
    from agealgebra import cli
    from agealgebra.witnesses import gadget_tau1n, verify

    code, rep = run(["search", "--m", "2", "--n", "2", "--l", "8", "--strategy", "gadget"])
    gadget = [r for r in rep["results"] if "block gadget's" in r["claim"]]
    assert code == 0 and len(gadget) == 1 and gadget[0]["pass"]
    _, rep = run(["search", "--m", "2", "--n", "2", "--l", "8", "--strategy", "random"])
    assert not any("block gadget's" in c for c in claims(rep))
    # a best certificate below (m+1)(n+1)-2 = 7 fails the claim
    monkeypatch.setattr(cli, "search_best", lambda *a, **k: verify(gadget_tau1n(2)))
    code, rep = run(["search", "--m", "2", "--n", "2", "--l", "8", "--strategy", "gadget"])
    assert code == 1 and [r["pass"] for r in rep["results"]] == [True, True, True, False]


@pytest.mark.parametrize("m, n, present", [(1, 3, True), (3, 1, True), (2, 2, False)])
def test_search_linear_case_claims_the_exact_upper_bound(m, n, present):
    code, rep = run(["search", "--m", str(m), "--n", str(n), "--l", "8"])
    assert code == 0
    upper = [r for r in rep["results"] if r["claim"].startswith("best tau is at most tau(1,")]
    want = {"claim": "best tau is at most tau(1,3) = 2*max(m,n) = 6",
            "expected": True, "computed": True, "pass": True}
    assert upper == ([want] if present else [])


def test_search_upper_bound_claim_fails_above_two_max(monkeypatch):
    from agealgebra import cli
    from agealgebra.witnesses import gadget_tau1n, verify

    # tau 8 from the (1,4) gadget exceeds tau(1,3) = 6
    monkeypatch.setattr(cli, "search_best", lambda *a, **k: verify(gadget_tau1n(4)))
    code, rep = run(["search", "--m", "1", "--n", "3", "--l", "8"])
    assert code == 1 and [r["pass"] for r in rep["results"]] == [True, True, True, True, False]
    assert rep["results"][-1]["claim"].startswith("best tau is at most")


def test_search_cap_claim_fails_when_tau_overshoots(monkeypatch):
    from agealgebra import witnesses
    from agealgebra.hitting import TransversalResult
    from agealgebra.subsets import Subset

    code, rep = run(["search", "--m", "2", "--n", "3", "--l", "10"])
    cap = {"claim": "best tau is at most l-min(m,n)+1 = 9",
           "expected": True, "computed": True, "pass": True}
    assert code == 0 and cap in rep["results"]

    # A tau that takes the whole ground overshoots l - min(m,n) + 1.
    def whole_ground(family):
        everything = (1 << family.n) - 1
        return TransversalResult(family.n, Subset(family.n, everything), 1, 0, family.n)

    monkeypatch.setattr(witnesses, "tau", whole_ground)
    code, rep = run(["search", "--m", "2", "--n", "3", "--l", "10"])
    assert code == 1 and [r["pass"] for r in rep["results"]] == [True, True, False]
    assert rep["results"][2]["claim"] == cap["claim"]


def test_commutation_sweep_passes():
    code, rep = run(["commutation", "--l", "5", "--n", "2", "--trials", "10"])
    assert code == 0
    assert rep["seed"] == 0


def test_search_deterministic_given_seed():
    _, a = run(["search", "--m", "1", "--n", "2", "--l", "4", "--seed", "5"])
    _, b = run(["search", "--m", "1", "--n", "2", "--l", "4", "--seed", "5"])
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


def test_profile_command_reads_structure_file(tmp_path):
    g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(structure_to_dict(g)))
    code, rep = run(["profile", "--input", str(path)])
    assert code == 0
    assert rep["results"][0]["computed"] == [1, 1, 2, 1, 1]


def test_profile_command_max_n_truncates(tmp_path):
    g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(structure_to_dict(g)))
    _, rep = run(["profile", "--input", str(path), "--max-n", "2"])
    assert rep["results"][0]["computed"] == [1, 1, 2]


def test_profile_command_computes_each_profile_once(tmp_path, monkeypatch):
    from agealgebra import relational

    calls = []
    original = relational.profile

    def counting(r, n):
        calls.append(n)
        return original(r, n)

    monkeypatch.setattr(relational, "profile", counting)
    g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(structure_to_dict(g)))
    code, rep = run(["profile", "--input", str(path), "--max-n", "2"])
    assert code == 0
    assert sorted(calls) == [0, 1, 2]
    assert rep["results"][0]["computed"] == [1, 1, 2]


def _random_graph(points, seed):
    rng = random.Random(seed)
    edges = [(a, b) for a in range(points) for b in range(a + 1, points) if rng.random() < 0.5]
    return graph(points, edges)


@pytest.mark.parametrize(
    "structure",
    [graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), _random_graph(8, 5)],
    ids=["4-cycle", "8-point graph"],
)
def test_profile_max_n_report_is_the_filtered_full_report(structure, tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(structure_to_dict(structure)))
    full = check_profile_inequalities(structure)
    for k in range(structure.base_size + 2):
        upto = min(k, structure.base_size)
        kept = [c for c in full.checks if c["n"] <= upto and c["n"] + c.get("m", 1) <= upto]
        part = check_profile_inequalities(structure, upto)
        assert (part.values, part.checks) == (full.values[: upto + 1], kept)
        code, rep = run(["profile", "--input", str(path), "--max-n", str(k)])
        assert code == 0
        assert rep["results"][0]["computed"] == full.values[: upto + 1]
        assert [(r["claim"], r["pass"]) for r in rep["results"][1:]] == [
            (f"{c['kind']} inequality at n={c['n']}, m={c['m']}", c["pass"]) for c in kept
        ]


@pytest.mark.parametrize(
    "argv", [["tau1n", "--n", "2"], ["gadget", "--m", "2", "--n", "2"], ["two-squares"]]
)
def test_zero_product_claims_are_computed(argv, monkeypatch):
    from agealgebra import witnesses
    from agealgebra.setfuncs import SetFunction

    def wrong(f, g):
        degree = f.degree + g.degree
        return SetFunction(f.n, degree, {(1 << degree) - 1: 3})

    monkeypatch.setattr(witnesses, "product_by_splits", wrong)
    code, rep = run(argv)
    assert code == 1
    failed = [r for r in rep["results"] if not r["pass"]]
    assert failed and all("multiplies to zero" in r["claim"] for r in failed)
    for r in failed:
        degree = len(r["computed"]["set"])
        assert r["computed"] == {"set": list(range(degree)), "value": 3}
    assert not any("internal failure" in c for c in claims(rep))


def test_failing_pair_names_its_colex_first_nonzero_set(monkeypatch, capsys):
    from agealgebra import cli
    from agealgebra.setfuncs import SetFunction, product
    from agealgebra.witnesses import NotAZeroDivisorPairError, WitnessPair, verify

    def sf(terms):
        return SetFunction(4, 1, {1 << i: v for i, v in terms.items()})

    # {0, 1} cancels (7 * 18 - 6 * 21 = 0); {0, 2} is first nonzero
    f = sf({0: 7, 1: -6})
    g = sf({0: 21, 1: 18, 2: 70})
    pair = WitnessPair(f, g)
    with pytest.raises(NotAZeroDivisorPairError) as exc:
        verify(pair)
    offender, value = exc.value.offending, exc.value.value
    assert offender == 1 << 0 | 1 << 2
    assert type(value) is int and value == 490
    assert value == product(f, g).value(offender)

    monkeypatch.setattr(cli, "gadget_lower", lambda m, n: pair)
    assert main(["gadget", "--m", "1", "--n", "1", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failed = [r for r in rep["results"] if not r["pass"]]
    assert [r["claim"] for r in failed] == ["block gadget (1,1) multiplies to zero"]
    assert failed[0]["computed"] == {"set": [0, 2], "value": 490}


def test_gadget_multiplies_the_pair_once(monkeypatch):
    from agealgebra import cli, witnesses

    calls = []
    original = witnesses.product_by_splits

    def counting(f, g):
        calls.append((f.degree, g.degree))
        return original(f, g)

    monkeypatch.setattr(witnesses, "product_by_splits", counting)
    code, _ = run(["gadget", "--m", "2", "--n", "2"])
    assert code == 0
    assert calls == [(2, 2)]
    assert not hasattr(cli, "product")


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (5, 7)])
def test_gadget_out_of_range_degrees_exit_two(m, n, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gadget", "--m", str(m), "--n", str(n)])
    assert exc.value.code == 2
    assert "2*m*n <= 64" in capsys.readouterr().err


def test_internal_failure_reported_with_exit_one(monkeypatch):
    from agealgebra import cli

    def broken(ground_size, n, m):
        raise RuntimeError("rank routine broke")

    monkeypatch.setattr(cli, "verify_kantor", broken)
    code, rep = run(["kantor", "--max-l", "2"])
    assert code == 1
    assert any(not r["pass"] for r in rep["results"])
    assert "internal failure" in rep["results"][-1]["claim"]


USAGE_ERRORS = {
    "search ground over 64": ["search", "--m", "1", "--n", "2", "--l", "100"],
    "search zero degree": ["search", "--m", "0", "--n", "2", "--l", "6"],
    "search gadget does not fit": ["search", "--m", "3", "--n", "1", "--l", "4", "--strategy", "gadget"],
    "commutation ground over 64": ["commutation", "--l", "70", "--n", "2"],
    "commutation degree fills ground": ["commutation", "--l", "5", "--n", "5"],
    "commutation negative trials": ["commutation", "--l", "5", "--n", "2", "--trials", "-3"],
    "bound negative degree": ["bound", "--m", "-1", "--n", "2"],
    "bound degree over 64": ["bound", "--m", "1", "--n", "20000"],
    "bound degrees over 64": ["bound", "--m", "1000", "--n", "1000"],
    "bound degree 65": ["bound", "--m", "65", "--n", "0"],
    "tau1n no degrees": ["tau1n", "--n", "0"],
    "kantor no grounds": ["kantor", "--max-l", "0"],
    "kantor ground over 64": ["kantor", "--max-l", "70"],
    "profile negative degree": ["profile", "--input", "cycle.json", "--max-n", "-1"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_two_before_any_work(argv, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    assert "agealg: error: " + argv[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("missing.json", None, "FileNotFoundError"),
        ("malformed.json", "{not json", "JSONDecodeError"),
        ("invalid.json", json.dumps({"base_size": 3, "signature": [2], "relations": [[[0, 5]]]}),
         "leaves the base"),
        ("list.json", "[1, 2]", "TypeError"),
        ("large.json", json.dumps({"base_size": 9, "signature": [2], "relations": [[]]}),
         "at most 8 points"),
        ("fractional.json",
         json.dumps({"base_size": 4.7, "signature": [2], "relations": [[[0, 1.9], [True, 0]]]}),
         "4.7 is not an integer"),
        ("fractional-entry.json",
         json.dumps({"base_size": 4, "signature": [2], "relations": [[[0, 1.9]]]}),
         "1.9 is not an integer"),
        ("boolean-entry.json",
         json.dumps({"base_size": 4, "signature": [2], "relations": [[[True, 0]]]}),
         "True is not an integer"),
        ("string-size.json", json.dumps({"base_size": "4", "signature": [2], "relations": [[]]}),
         "'4' is not an integer"),
        ("fractional-arity.json", json.dumps({"base_size": 4, "signature": [2.0], "relations": [[]]}),
         "2.0 is not an integer"),
        ("nested.json", "[" * 100_000 + "]" * 100_000, "RecursionError"),
    ],
)
def test_profile_bad_input_exits_two(tmp_path, name, text, message, capsys):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--input", str(path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _empty_relations(count):
    return {"base_size": 8, "signature": [1] * count, "relations": [[]] * count}


@pytest.mark.parametrize(
    "structure, scans",
    [
        (_empty_relations(100_000), "25,600,000"),
        (_empty_relations(20_000), "5,120,000"),
        ({"base_size": 8, "signature": [8], "relations": [list(permutations(range(8)))]},
         "10,322,176"),
    ],
    ids=["100k empty relations", "20k empty relations", "all permutations of 8"],
)
def test_profile_scan_cap_rejects_from_the_estimate(structure, scans, tmp_path, monkeypatch,
                                                    capsys):
    from agealgebra import cli

    def unreachable(*args):
        raise AssertionError("computed a profile past the cap")

    monkeypatch.setattr(cli, "check_profile_inequalities", unreachable)
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(structure))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--input", str(path)])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"{scans} relations and tuples" in err and "cap of 2,000,000" in err


def test_profile_scan_cap_admits_small_structures(tmp_path, monkeypatch):
    from agealgebra import cli

    def reached(*args):
        raise RuntimeError("admitted")

    monkeypatch.setattr(cli, "check_profile_inequalities", reached)
    every_4_tuple = [[a, b, c, d] for a in range(8) for b in range(8) for c in range(8)
                     for d in range(8)]
    structures = [
        {"base_size": 8, "signature": [4], "relations": [every_4_tuple]},
        structure_to_dict(_random_graph(8, 5)),
        _empty_relations(7_000),
    ]
    for i, structure in enumerate(structures):
        path = tmp_path / f"structure{i}.json"
        path.write_text(json.dumps(structure))
        code, rep = run(["profile", "--input", str(path)])
        assert code == 1 and rep["results"][-1]["computed"] == "RuntimeError: admitted"
    # --max-n bounds the restrictions: 1 + 8 + 28 of them scan 40,321 each.
    path = tmp_path / "permutations.json"
    path.write_text(json.dumps(
        {"base_size": 8, "signature": [8], "relations": [list(permutations(range(8)))]}))
    code, rep = run(["profile", "--input", str(path), "--max-n", "2"])
    assert code == 1 and rep["results"][-1]["computed"] == "RuntimeError: admitted"


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["gadget", "--m", "5", "--n", "4"], "11,468,800"),
        (["gadget", "--m", "32", "--n", "1"], "274,877,906,944"),
        (["tau1n", "--n", "16"], "2,097,152"),
    ],
)
def test_support_pair_cap_rejects_from_the_estimate(argv, pairs, monkeypatch, capsys):
    from agealgebra import cli

    def unreachable(*args):
        raise AssertionError("built a pair past the cap")

    monkeypatch.setattr(cli, "gadget_lower", unreachable)
    monkeypatch.setattr(cli, "gadget_tau1n", unreachable)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert pairs in err and "1,146,880" in err


def test_support_pair_cap_admits_every_small_gadget(monkeypatch):
    from agealgebra import cli

    def reached(*args):
        raise RuntimeError("admitted")

    monkeypatch.setattr(cli, "gadget_lower", reached)
    monkeypatch.setattr(cli, "gadget_tau1n", reached)
    argvs = [
        ["gadget", "--m", str(m), "--n", str(n)] for m in range(1, 8) for n in range(1, 9 - m)
    ]
    assert len(argvs) == 28
    for argv in argvs + [["tau1n", "--n", "15"]]:
        code, rep = run(argv)
        assert code == 1 and rep["results"][-1]["computed"] == "RuntimeError: admitted"
    assert cli._gadget_pairs(4, 4) == cli.MAX_SUPPORT_PAIRS


@pytest.mark.parametrize(
    "argv, cells, cap",
    [
        (["kantor", "--max-l", "11"], "1,893,493", "500,000"),
        (["kantor", "--max-l", "64"], "130,334,657,484,332,403,948,369,792,293,990,715,420", "500,000"),
        (["commutation", "--l", "10", "--n", "4"], "1,111,320", "1,000,000"),
        (["commutation", "--l", "7", "--n", "3", "--trials", "1000"], "1,226,225", "1,000,000"),
        (["commutation", "--l", "64", "--n", "32"], "68,391,501,654,571,565,209,116,535,399,286,795,904",
         "1,000,000"),
        (["search", "--m", "1", "--n", "3", "--l", "64"], "211,778,445,432", "10,000,000"),
        (["search", "--m", "1", "--n", "5", "--l", "13"], "17,670,456", "10,000,000"),
        (["search", "--m", "1", "--n", "3", "--l", "64", "--strategy", "random"], "211,778,445,312",
         "10,000,000"),
        (["search", "--m", "1", "--n", "30", "--l", "64", "--strategy", "gadget"],
         "7,095,874,893,891,685,440", "10,000,000"),
    ],
)
def test_matrix_cell_caps_reject_from_the_estimate(argv, cells, cap, monkeypatch, capsys):
    from agealgebra import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("built a matrix past the cap")

    monkeypatch.setattr(cli, "verify_kantor", unreachable)
    monkeypatch.setattr(cli, "check_commutation", unreachable)
    monkeypatch.setattr(cli, "search_best", unreachable)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"{cells} matrix cells" in err and f"cap of {cap}" in err


def test_matrix_cell_caps_admit_every_documented_invocation(monkeypatch):
    from agealgebra import cli

    def reached(*args, **kwargs):
        raise RuntimeError("admitted")

    monkeypatch.setattr(cli, "verify_kantor", reached)
    monkeypatch.setattr(cli, "check_commutation", reached)
    monkeypatch.setattr(cli, "search_best", reached)
    argvs = [
        ["kantor", "--max-l", "10"],
        ["kantor", "--max-l", "9"],
        ["commutation", "--l", "6", "--n", "2", "--trials", "20"],
        ["commutation", "--l", "7", "--n", "3", "--seed", "5"],
        ["commutation", "--l", "10", "--n", "4", "--trials", "17"],
        ["commutation", "--l", "64", "--n", "0", "--trials", "100"],
        ["search", "--m", "1", "--n", "2", "--l", "6", "--seed", "0", "--strategy", "all"],
        ["search", "--m", "1", "--n", "3", "--l", "8", "--seed", "5"],
        ["search", "--m", "1", "--n", "2", "--l", "4", "--seed", "5"],
        ["search", "--m", "2", "--n", "2", "--l", "8"],
        ["search", "--m", "2", "--n", "1", "--l", "7"],
        ["search", "--m", "1", "--n", "3", "--l", "16"],
        ["search", "--m", "2", "--n", "2", "--l", "40", "--strategy", "gadget"],
    ]
    for argv in argvs:
        code, rep = run(argv)
        assert code == 1 and rep["results"][-1]["computed"] == "RuntimeError: admitted"
    assert cli._kantor_cells(10) == 492_202 <= cli.MAX_KANTOR_CELLS
    assert cli._search_cells(1, 3, 16, "all") == 8_153_720 <= cli.MAX_SEARCH_CELLS


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["tau1n", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["nosuchcommand"])
    assert exc.value.code == 2


def test_json_round_trip_byte_identical():
    _, rep = run(["gadget", "--m", "1", "--n", "2"])
    blob = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    assert json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":")) == blob


def test_main_human_output(capsys):
    rc = main(["tau1n", "--n", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "claims pass" in out
    assert "[ok ]" in out


@pytest.mark.parametrize(
    "argv", [["two-squares", "--js"], ["two-squares", "--jso"], ["--json", "two-squares"]]
)
def test_abbreviated_or_leading_json_flag_prints_json(argv, capsys):
    rc = main(argv)
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["command"] == "two-squares"


def test_main_json_output(capsys):
    rc = main(["bound", "--m", "2", "--n", "2", "--json"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    parsed = json.loads(out)
    assert parsed["command"] == "bound"


# One parser serves every call in a process, so no call may leave a trace
# in the next one.

def test_one_parser_per_process():
    assert build_parser() is build_parser()


def test_json_flag_does_not_carry_over_to_the_next_call(capsys):
    assert main(["bound", "--m", "2", "--n", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "bound"
    assert main(["bound", "--m", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bound  (seed 0, ") and out.endswith(" claims pass\n")
    assert main(["--json", "bound", "--m", "2", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "bound"
    assert main(["bound", "--m", "2", "--n", "2"]) == 0
    assert not capsys.readouterr().out.startswith("{")


def test_seed_does_not_carry_over_to_the_next_call():
    argv = ["search", "--m", "1", "--n", "2", "--l", "4"]
    _, seeded = run(argv + ["--seed", "5"])
    _, plain = run(argv)
    assert (seeded["seed"], seeded["inputs"]["seed"]) == (5, 5)
    assert (plain["seed"], plain["inputs"]["seed"]) == (0, 0)
    assert plain["inputs"]["strategy"] == "all"


@pytest.mark.parametrize("bad", [
    ["search", "--m", "1", "--n", "2", "--l", "4", "--seed", "x"],
    ["search", "--m", "1", "--n", "2", "--l", "4", "--frobnicate", "--seed", "9"],
    ["search", "--m", "1", "--n", "2", "--l", "70", "--seed", "9"],
    ["--json", "kantor", "--max-l", "70"],
])
def test_a_usage_error_leaves_the_next_call_unchanged(bad, capsys):
    argv = ["search", "--m", "1", "--n", "2", "--l", "4"]
    _, before = run(argv)
    with pytest.raises(SystemExit) as exc:
        run(bad)
    assert exc.value.code == 2
    _, after = run(argv)
    before.pop("elapsed_ms")
    after.pop("elapsed_ms")
    assert after == before and after["seed"] == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("search  (seed 0, ")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["two-squares", "--json"], ["two-squares"]])
def test_closed_pipe_exits_one_without_a_traceback(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 1
    sys.stdout.close()  # the devnull stream main switched to
    assert sys.stdout.name == os.devnull
    assert capsys.readouterr().err == ""


# In-process fuzz of every subcommand: whatever the argv, `main` ends in
# exit 0, 1 or 2 and raises nothing but SystemExit.  Each flag takes a
# cheap in-range value or an extreme one.
FUZZ_EXTREMES = ["-1", "0", "65", str(10**20), str(-10**20), "1.5", "x", ""]
SMALL, GROUND = ["1", "2", "3"], ["2", "4", "6"]
FUZZ_FLAGS = {
    "kantor": {"--max-l": GROUND},
    "tau1n": {"--n": SMALL},
    "gadget": {"--m": SMALL, "--n": SMALL},
    "two-squares": {},
    "search": {"--m": SMALL, "--n": SMALL, "--l": GROUND, "--seed": SMALL},
    "bound": {"--m": SMALL, "--n": SMALL},
    "profile": {"--max-n": SMALL},
    "words": {"--seed": SMALL},
    "commutation": {"--l": GROUND, "--n": SMALL, "--trials": SMALL, "--seed": SMALL},
}
FUZZ_FILES = {
    "cycle": json.dumps({"base_size": 4, "signature": [2], "relations": [[[0, 1], [1, 2], [2, 3]]]}),
    "malformed": "{not json",
    "nested": "[" * 100_000 + "]" * 100_000,
    "list": "[1, 2]",
    "empty object": "{}",
    "leaves the base": json.dumps({"base_size": 3, "signature": [2], "relations": [[[0, 5]]]}),
    "scalar signature": json.dumps({"base_size": 3, "signature": 5, "relations": []}),
    "scalar relation": json.dumps({"base_size": 3, "signature": [2], "relations": [5]}),
    "scalar tuple": json.dumps({"base_size": 3, "signature": [2], "relations": [[5]]}),
    "zero arity": json.dumps({"base_size": 3, "signature": [0], "relations": [[]]}),
    "negative base": json.dumps({"base_size": -1, "signature": [], "relations": []}),
    "huge base": json.dumps({"base_size": 10**30, "signature": [], "relations": []}),
    "huge arity": json.dumps({"base_size": 3, "signature": [10**20], "relations": [[[0]]]}),
    "arity mismatch": json.dumps({"base_size": 3, "signature": [2, 1], "relations": [[]]}),
    "fractional": json.dumps({"base_size": 4.7, "signature": [2], "relations": [[]]}),
    "wide signature": json.dumps(_empty_relations(100_000)),
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, text in enumerate(FUZZ_FILES.values()):
        path = root / f"structure{i}.json"
        path.write_text(text)
        paths.append(str(path))
    (root / "latin1.json").write_bytes(b"\xff\xfe{")
    return paths + [str(root / "latin1.json"), str(root / "missing.json"), str(root)]


def _spelling(flag):
    """The flag or one of its prefixes; argparse takes an unambiguous one."""
    return st.integers(3, len(flag)).map(lambda k: flag[:k])


@st.composite
def fuzz_argvs(draw, paths):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    chunks = []
    for flag, small in FUZZ_FLAGS[command].items():
        if draw(st.integers(0, 9)):
            value = draw(st.sampled_from(small) | st.sampled_from(FUZZ_EXTREMES))
            chunks.append([draw(_spelling(flag)), value])
    if command == "search" and draw(st.booleans()):
        strategy = draw(st.sampled_from(["gadget", "random", "all", "bogus", "", "GADGET"]))
        chunks.append([draw(_spelling("--strategy")), strategy])
    if command == "profile" and draw(st.integers(0, 9)):
        chunks.append([draw(_spelling("--input")), draw(st.sampled_from(paths))])
    if command == "words" and draw(st.booleans()):
        chunks.append([draw(_spelling("--demo"))])
    if draw(st.booleans()):
        chunks.append([draw(_spelling("--json"))])
    if not draw(st.integers(0, 5)):
        chunks.append([draw(st.sampled_from(["--frobnicate", "--", "-x", "--seed", "7"]))])
    chunks = draw(st.permutations(chunks))
    return [command] + [arg for chunk in chunks for arg in chunk]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_zero_one_or_two(fuzz_paths, data):
    argv = data.draw(fuzz_argvs(fuzz_paths))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    assert code in (0, 1, 2), argv
