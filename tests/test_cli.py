"""Front-end behavior: reports, exit codes, canonical JSON."""

import io
import json
import os
import random
import sys
import time

import pytest

from agealgebra.cli import build_parser, main, run
from agealgebra.relational import RelStructure, check_profile_inequalities, structure_to_dict
from agealgebra.setfuncs import dumps_canonical


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
    assert code == 1 and [r["pass"] for r in rep["results"]] == [True, True, False]


@pytest.mark.parametrize("m, n, present", [(1, 3, True), (3, 1, True), (2, 2, False)])
def test_search_linear_case_claims_the_exact_upper_bound(m, n, present):
    code, rep = run(["search", "--m", str(m), "--n", str(n), "--l", "8"])
    assert code == 0
    upper = [r for r in rep["results"] if r["claim"].startswith("best tau is at most")]
    want = {"claim": "best tau is at most tau(1,3) = 2*max(m,n) = 6",
            "expected": True, "computed": True, "pass": True}
    assert upper == ([want] if present else [])


def test_search_upper_bound_claim_fails_above_two_max(monkeypatch):
    from agealgebra import cli
    from agealgebra.witnesses import gadget_tau1n, verify

    # tau 8 from the (1,4) gadget exceeds tau(1,3) = 6
    monkeypatch.setattr(cli, "search_best", lambda *a, **k: verify(gadget_tau1n(4)))
    code, rep = run(["search", "--m", "1", "--n", "3", "--l", "8"])
    assert code == 1 and [r["pass"] for r in rep["results"]] == [True, True, True, False]
    assert rep["results"][-1]["claim"].startswith("best tau is at most")


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
    g = RelStructure.graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(structure_to_dict(g)))
    code, rep = run(["profile", "--input", str(path)])
    assert code == 0
    assert rep["results"][0]["computed"] == [1, 1, 2, 1, 1]


def test_profile_command_max_n_truncates(tmp_path):
    g = RelStructure.graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
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
    g = RelStructure.graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(structure_to_dict(g)))
    code, rep = run(["profile", "--input", str(path), "--max-n", "2"])
    assert code == 0
    assert sorted(calls) == [0, 1, 2]
    assert rep["results"][0]["computed"] == [1, 1, 2]


def _random_graph(points, seed):
    rng = random.Random(seed)
    edges = [(a, b) for a in range(points) for b in range(a + 1, points) if rng.random() < 0.5]
    return RelStructure.graph(points, edges)


@pytest.mark.parametrize(
    "structure",
    [RelStructure.graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), _random_graph(8, 5)],
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
    from agealgebra.subsets import Subset

    def wrong(f, g):
        degree = f.degree + g.degree
        return SetFunction(f.n, degree, {Subset(f.n, (1 << degree) - 1): 3})

    monkeypatch.setattr(witnesses, "product_by_splits", wrong)
    code, rep = run(argv)
    assert code == 1
    failed = [r for r in rep["results"] if not r["pass"]]
    assert failed and all("multiplies to zero" in r["claim"] for r in failed)
    for r in failed:
        degree = len(r["computed"]["set"])
        assert r["computed"] == {"set": list(range(degree)), "value": {"num": "3", "den": "1"}}
    assert not any("internal failure" in c for c in claims(rep))


def test_failing_pair_names_its_colex_first_nonzero_set(monkeypatch, capsys):
    from fractions import Fraction

    from agealgebra import cli
    from agealgebra.setfuncs import SetFunction, product
    from agealgebra.subsets import Subset
    from agealgebra.witnesses import NotAZeroDivisorPairError, WitnessPair, verify

    def sf(terms):
        return SetFunction(4, 1, {Subset.from_indices(4, [i]): v for i, v in terms.items()})

    # {0, 1} cancels (1/3 * 3/14 - 2/7 * 1/4 = 0); {0, 2} is first nonzero
    f = sf({0: Fraction(1, 3), 1: Fraction(-2, 7)})
    g = sf({0: Fraction(1, 4), 1: Fraction(3, 14), 2: Fraction(5, 6)})
    pair = WitnessPair(f, g)
    with pytest.raises(NotAZeroDivisorPairError) as exc:
        verify(pair)
    offender, value = exc.value.offending, exc.value.value
    assert offender == Subset.from_indices(4, [0, 2])
    assert type(value) is Fraction and (value.numerator, value.denominator) == (5, 18)
    assert value == product(f, g).value(offender)

    monkeypatch.setattr(cli, "gadget_lower", lambda m, n: pair)
    assert main(["gadget", "--m", "1", "--n", "1", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failed = [r for r in rep["results"] if not r["pass"]]
    assert [r["claim"] for r in failed] == ["block gadget (1,1) multiplies to zero"]
    assert failed[0]["computed"] == {"set": [0, 2], "value": {"num": "5", "den": "18"}}


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
    gadget_4_4 = build_parser().parse_args(["gadget", "--m", "4", "--n", "4"])
    assert cli._support_pairs(gadget_4_4) == cli.MAX_SUPPORT_PAIRS


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
    kantor_10 = build_parser().parse_args(["kantor", "--max-l", "10"])
    assert cli._matrix_cells(kantor_10) == 492_202 <= cli.MAX_KANTOR_CELLS
    search_16 = build_parser().parse_args(["search", "--m", "1", "--n", "3", "--l", "16"])
    assert cli._matrix_cells(search_16) == 8_153_720 <= cli.MAX_SEARCH_CELLS


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["tau1n", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["nosuchcommand"])
    assert exc.value.code == 2


def test_json_round_trip_byte_identical():
    _, rep = run(["gadget", "--m", "1", "--n", "2"])
    blob = dumps_canonical(rep)
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
