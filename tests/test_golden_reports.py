"""Each subcommand's `--json` report, with `elapsed_ms` removed, hashes to a
pinned SHA-256.

A refactor that must leave the reports byte-identical is checked here: any
change to a claim, a value or the key order changes a hash.  A change to a
report's content made on purpose updates the hash beside it.
"""

import hashlib
import json
import re

import pytest

from agealgebra.cli import main

# The path 0-1-2-3-4 with the chord 1-3, as in CI's reproducibility step.
GRAPH = {
    "base_size": 5,
    "signature": [2],
    "relations": [[[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3], [1, 3], [3, 1]]],
}

GOLDEN = {
    "kantor --max-l 6":
        "3f000c806c88761386ef574fbf9fc52434e6f36e15a9ea6e5a619bfeb31d3a0b",
    "tau1n --n 6":
        "344441b6e620dc755c0b59d5bf80d2d88bbb7d98d1aba15f63c671a0f0e01640",
    "gadget --m 2 --n 3":
        "15f687d8afe241bbade56ab51d3efe6d98ec6fe60435f007431351ae7d923bde",
    "two-squares":
        "27abd0fd8692b0219667cae309f6623c27a98372c66367ef4c1644f8f5d0ddcf",
    "search --m 1 --n 3 --l 8":
        "983ecb82606d14262c81fdf33cb48a5d6377c55f4cf71ef018a6c749723b3605",
    "bound --m 2 --n 3":
        "78f72db0d3c05cc444050748051b35f82ce49add369cc8cc97f3ec7e13e11eaf",
    "profile --input graph.json":
        "99c0eac379be0c465e7f279b587d8c254015333d61aa3d252a0a517c7a157708",
    "words --seed 7":
        "ae94d88ac29e88d8706a59d6ffa0e853adfec0b26427b8017dd175b930cd2c35",
    "commutation --l 7 --n 3":
        "511efed4c73f94b7cd1f7f46f30c11282c729f252500873e83a0de4af4044d56",
    # The argv of the benchmark's kernels workload.
    "kantor --max-l 9":
        "24f72cc0bb33d65c0921e504a379f9b6c6787d4a5f9c0118d0bbf8008c099194",
    "commutation --l 7 --n 3 --seed 770802":
        "ceb57847d2ae788aed14585888f6b8dc94ceaa4dea437c6c2a58771808d2bc1b",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_json_report_bytes_are_pinned(argv, tmp_path, monkeypatch, capsys):
    # The report records the input path, so the graph is read by a relative name.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.json").write_text(json.dumps(GRAPH), encoding="utf-8")
    assert main(argv.split() + ["--json"]) == 0
    report = re.sub(r'"elapsed_ms":\d+,', "", capsys.readouterr().out)
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN[argv]
