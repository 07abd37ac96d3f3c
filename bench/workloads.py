"""The benchmark's workloads: seeded inputs, timed operations, output checks.

`generate` turns (workload, seed) into a JSON-able description of the inputs
using only the standard library, so the same seed always gives byte-identical
inputs.  `prepare` builds the library objects from it and returns the timed
operations; each comes with a check that re-derives correctness without the
code path that produced the result.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable

WORKLOADS = ("certify", "kernels", "profiles")

# Block gadgets whose union supports `tau` solves directly.  (4, 4) is the
# tau half of `gadget --m 4 --n 4`, which does not finish in 300 s as a
# whole (see "frontier" in layers.json) and so stays out of the timed ops.
GADGET_TAU = ((4, 4), (4, 3), (6, 2))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _random_family(rng: random.Random, points: int, size: int, count: int) -> list[int]:
    masks: set[int] = set()
    while len(masks) < count:
        masks.add(sum(1 << i for i in rng.sample(range(points), size)))
    return sorted(masks)


# Random structures hold exactly half of the possible edges or tuples: the
# cost of canonical forms grows with the tuple count, so a fixed count keeps
# the work of a profile from swinging with the seed.

def _random_graph(rng: random.Random, n: int) -> dict:
    pairs = list(combinations(range(n), 2))
    edges = sorted(rng.sample(pairs, len(pairs) // 2))
    return {"base_size": n, "signature": [2], "relations": [[[a, b] for a, b in edges] + [[b, a] for a, b in edges]]}


def _random_relation(rng: random.Random, n: int, arity: int) -> dict:
    tuples = [list(t) for t in product(range(n), repeat=arity) if len(set(t)) == arity]
    return {"base_size": n, "signature": [arity], "relations": [sorted(rng.sample(tuples, len(tuples) // 2))]}


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload for one seed, as plain JSON-able data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return {
            "cli": [
                ["tau1n", "--n", "5"],
                ["two-squares"],
                ["gadget", "--m", "3", "--n", "3"],
                ["gadget", "--m", "4", "--n", "2"],
                ["gadget", "--m", "5", "--n", "2"],
            ],
            "gadget_tau": [list(mn) for mn in GADGET_TAU],
            "random_tau": [_random_family(rng, 32, 4, 250) for _ in range(3)],
        }
    if workload == "kernels":
        # The cost of one search swings about threefold with its seed (the
        # sizes of the random supports it draws), so four searches on 8
        # points stand in for one on 9 points: similar work, steadier total.
        searches = [["search", "--m", "1", "--n", "3", "--l", "8", "--seed", str(rng.randrange(10**6))]
                    for _ in range(4)]
        return {
            "cli": [
                ["kantor", "--max-l", "9"],
                ["commutation", "--l", "7", "--n", "3", "--seed", str(rng.randrange(10**6))],
                *searches,
                ["gadget", "--m", "2", "--n", "4"],
            ],
        }
    return {
        "structures": [
            _random_graph(rng, 8),
            _random_graph(rng, 8),
            _random_relation(rng, 8, 2),
            _random_relation(rng, 7, 3),
        ],
        "words_seed": rng.randrange(10**6),
        "shuffle_pairs": [[[rng.randint(1, 7) for _ in range(9)] for _ in range(2)] for _ in range(2)],
    }


def is_transversal(mask: int, members: list[int]) -> bool:
    for m in members:
        if not mask & m:
            return False
    return True


def is_interleaving(w: list[int], u: list[int], v: list[int]) -> bool:
    """True iff w merges u and v, each kept in order (dynamic programming)."""
    if len(w) != len(u) + len(v):
        return False
    # reach[j]: w[:i+j] can be formed from u[:i] and v[:j]
    reach = [True] + [False] * len(v)
    for j in range(1, len(v) + 1):
        reach[j] = reach[j - 1] and v[j - 1] == w[j - 1]
    for i in range(1, len(u) + 1):
        reach[0] = reach[0] and u[i - 1] == w[i - 1]
        for j in range(1, len(v) + 1):
            reach[j] = (reach[j] and u[i - 1] == w[i + j - 1]) or (reach[j - 1] and v[j - 1] == w[i + j - 1])
    return reach[-1]


def _cli_op(argv: list[str], name: str | None = None) -> Op:
    from agealgebra import cli

    def check(outcome) -> bool:
        code, report = outcome
        return code == 0 and bool(report["results"]) and all(r["pass"] for r in report["results"])

    return Op(name or "cli " + " ".join(argv), lambda: cli.run(argv), check)


def _tau_op(name: str, family, expected: int | None) -> Op:
    from agealgebra import hitting

    masks = family.masks()

    def check(result) -> bool:
        witness = result.witness.mask
        return (
            (expected is None or result.size == expected)
            and witness.bit_count() == result.size
            and is_transversal(witness, masks)
        )

    return Op(name, lambda: hitting.tau(family), check)


def _shuffle_op(name: str, u: list[int], v: list[int]) -> Op:
    from agealgebra import words

    wu, wv = words.Word(u), words.Word(v)
    return Op(name, lambda: words.max_shuffle(wu, wv), lambda w: is_interleaving(list(w), u, v))


def prepare(workload: str, inputs: dict, workdir: str) -> list[Op]:
    """Build library inputs (this is set-up) and return the timed operations.

    `workdir` receives the files that CLI operations read.
    """
    from agealgebra import witnesses
    from agealgebra.subsets import SetFamily, Subset

    ops = [_cli_op(argv) for argv in inputs.get("cli", [])]
    if workload == "certify":
        for m, n in inputs["gadget_tau"]:
            pair = witnesses.gadget_lower(m, n)
            family = pair.f.support().union(pair.g.support())
            ops.append(_tau_op(f"tau gadget({m},{n})", family, (m + 1) * (n + 1) - 2))
        for i, masks in enumerate(inputs["random_tau"]):
            family = SetFamily(32, [Subset(32, m) for m in masks])
            ops.append(_tau_op(f"tau random#{i}", family, None))
    elif workload == "profiles":
        for i, structure in enumerate(inputs["structures"]):
            path = os.path.join(workdir, f"structure{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(structure, fh)
            ops.append(_cli_op(["profile", "--input", path], f"cli profile structure{i}"))
        ops.append(_cli_op(["words", "--demo", "--seed", str(inputs["words_seed"])]))
        for i, (u, v) in enumerate(inputs["shuffle_pairs"]):
            ops.append(_shuffle_op(f"max_shuffle#{i}", u, v))
    return ops
