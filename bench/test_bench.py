"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from itertools import combinations, product

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_nested_spans(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def leaf():
            clock.advance(3.0)

        def counted_leaf():
            clock.advance(2.0)

        def slow_counter(st, args, kwargs, result):
            st["seen"] += 1
            clock.advance(5.0)  # accounting, charged to nobody

        leaf = tracer.wrap("m.leaf", leaf)
        counted_leaf = tracer.wrap("m.counted", counted_leaf, slow_counter)

        def outer():
            clock.advance(1.0)
            leaf()
            clock.advance(2.0)
            leaf()
            counted_leaf()
            clock.advance(0.5)

        tracer.wrap("m.outer", outer)()
        st = tracer.stats
        self.assertEqual(st["m.outer"]["s"], 16.5)
        self.assertEqual(st["m.outer"]["self_s"], 3.5)
        self.assertEqual((st["m.leaf"]["calls"], st["m.leaf"]["s"], st["m.leaf"]["self_s"]), (2, 6.0, 6.0))
        self.assertEqual((st["m.counted"]["self_s"], st["m.counted"]["seen"]), (2.0, 1))

    def test_recursive_calls_count_inclusive_time_once(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def fact(n):
            clock.advance(1.0)
            return 1 if n <= 1 else n * fact(n - 1)

        fact = tracer.wrap("m.fact", fact)
        self.assertEqual(fact(4), 24)
        st = tracer.stats["m.fact"]
        self.assertEqual((st["calls"], st["s"], st["self_s"]), (4, 4.0, 4.0))


class FakeStructure:
    def __init__(self, edges):
        self.base_size = 3
        self.signature = (2,)
        self.edges = edges

    def encode(self):
        return (tuple(sorted(self.edges)),)


class HitRatioTest(unittest.TestCase):
    def test_repeated_keys_are_hits(self):
        tracer = spans.Tracer()
        canon = tracer.wrap("relational.canonical_form", lambda r: r.encode(), tracer.canonical_key_counter)
        a, b = FakeStructure({(0, 1)}), FakeStructure({(1, 2)})
        for r in (a, a, b, FakeStructure({(0, 1)}), a):
            canon(r)
        st = tracer.stats
        self.assertEqual(spans.metric_value(st, "relational.canonical_form.calls"), 5)
        self.assertEqual(spans.metric_value(st, "relational.canonical_form.distinct"), 2)
        self.assertEqual(spans.metric_value(st, "relational.canonical_form.hit_ratio"), 3 / 5)

    def test_unused_layer_reads_zero(self):
        self.assertEqual(spans.metric_value({}, "relational.canonical_form.hit_ratio"), 0.0)
        self.assertEqual(spans.metric_value({}, "hitting.tau.nodes"), 0)


def input_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(workloads.generate(workload, seed), sort_keys=True).encode()


class InputsTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = input_bytes(name, 7)
                self.assertEqual(first, input_bytes(name, 7))
                self.assertNotEqual(first, input_bytes(name, 8))

    def test_random_families_are_four_uniform_and_distinct(self):
        for masks in workloads.generate("certify", 3)["random_tau"]:
            self.assertEqual(len(set(masks)), 250)
            self.assertTrue(all(m.bit_count() == 4 and m < 1 << 32 for m in masks))

    def test_structures_hold_half_of_the_possible_tuples(self):
        counts = [len(s["relations"][0]) for s in workloads.generate("profiles", 3)["structures"]]
        self.assertEqual(counts, [28, 28, 28, 105])


class ChecksTest(unittest.TestCase):
    def test_interleaving_matches_enumeration(self):
        u, v = [1, 2, 1], [2, 1]
        merges = set()
        for pos in combinations(range(5), 3):
            w, ui, vi = [], iter(u), iter(v)
            for i in range(5):
                w.append(next(ui) if i in pos else next(vi))
            merges.add(tuple(w))
        for w in product((1, 2), repeat=5):
            self.assertEqual(workloads.is_interleaving(list(w), u, v), w in merges, w)
        self.assertFalse(workloads.is_interleaving([1, 2, 1, 2], u, v))

    def test_transversal_check(self):
        self.assertTrue(workloads.is_transversal(0b101, [0b001, 0b110, 0b100]))
        self.assertFalse(workloads.is_transversal(0b001, [0b001, 0b110]))


class ReferenceProbeTest(unittest.TestCase):
    def test_only_samples_inside_the_operation_are_subtracted(self):
        import worker

        probe = worker.ReferenceProbe(during_ops=False)
        probe.ticks = [(0.5, 0.01), (1.0, 0.02), (2.0, 0.04)]
        self.assertAlmostEqual(probe.time_in(1.0, 2.0), 0.02)

    def test_take_keeps_the_last_block_for_the_next_operation(self):
        import worker

        probe = worker.ReferenceProbe(during_ops=False)
        probe.samples = [9.0] * probe.BLOCK + [1.0, 2.0, 3.0] + [4.0] * probe.BLOCK
        self.assertEqual(probe.take(), 4.0)
        self.assertEqual(probe.samples, [4.0] * probe.BLOCK)


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_lists_every_traced_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([m["name"] for m in bench["per_layer"]], [m[0] for m in spans.CATALOGUE])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))

    def test_layer_map_names_known_metrics_and_workloads(self):
        with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
            layers = json.load(fh)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            end_to_end = [m["name"] for m in json.load(fh)["end_to_end"]]
        names = {m[0] for m in spans.CATALOGUE}
        for row in layers["layers"]:
            self.assertTrue(set(row["metrics"]) <= names, row["layer"])
            for move in row["moves"]:
                self.assertIn(move["workload"], workloads.WORKLOADS)
                self.assertIn(move["metric"], end_to_end)


class InstallTest(unittest.TestCase):
    def test_wrappers_reach_names_bound_by_callers(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import agealgebra.cli

        modules = [m for n, m in sys.modules.items() if n.startswith("agealgebra")]
        saved = [(m, dict(vars(m))) for m in modules]
        try:
            tracer = spans.Tracer()
            tracer.install()
            code, _ = agealgebra.cli.run(["tau1n", "--n", "2"])
            self.assertEqual(code, 0)
        finally:
            for m, names in saved:
                vars(m).update(names)
        st = tracer.stats
        self.assertEqual(st["cli.run"]["calls"], 1)
        self.assertEqual(st["witnesses.verify"]["calls"], 2)
        self.assertEqual(st["setfuncs.product_by_splits"]["calls"], 2)
        self.assertEqual(st["hitting.tau"]["calls"], 2)
        self.assertGreater(st["subsets.splits"]["pairs"], 0)


if __name__ == "__main__":
    unittest.main()
