"""Spans around agealgebra's public functions, and the per-layer metrics.

The library is not edited: a `Tracer` wraps each function named in `LAYERS`
and installs the wrapper under every name that an agealgebra module binds to
the original object.  Modules import names directly (`cli` calls its own
`verify`, `witnesses` its own `product_by_splits`), so patching only the
defining module would miss most calls.

Per function the tracer keeps `calls`, `s` (inclusive time of outermost
activations), `self_s` (duration minus the time covered by directly nested
spans) and the counts its counter adds.  Counters run after the span has
closed, and their time is also taken out of the caller's self time, so the
accounting does not show up as work of any layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import comb


def _ksubsets(st, args, kwargs, result):
    st["sets"] += len(result)


def _splits(st, args, kwargs, result):
    st["pairs"] += len(result)


def _product_by_splits(st, args, kwargs, result):
    f, g = args
    st["sets"] += comb(f.n, f.degree + g.degree)
    # A set Q can carry a nonzero product only when Q = A | B for disjoint
    # A in supp(f) and B in supp(g); those are the useful sets checked.
    unions = set()
    for a in f.coeffs:
        am = a.mask
        for b in g.coeffs:
            if not am & b.mask:
                unions.add(am | b.mask)
    st["useful"] += len(unions)


def _product(st, args, kwargs, result):
    f, g = args
    st["pairs"] += len(f.coeffs) * len(g.coeffs)


def _mult_matrix(st, args, kwargs, result):
    st["cells"] += result.matrix.rows * result.matrix.cols


def _cofactor(st, args, kwargs, result):
    st["found"] += result is not None


def _tau(st, args, kwargs, result):
    st["nodes"] += result.nodes_expanded
    st["root_gap"] += result.size - result.root_lower_bound


def _matrix_cells(st, args, kwargs, result):
    st["cells"] += args[0].rows * args[0].cols


def _nullspace_basis(st, args, kwargs, result):
    _matrix_cells(st, args, kwargs, result)
    st["kernel_dim"] += len(result)


def _matmul(st, args, kwargs, result):
    a, b = args
    st["mults"] += a.rows * a.cols * b.cols


def _max_shuffle(st, args, kwargs, result):
    u, v = args
    st["interleavings"] += comb(len(u) + len(v), len(u))


# (module, function, counter, statistics reported by a traced run), in the
# order of the metric catalogue.
LAYERS = (
    ("subsets", "ksubsets", _ksubsets, "calls sets self_s"),
    ("subsets", "splits", _splits, "calls pairs self_s"),
    ("setfuncs", "product_by_splits", _product_by_splits, "calls sets self_s useful_ratio"),
    ("setfuncs", "product", _product, "calls pairs self_s"),
    ("setfuncs", "mult_matrix", _mult_matrix, "calls cells self_s"),
    ("setfuncs", "cofactor", _cofactor, "calls found_ratio self_s"),
    ("hitting", "tau", _tau, "calls s nodes root_gap"),
    ("linalg", "rank", _matrix_cells, "calls cells s"),
    ("linalg", "nullspace_basis", _nullspace_basis, "calls cells kernel_dim s"),
    ("linalg", "matmul", _matmul, "calls mults s"),
    ("incidence", "verify_kantor", None, "self_s"),
    ("incidence", "check_commutation", None, "self_s"),
    ("witnesses", "verify", None, "self_s"),
    ("witnesses", "gadget_lower", None, "s"),
    ("witnesses", "gadget_full_support", None, "s"),
    ("witnesses", "search_best", None, "self_s"),
    # counted by Tracer.canonical_key_counter, which needs the tracer's key set
    ("relational", "canonical_form", None, "calls distinct hit_ratio s"),
    ("relational", "profile", None, "self_s"),
    ("relational", "check_profile_inequalities", None, "self_s"),
    ("words", "max_shuffle", _max_shuffle, "calls interleavings s"),
    ("words", "shuffle_product", None, "s"),
    ("words", "leading_product_check", None, "self_s"),
    ("cli", "run", None, "calls self_s"),
)

# Ratio metrics: numerator count over denominator count of the same function.
RATIOS = {
    "useful_ratio": ("useful", "sets"),
    "found_ratio": ("found", "calls"),
    "hit_ratio": ("hits", "calls"),
}


def _unit(stat: str) -> str:
    if stat in ("s", "self_s"):
        return "s"
    return "1" if stat in RATIOS else "count"


# Per-layer metrics of a traced run, as (name, unit, better).
CATALOGUE = tuple(
    (f"{module}.{func}.{stat}", _unit(stat), "higher" if stat in RATIOS else "lower")
    for module, func, _, stats in LAYERS
    for stat in stats.split()
) + (
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.target_share", "1", "lower"),
)


class Tracer:
    """Aggregates spans of wrapped functions in one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self._covered: list[list[float]] = []  # per open span: nested time
        self._depth: dict[str, int] = {}
        self._keys: set = set()

    def wrap(self, name: str, fn, counter=None):
        """Return `fn` recording spans under `name`; `counter` adds counts."""
        stats = self.stats.setdefault(name, Counter(calls=0, s=0.0, self_s=0.0))
        covered = self._covered
        depth = self._depth
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = [0.0]
            covered.append(nested)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                covered.pop()
                depth[name] -= 1
                duration = end - start
                stats["calls"] += 1
                stats["self_s"] += duration - nested[0]
                if not depth[name]:
                    stats["s"] += duration
                if covered:
                    covered[-1][0] += duration
            if counter is not None:
                t0 = clock()
                counter(stats, args, kwargs, result)
                if covered:
                    covered[-1][0] += clock() - t0
            return result

        return wrapper

    def canonical_key_counter(self, st, args, kwargs, result):
        """Count a call as a hit when its structure's raw key was seen before."""
        r = args[0]
        key = (r.base_size, r.signature, r.encode())
        if key in self._keys:
            st["hits"] += 1
        else:
            self._keys.add(key)
            st["distinct"] += 1

    def install(self) -> None:
        """Wrap every function in LAYERS wherever agealgebra binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "agealgebra" or n.startswith("agealgebra.")]
        for module, func, counter, _ in LAYERS:
            if func == "canonical_form":
                counter = self.canonical_key_counter
            owner = sys.modules[f"agealgebra.{module}"]
            original = getattr(owner, func)
            wrapper = self.wrap(f"{module}.{func}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def metric_value(stats: dict, name: str) -> float:
    """Value of catalogue metric `name` from per-function stats (0 if unused)."""
    fn, stat = name.rsplit(".", 1)
    st = stats.get(fn, {})
    if stat in RATIOS:
        num, den = RATIOS[stat]
        return st.get(num, 0) / st[den] if st.get(den) else 0.0
    return st.get(stat, 0)


# Time each workload was chosen to load, as a share of its traced wall time.
TARGETS = {
    "certify": ("setfuncs.product_by_splits.self_s", "subsets.splits.self_s", "hitting.tau.self_s"),
    "kernels": (
        "linalg.rank.self_s",
        "linalg.nullspace_basis.self_s",
        "linalg.matmul.self_s",
        "incidence.verify_kantor.self_s",
        "incidence.check_commutation.self_s",
    ),
    "profiles": ("relational.canonical_form.self_s", "words.max_shuffle.self_s"),
}


def target_seconds(stats: dict, workload: str) -> float:
    return sum(metric_value(stats, name) for name in TARGETS[workload])
