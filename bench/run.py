"""Benchmark of the agealg workbench.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Load shape: one client in a closed loop.  A run repeats passes of the
workload until `--seconds` would be exceeded; each pass is a fresh
interpreter (bench/worker.py) that sets up the seeded inputs and runs the
timed operations back to back, so library caches start cold as in a user's
`agealg` call.  Only one workload process exists at a time.  With `--trace 1`
traced and untraced passes alternate and the per-layer metrics of
bench/spans.py are reported instead of the end-to-end ones.

End-to-end metrics: `wall_ref` is the wall time of the timed operations in
units of a fixed reference loop (bench/worker.py) timed around and during
each operation in the same process.  On a shared host the speed of a CPU
drifts by tens of percent over seconds to minutes, and the reference
cancels much of that drift; the raw `wall_s` is printed beside it.  Both
sum each operation's median over the run's passes.  `setup_s` is the median
raw wall time from process launch to the first timed operation, over the
set-up probes and passes; `peak_rss_mb` the median peak resident memory of
a pass.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

# Passes still running this long after the run started are killed and their
# unfinished operation counts as failed, so a regression cannot hang a run.
RUN_LIMIT_S = 150.0
# Set-up-only processes per run, on top of the set-up of every pass.
SETUP_PROBES = 3


@dataclass
class Pass:
    traced: bool
    setup_s: float | None = None
    ops: list[dict] = field(default_factory=list)
    peak_rss_mb: float | None = None
    stats: dict | None = None
    problem: str | None = None  # why the pass ended early, if it did

    @property
    def wall_s(self) -> float:
        return sum(op["wall_s"] for op in self.ops)


def spawn(workload: str, seed: int, workdir: str, deadline: float, traced: bool = False,
          setup_only: bool = False) -> Pass:
    launch = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--launch", repr(launch), "--workdir", workdir,
           "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        problem = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        problem = f"killed at the {RUN_LIMIT_S:.0f} s run limit"
    p = Pass(traced)
    for line in out.splitlines():
        if not line.startswith("{"):
            continue  # stray output, not one of the worker's records
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # a record cut short when the worker was killed
        if "setup_s" in rec:
            p.setup_s = rec["setup_s"]
        elif "op" in rec:
            rec["wall_ref"] = rec["wall_s"] / rec["ref_s"]
            p.ops.append(rec)
        else:
            p.peak_rss_mb, p.stats = rec["peak_rss_mb"], rec["stats"]
    finished = p.setup_s is not None and (setup_only or p.peak_rss_mb is not None)
    if problem is None and not finished:
        problem = "worker stopped early"
    if problem and err.strip():
        problem += ": " + err.strip().splitlines()[-1]
    p.problem = problem
    return p


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, p: Pass) -> None:
        self.attempted += len(p.ops)
        for op in p.ops:
            if not op["ok"]:
                self.failed += 1
                self.errors.append(f"{op['op']}: {op['error']}")
        if p.problem:  # the operation in flight (or the set-up) failed
            self.attempted += 1
            self.failed += 1
            self.errors.append(p.problem)


def _median(values: list[float]) -> float | None:
    """Median, or None (JSON null) when every pass that would give a value failed."""
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str):
    """Run passes of one workload for `seconds`.

    Returns (tally, metrics, shown, detail): `metrics` go into the result line,
    `shown` and `detail` are only printed.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    tally = Tally()
    setups = []
    for _ in range(SETUP_PROBES):
        p = spawn(workload, seed, workdir, deadline, setup_only=True)
        tally.add(p)
        if p.setup_s is not None:
            setups.append(p.setup_s)
    passes: list[Pass] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        for traced in (False, True) if trace else (False,):
            passes.append(spawn(workload, seed, workdir, deadline, traced=traced))
            tally.add(passes[-1])
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > seconds:
            break
    plain = [p for p in passes if not p.traced]
    setups += [p.setup_s for p in plain if p.setup_s is not None]

    detail = [f"{workload}: {len(plain)} passes, {SETUP_PROBES} set-up probes, "
              f"{tally.attempted} ops attempted, {tally.failed} failed"]
    walls, refs = _by_op(plain, "wall_s"), _by_op(plain, "wall_ref")
    detail += [f"  op {name:<32} {statistics.median(w):9.4f} s {statistics.median(refs[name]):9.1f} ref"
               f"  median of {len(w)}" for name, w in walls.items()]
    detail += [f"  FAILED {e}" for e in tally.errors]

    if not trace:
        metrics = {
            "wall_ref": (sum(map(statistics.median, refs.values())), "ref"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (_median([p.peak_rss_mb for p in plain if p.peak_rss_mb is not None]), "MB"),
        }
        shown = {
            "wall_s": (sum(map(statistics.median, walls.values())), "s"),
            "fail_ratio": (tally.failed / tally.attempted, "1"),
        }
        return tally, metrics, shown, detail

    traced = [p for p in passes if p.traced and p.stats is not None]
    metrics = {}
    for name, unit, _ in spans.CATALOGUE:
        if not name.startswith("trace."):
            metrics[name] = (_median([spans.metric_value(p.stats, name) for p in traced]), unit)
    # Raw wall times: traced passes time the reference loop only between
    # operations (worker.ReferenceProbe), so their wall_ref is not comparable.
    traced_wall = _median([p.wall_s for p in traced])
    plain_wall = _median([p.wall_s for p in plain])
    overhead = traced_wall / plain_wall - 1 if traced_wall and plain_wall else None
    metrics["trace.overhead_ratio"] = (overhead, "1")
    shares = [spans.target_seconds(p.stats, workload) / p.wall_s for p in traced if p.wall_s]
    metrics["trace.target_share"] = (_median(shares), "1")
    return tally, metrics, {}, detail


def _by_op(passes: list[Pass], key: str) -> dict[str, list[float]]:
    """Values of one op field across passes, keyed by operation name."""
    out: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            out.setdefault(op["op"], []).append(op[key])
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "agealgebra")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def header(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "load": "closed loop, one client, one single-threaded workload process at a time",
        "measured": "only the benchmark's own processes; no cache dropping, no CPU pinning",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="agealg benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "agealgebra", "__init__.py")):
        print(f"no agealgebra sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("# " + json.dumps(header(args.seed)))
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    total = Tally()
    result: dict[str, dict] = {}
    try:
        for name in names:
            tally, metrics, shown, detail = measure(name, args.seed, args.seconds, bool(args.trace), workdir)
            total.attempted += tally.attempted
            total.failed += tally.failed
            print("\n".join(detail))
            for metric, (value, unit) in {**metrics, **shown}.items():
                text = "missing" if value is None else f"{value:.6f}"
                print(f"  {name:<9} {metric:<44} {text:>14} {unit}")
            prefix = f"{name}." if len(names) > 1 else ""
            result.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
