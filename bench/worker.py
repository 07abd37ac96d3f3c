"""One pass of one workload, in a fresh interpreter.

Run by run.py, one process at a time.  Prints one JSON object per line:
first {"setup_s"}, then one {"op", "wall_s", "ref_s", "ok", "error"} per
timed operation, then {"peak_rss_mb", "stats"}.  `setup_s` runs from the
parent's launch timestamp (CLOCK_MONOTONIC, shared by both processes) to the
first timed operation: interpreter start, `import agealgebra` and input
set-up.  `ref_s` is the median duration of a fixed reference loop timed on
the same CPU around and during the operation, so that run.py can express the
operation's time in units of the host's current speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference() -> int:
    """Fixed interpreter-bound work: the yardstick for the host's current speed."""
    acc: dict = {}
    total = 0
    for i in range(20000):
        key = (i % 61, i % 53)
        acc[key] = acc.get(key, 0) + i
        total += (i * i) & 0xFFFF
    for v in sorted(acc.values(), reverse=True)[:200]:
        total += Fraction(v, 7).numerator
    return total


class ReferenceProbe:
    """Times `reference` between operations and, optionally, during them.

    During an operation a SIGALRM handler runs the loop every `every_s`
    seconds.  Python runs the handler in the main thread between bytecodes,
    so the sample sees the CPU the operation runs on; its duration is
    subtracted from the operation's wall time.  Traced passes sample only
    between operations, so the handler's time never lands inside a span.
    """

    BLOCK = 5  # reference runs before and after each operation

    def __init__(self, during_ops: bool, every_s: float = 0.2):
        self.during_ops = during_ops
        self.every_s = every_s
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []  # (start, duration) during the operation

    def _sample(self) -> tuple[float, float]:
        start = time.perf_counter()
        reference()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        return start, duration

    def _tick(self, signum, frame) -> None:
        self.ticks.append(self._sample())

    def block(self) -> None:
        for _ in range(self.BLOCK):
            self._sample()

    @contextmanager
    def during(self):
        self.ticks = []
        if self.during_ops:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield
        finally:
            if self.during_ops:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time_in(self, start: float, end: float) -> float:
        """Reference time spent inside [start, end) of the last operation."""
        return sum(d for s, d in self.ticks if start <= s < end)

    def take(self) -> float:
        """Median sample since the last take; the latest block carries over."""
        ref = statistics.median(self.samples)
        self.samples = self.samples[-self.BLOCK:]
        return ref


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import agealgebra.cli  # noqa: F401  (loads every module, so the tracer can patch them)
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.prepare(args.workload, workloads.generate(args.workload, args.seed), args.workdir)
    emit({"setup_s": time.monotonic() - args.launch})
    if args.setup_only:
        return 0

    probe = ReferenceProbe(during_ops=tracer is None)
    probe.block()
    for op in ops:
        result, error = None, None
        with probe.during():
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as ex:  # noqa: BLE001 - a failing op is counted, not fatal
                error = f"{type(ex).__name__}: {ex}"
            end = time.perf_counter()
        wall = end - start - probe.time_in(start, end)
        ok = False
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception as ex:  # noqa: BLE001 - a malformed result fails its check
                error = f"check raised {type(ex).__name__}: {ex}"
            else:
                error = None if ok else "output check failed"
        probe.block()
        emit({"op": op.name, "wall_s": wall, "ref_s": probe.take(), "ok": ok, "error": error})

    emit({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stats": tracer.stats if tracer else None,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
