"""One benchmark process for one workload, started by run.py.

Phases:
  setup    build the inputs, warm up, report when ready, exit;
  measure  the same set-up, then a closed loop (one caller) of timed ops
           in whole rounds over the input pool, until --seconds have
           passed and at least MIN_OPS ops have run;
  trace    set-up traced, then one round with each op run untraced and
           traced; reports per-layer metrics and the tracing overhead.

Every op gets a fresh deep copy of its pool entry, made outside the
timer, so no state built by one op is visible to the next.  Outputs are
checked outside the timer too.  The last stdout line is one JSON object
for run.py.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cpfix  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100
MAX_MEASURE_S = 120.0
MAX_LISTED_FAILURES = 50


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


class Runner:
    """Runs ops on deep copies of pool entries and checks their outputs."""

    def __init__(self, workload, pool, seed: int, tracer: Tracer | None = None):
        self.workload = workload
        self.pool = pool
        self.seed = seed
        self.tracer = tracer
        self.order_rng = np.random.default_rng([seed, 1])
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: list[dict] = []

    def round_order(self) -> list[int]:
        return [int(i) for i in self.order_rng.permutation(len(self.pool))]

    def _call(self, index: int):
        item = self.pool[index]
        payload = copy.deepcopy(item.payload)
        out, exc = None, None
        t0 = time.perf_counter()
        try:
            out = self.workload.run(payload, item.seed)
        except Exception as e:  # an op failure is counted and the run goes on
            exc = e
        return time.perf_counter() - t0, out, exc

    def warm_up(self) -> None:
        self._call(0)

    def op(self, index: int) -> float:
        """Run and check one op on pool[index]; returns its latency in seconds."""
        op_index = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_op = op_index
        elapsed, out, exc = self._call(index)
        item = self.pool[index]
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            if exc is not None:
                verdict = self.workload.check_exception(item, exc)
            else:
                verdict = self.workload.check(item, out)
        except Exception as e:  # a malformed output is a failed op
            verdict = (f"oracle rejected output: {type(e).__name__}: {e}", False)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        if verdict is not None:
            reason, known = verdict
            self.failed += 1
            self.unexpected += not known
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(
                    {"seed": self.seed, "op": op_index, "item": index, "label": item.label,
                     "known_defect": bool(known), "reason": reason}
                )
        return elapsed

    def outcome(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected_failures": self.unexpected,
            "fail_share": self.failed / self.attempted if self.attempted else 0.0,
            "failures": self.failures,
        }


def measure(runner: Runner, seconds: float) -> dict:
    """Whole rounds until `seconds` and MIN_OPS; time metrics are medians over rounds.

    The machine's speed drifts over seconds, so each round gives its own
    throughput, median and p90, and the run reports the median of each
    over its rounds.  Pooled figures over all ops go into the detail.
    """
    rounds: list[list[float]] = []
    start = time.perf_counter()
    while True:
        rounds.append([runner.op(index) for index in runner.round_order()])
        wall = time.perf_counter() - start
        if (wall >= seconds and sum(map(len, rounds)) >= MIN_OPS) or wall >= MAX_MEASURE_S:
            break
    every = [t for lat in rounds for t in lat]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "rounds": len(rounds),
        "wall_s": wall,
        "ops_per_s": statistics.median(len(lat) / sum(lat) for lat in rounds),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(lat) for lat in rounds),
        "op_p90_ms": 1e3 * statistics.median(statistics.quantiles(lat, n=10)[8] for lat in rounds),
        "pass_share": 1.0 - runner.failed / runner.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
        "pooled": {"ops_per_s": len(every) / sum(every), "op_p50_ms": 1e3 * statistics.median(every),
                   "op_p90_ms": 1e3 * statistics.quantiles(every, n=10)[8]},
        **runner.outcome(),
    }


def trace(runner: Runner, tracer: Tracer, spans_path: Path) -> dict:
    """One round, each op run untraced and then traced right after it.

    Pairing each op with its traced twin keeps the machine's drift out
    of the tracing overhead (the difference of the two sums).
    """
    untraced = traced = 0.0
    for index in runner.round_order():
        untraced += runner.op(index)
        tracer.install()
        try:
            traced += runner.op(index)
        finally:
            tracer.uninstall()
    tracer.save(str(spans_path))
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return {"metrics": metrics, "spans": len(tracer.name_id), "spans_file": spans_path.name, **runner.outcome()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(cpfix.__file__).resolve().parents:
        print(f"error: imported cpfix from {cpfix.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_work"
    workdir = scratch / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.phase == "trace" else None
        if tracer is not None:
            tracer.install()
        try:
            pool = workload.build(args.seed, str(workdir))
        finally:
            if tracer is not None:
                tracer.uninstall()
        runner = Runner(workload, pool, args.seed, tracer)
        runner.warm_up()
        result = {"ready": time.monotonic(), "pool": len(pool)}
        if args.phase == "measure":
            result.update(measure(runner, args.seconds), env=environment(args.seed))
        elif args.phase == "trace":
            spans = scratch / f"spans-{workload.name}-seed{args.seed}.npz"
            result.update(trace(runner, tracer, spans), env=environment(args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
