"""cpfix benchmark: one workload, end-to-end metrics or a traced layer table.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): dilation_suite, bare_families, cli_reports,
slow_gap.  Each runs in processes of its own, started from here with
BLAS pinned to one thread and cpfix imported from this checkout's src/.

--trace 0: two set-up-only processes, then one measuring process.
  setup_s      median over the three of the seconds from process start
               until the first timed op (interpreter start, import cpfix,
               building every input from the seed, one warm-up op);
  ops_per_s    timed ops per second of op time (closed loop, one caller);
  op_p50_ms    median op latency;
  op_p90_ms    p90 op latency (a run holds at least 100 ops);
               these three are medians over the run's rounds of each
               round's figure, so a slow spell of the machine moves them less;
  pass_share   ops whose output passed its check / ops attempted
               (1 - fail_share; fail_share itself is in the detail line);
  peak_rss_mb  peak resident memory of the measuring process.
--trace 1: one process tracing the set-up and one round of ops, with the
  untraced time of the same round; prints the per-layer metrics.

The line before the last is a detail object: environment, fail_share and
the failed ops by seed and index.  The last line is the result object.
The run exits 2 without a result when the checkout has no src/cpfix.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dilation_suite", "bare_families", "cli_reports", "slow_gap")
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def spawn(args, phase: str, deadline: float) -> tuple[float, dict]:
    """Run one worker process; returns its spawn time and its result object."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} process timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} process exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def untraced(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_ONLY_RUNS):
        spawned, res = spawn(args, "setup", deadline)
        setups.append(res["ready"] - spawned)
    spawned, res = spawn(args, "measure", deadline)
    setups.append(res["ready"] - spawned)
    values = {name: res[name] for name in UNITS if name != "setup_s"}
    values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    detail = {key: res[key] for key in ("env", "pool", "rounds", "wall_s", "pooled", "fail_share",
                                          "unexpected_failures", "failures")}
    detail["setup_samples_s"] = setups
    return res, {"metrics": metrics, "detail": detail}


def traced(args, deadline: float) -> tuple[dict, dict]:
    _, res = spawn(args, "trace", deadline)
    detail = {key: res[key] for key in ("env", "pool", "spans", "spans_file", "fail_share",
                                          "unexpected_failures", "failures")}
    return res, {"metrics": res["metrics"], "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpfix" / "__init__.py").is_file():
        print(f"error: no cpfix sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        res, out = (traced if args.trace else untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **out["detail"]}
    print(json.dumps(detail))
    result = {
        "correct": res["unexpected_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
