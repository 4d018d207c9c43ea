"""Run every workload over several seeds and print the metric tables.

    python3 bench/table.py --seeds 1,2,3 [--write bench/baseline.json]

For each workload: one untraced run per seed, then two traced runs on
the first seed.  Prints, per workload, each end-to-end metric with its
unit as median, quartiles and spread ((q3 - q1) / median) over the
seeds, then the per-layer table of the first traced run, and whether
the two traced runs gave identical call counts.  --write stores the
same numbers as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed with exit code {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    parser.add_argument("--write", help="write the tables as JSON to this path")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": seeds, "run_seconds": float(seconds), "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            detail, result = run(name, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "fail_share": detail["fail_share"],
                         "rounds": detail["rounds"], "failures": detail["failures"][:5]})
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        traced = [run(name, seeds[0], seconds, 1) for _ in range(2)]
        calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for _, r in traced]
        e2e = {metric: {"unit": units[metric], **summarize(v)} for metric, v in values.items()}
        layers = {metric: entry["value"] for metric, entry in traced[0][1]["metrics"].items()}
        report["workloads"][name] = {
            "env": traced[0][0]["env"],
            "end_to_end": e2e,
            "fail_share": summarize([r["fail_share"] for r in runs]),
            "runs": runs,
            "per_layer": layers,
            "traced_calls_identical": calls[0] == calls[1],
            "traced_spans": traced[0][0]["spans"],
        }
        print(f"== {name}: {len(seeds)} seeds x {seconds} s, correct on all: {all(r['correct'] for r in runs)}")
        for metric, s in e2e.items():
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  (spread above bound/3)"
            print(f"  {metric:<12} {s['median']:>12.5g} {s['unit']:<6} q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[metric]}){flag}")
        print(f"  fail_share   {report['workloads'][name]['fail_share']['median']:.4f}")
        print(f"  traced run: identical calls on seed {seeds[0]}: {calls[0] == calls[1]}; "
              f"overhead {layers['trace.overhead_s']:.3f} s on {layers['trace.untraced_s']:.3f} s untraced")
        for metric, value in layers.items():
            if value:
                print(f"    {metric:<48} {value:>14.6g} {units[metric]}")
        sys.stdout.flush()
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
