"""Checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Seeds change the inputs but not the op mix, traced runs repeat their
call counts exactly, runs print the metrics BENCHMARK.json declares, and
a directory without the cpfix sources makes the benchmark fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, fingerprint  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd), capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_but_not_op_mix(name, tmp_path):
    workload = WORKLOADS[name]
    builds = []
    for seed, sub in ((1, "a"), (2, "b"), (1, "c")):
        (tmp_path / sub).mkdir()
        builds.append(workload.build(seed, str(tmp_path / sub)))
    first, second, again = builds
    assert [item.label for item in first] == [item.label for item in second]
    assert fingerprint(workload, first) != fingerprint(workload, second)
    assert fingerprint(workload, first) == fingerprint(workload, again)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_calls_repeat_exactly(name):
    results = []
    for _ in range(2):
        proc = run_bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in results]
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in results[0]["metrics"].items()} == declared
    assert results[0]["correct"]


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_bench("--workload", "cli_reports", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "slow_gap", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
