"""Reports of thirteen demo runs match the committed golden reports.

Each run writes a demo file, runs `analyze` or `dilation` on it and
compares the report with `tests/golden/<name>.json`: strings, integers,
booleans and statuses exactly, floats within 1e-12 x max(1, |x|), and
`fixed_basis` through the projector onto its span, since another LAPACK
may flip the sign of a basis vector.  `wall_time_s` and `input` are
skipped.

After a deliberate change of report content, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cpfix.cli import cmd_analyze, cmd_demo, cmd_dilation

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

# name -> (command, demo family, demo parameters)
RUNS = {
    "dilation-tail-shift": ("dilation", "tail-shift", {}),
    "dilation-tail-shift-rotation-n3-m3": ("dilation", "tail-shift", {"unitary": "rotation", "n": "3", "m": "3"}),
    "analyze-rotation": ("analyze", "rotation", {}),
    "analyze-damping": ("analyze", "damping", {}),
    "analyze-leaky-damping": ("analyze", "leaky-damping", {}),
    "analyze-random-mixture": ("analyze", "random-mixture", {}),
    "analyze-random-mixture-seed3-d2": ("analyze", "random-mixture", {"seed": "3", "d": "2"}),
    "analyze-random-mixture-seed9-dims32-d2": ("analyze", "random-mixture", {"seed": "9", "dims": ["3", "2"], "d": "2"}),
    "dilation-random-dilation": ("dilation", "random-dilation", {}),
    "dilation-random-dilation-seed4-d2": ("dilation", "random-dilation", {"seed": "4", "d": "2"}),
    "dilation-random-dilation-seed11-d2": ("dilation", "random-dilation", {"seed": "11", "d": "2"}),
    "analyze-random-dilation-seed4-d2": ("analyze", "random-dilation", {"seed": "4", "d": "2"}),
    "analyze-random-dilation-seed11": ("analyze", "random-dilation", {"seed": "11"}),
}

SKIPPED = ("wall_time_s", "input")


def report(name: str, workdir: Path) -> dict:
    """The report of one run, as its JSON file holds it, without the skipped keys."""
    command, family, params = RUNS[name]
    path = workdir / f"{name}.json"
    cmd_demo(family, params, str(path))
    rep = (cmd_analyze if command == "analyze" else cmd_dilation)(str(path))
    return json.loads(json.dumps({k: v for k, v in rep.items() if not k.startswith("_") and k not in SKIPPED}))


def basis_projector(basis: list) -> np.ndarray:
    """Projector onto the span of encoded elements with orthonormal coordinates."""
    cols = [np.concatenate([np.array(b, dtype=float).reshape(-1, 2) @ [1.0, 1j] for b in x]) for x in basis]
    if not cols:
        return np.zeros((0, 0))
    m = np.column_stack(cols)
    return m @ m.conj().T


def differences(got, want, where: str = "") -> list:
    """Paths at which got and want differ beyond the golden comparison rules."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        out = []
        for key in sorted(want):
            if key == "fixed_basis":
                pg, pw = basis_projector(got[key]), basis_projector(want[key])
                if pg.shape != pw.shape or np.max(np.abs(pg - pw), initial=0.0) > REL_TOL:
                    out.append(f"{where}/{key}: spans differ")
            else:
                out += differences(got[key], want[key], f"{where}/{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        return [d for k, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{where}[{k}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= REL_TOL * max(1.0, abs(want)) else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(tmp_path, name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert differences(report(name, tmp_path), want) == []


def test_differences_catch_a_changed_report():
    rep = {"entries": [{"status": "PASS", "residuals": {"worst": 1.0, "dim": 2}}], "fixed_basis": [[[[[1.0, 0.0]]]]]}
    assert differences(rep, rep) == []
    assert differences(rep, json.loads(json.dumps(rep).replace("PASS", "FAIL")))
    assert differences(rep, json.loads(json.dumps(rep).replace('"dim": 2', '"dim": 3')))
    assert differences(rep, json.loads(json.dumps(rep).replace("1.0, 0.0", "0.0, 1.0"))) == []  # a phase only
    assert differences(rep, {**rep, "entries": [{"status": "PASS", "residuals": {"worst": 1.0 + 1e-9, "dim": 2}}]})


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            rep = report(name, Path(tmp))
            (GOLDEN / f"{name}.json").write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
