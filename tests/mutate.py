"""Mutation check: apply named mutants to a copy of the package and see which the tests kill.

Each mutant is a list of exact string replacements in one module of
`src/cpfix`.  Every pattern must occur exactly once in the module, else the
script stops with an error, so a mutant cannot silently go stale.  For each
mutant the script copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory, applies the replacements there, and runs pytest on the
test files that own the mutated code.  A mutant survives when those tests
pass.  The repository itself is never modified.

    python tests/mutate.py            # every mutant
    python tests/mutate.py NAME ...   # the named mutants
    python tests/mutate.py --list

The exit status is 0 when exactly the known survivors survive, else 1.
The test suite does not run this script; a full run takes about 60 s on two cores.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DILATION = ("dilation.py", ("tests/test_dilation.py",))
FIXPOINT = ("fixpoint.py", ("tests/test_fixpoint.py", "tests/test_golden.py"))
LIMITS = ("fixpoint.py", ("tests/test_fixpoint.py",))
VNALG = ("vnalg.py", ("tests/test_vnalg.py",))
FRAME = ("vnalg.py", ("tests/test_vnalg.py", "tests/test_fixpoint.py"))
THETA = ("cpsemi.py", ("tests/test_cpsemi.py", "tests/test_dilation.py", "tests/test_fixpoint.py"))
ENDOMORPHISM = ("cpsemi.py", ("tests/test_cpsemi.py",))
MATCORE = ("matcore.py", ("tests/test_matcore.py",))

# name -> ((module, owning test files), [(pattern, replacement), ...])
MUTANTS = {
    "no-endomorphic-guard": (
        DILATION,
        [(
            '    if not alpha.is_endomorphic:\n'
            '        raise ShapeMismatch("minimality is decided for *-endomorphic families only")\n',
            "",
        )],
    ),
    "minimality-loop-bound-r": (DILATION, [("for n in range(rank + 1):", "for n in range(rank):")]),
    "minimality-threshold-1e-10": (
        DILATION,
        [
            ("if _norms_within(st, defect, 0.5)[0]:", "if _norms_within(st, defect, 1e-10)[0]:"),
            ("if _norms_within(st, nxt - defect, 0.5)[0]:", "if _norms_within(st, nxt - defect, 1e-10)[0]:"),
        ],
    ),
    "endomorphism-contractive-guard-dropped": (
        ENDOMORPHISM,
        [("    if _norms(st, s @ identity_element(st).coords()[:, None])[0] > 1.0 + VALIDATION_TOL:\n        return False\n", "")],
    ),
    "endomorphism-diagonal-units-only": (
        ENDOMORPHISM,
        [(
            "np.max(np.abs(s[:, squares] - _product(st, _star(st, s), s)))",
            "np.max(np.abs(s[:, squares] - _product(st, _star(st, s), s))[:, squares])",
        )],
    ),
    "semigroup-law-check-never-raises": (DILATION, [("            if gap > LAW_TOL:\n", "            if False:\n")]),
    "cstar-dropped-adjoint": (
        FIXPOINT,
        [("np.stack([prods, _star(st, prods)], axis=-1)", "np.stack([prods, prods], axis=-1)")],
    ),
    "cstar-pair-order-ba": (
        FIXPOINT,
        [(
            "_product(st, np.repeat(mat, r, axis=1), np.tile(mat, r))",
            "_product(st, np.tile(mat, r), np.repeat(mat, r, axis=1))",
        )],
    ),
    "cstar-squares-only": (
        FIXPOINT,
        [
            ("_product(st, np.repeat(mat, r, axis=1), np.tile(mat, r))", "_product(st, mat, mat)"),
            (".reshape(st.coord_dim, 2 * r * r)", ".reshape(st.coord_dim, 2 * r)"),
        ],
    ),
    "theta-first-generator-only": (
        THETA,
        [("for gen in rest:\n            theta = gen.superop @ theta", "for gen in rest[:0]:\n            theta = gen.superop @ theta")],
    ),
    "fixed-space-first-generator": (
        FIXPOINT,
        [("g.superop @ cols - cols for g in family.generators]", "g.superop @ cols - cols for g in family.generators[:1]]")],
    ),
    "norm-screen-no-margin": (
        VNALG,
        [("within = np.linalg.norm(v, axis=0) <= 0.5 * bound", "within = np.linalg.norm(v, axis=0) <= bound")],
    ),
    "norm-screen-coordinate-no-margin": (
        VNALG,
        [("<= (1.0 + SCREEN_MARGIN) * bound[rest]]", "<= bound[rest]]")],
    ),
    "norm-screen-coordinate-reversed": (
        VNALG,
        [("<= (1.0 + SCREEN_MARGIN) * bound[rest]]", "> (1.0 + SCREEN_MARGIN) * bound[rest]]")],
    ),
    "kernels-skip-restriction": (FIXPOINT, [("    for gen in rest:\n        s = gen.superop\n", "    for gen in rest[:0]:\n        s = gen.superop\n")]),
    "frame-imaginary-sign-flipped": (FRAME, [("1j * r2, -1j * r2", "1j * r2, 1j * r2")]),
    "splitting-dimension-guard-dropped": (
        FIXPOINT,
        [("    if w.shape[1] != r:\n        raise NoConvergence(", "    if False:\n        raise NoConvergence(")],
    ),
    "limit-check-screen-only": (FIXPOINT, [("    if not on.all():\n", "    if False:\n")]),
    "limit-loop-ends-at-first-stop": (LIMITS, [("                if live.size == 0:\n", "                if done.any():\n")]),
    "limit-loop-keeps-overflowing-columns": (LIMITS, [("going = ~done & (inc < np.inf)", "going = ~done")]),
    "cstar-lifts-ignore-basis-errors": (
        FIXPOINT,
        [("return b, z, all(err is None for err in errors)", "return b, z, True")],
    ),
    "pi-limit-span-check-dropped": (
        FIXPOINT,
        [("far = np.flatnonzero(gaps > SPAN_TOL)  # only these", "far = np.flatnonzero(gaps > np.inf)  # only these")],
    ),
    "isometry-unit-defect-dropped": (
        FIXPOINT,
        [("max(-choi_floor, unit_excess, left_defect, 0.0)", "max(-choi_floor, left_defect, 0.0)")],
    ),
    "isometry-ignores-bijective": (FIXPOINT, [("bool(bijective and worst <= EQ_TOL)", "bool(worst <= EQ_TOL)")]),
    "isometry-choi-floor-skipped": (
        FIXPOINT,
        [("choi_floor = choi_min_eig(r, emb.ambient, emb.corner)", "choi_floor = 0.0")],
    ),
    "psd-sqrt-screen-decides-alone": (
        MATCORE,
        [("herm_bad[herm_open] = op_norm(defect[herm_open]) > herm_bound[herm_open]", "herm_bad[herm_open] = True")],
    ),
    "cesaro-first-generator-only": (
        FIXPOINT,
        [("    pw = family.superops\n    avg = ", "    pw = family.superops[:1]\n    avg = ")],
    ),
    "kadison-schwarz-first-generator-only": (
        FIXPOINT,
        [("_apply_all(family.superops, np.hstack([x, xx]))", "_apply_all(family.superops[:1], np.hstack([x, xx]))")],
    ),
    "monotone-net-constant-worst": (
        FIXPOINT,
        [("        worst = _hermitian_floor(st, diffs)\n        items[\"monotone_net\"]",
          "        worst = 0.0\n        items[\"monotone_net\"]")],
    ),
}

# mutants that the tests are known to let through, with the CHANGES.md line that records why
KNOWN_SURVIVORS = {
    "monotone-net-constant-worst": "CHANGES.md, FOUND on `monotone_net`: its `worst` is 0 up to rounding on every "
    "shipped family, so a constant 0 passes the looped-reference oracle and the goldens",
}


def mutated_source(name: str) -> tuple[str, str]:
    """The module file name and its text with the mutant applied."""
    (module, _), edits = MUTANTS[name]
    text = (ROOT / "src" / "cpfix" / module).read_text()
    for pattern, replacement in edits:
        count = text.count(pattern)
        if count != 1:
            raise SystemExit(f"mutant {name}: pattern occurs {count} times in {module}: {pattern!r}")
        text = text.replace(pattern, replacement)
    return module, text


def survives(name: str) -> bool:
    """Apply one mutant to a temporary copy and run its owning tests; True if they pass."""
    module, text = mutated_source(name)
    _, tests = MUTANTS[name][0]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / "src" / "cpfix" / module).write_text(text)
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=work,
            capture_output=True,
            text=True,
        )
    if run.returncode not in (0, 1):
        raise SystemExit(f"mutant {name}: pytest exited {run.returncode}\n{run.stdout}{run.stderr}")
    return run.returncode == 0


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, ((module, tests), _) in MUTANTS.items():
            print(f"{name:40s} {module:12s} {' '.join(tests)}")
        return 0
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutants: {unknown}")
    for name in names:
        mutated_source(name)  # every pattern is checked before any test runs
    unexpected = []
    for name in names:
        alive = survives(name)
        known = name in KNOWN_SURVIVORS
        note = f"  (known: {KNOWN_SURVIVORS[name]})" if alive and known else ""
        print(f"{'SURVIVED' if alive else 'killed':8s} {name}{note}")
        if alive != known:
            unexpected.append(name)
    if unexpected:
        print(f"unexpected outcome: {', '.join(unexpected)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
