"""JSON problem files, command dispatch, and report emission.

File format: complex scalars are two-element arrays [re, im]; matrices
are row-major nested arrays of such pairs; Kraus blocks are keyed by the
string "j,i".  Reports carry one entry per task with status PASS, FAIL
or ERROR, echo the full configuration, and are deterministic for a fixed
(input, seed, config) apart from the wall-time field.

Exit codes: 0 all PASS, 1 any FAIL, 2 ERROR or unparsable input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CoInvarianceViolated,
    CpfixError,
    Divergent,
    NotInCStar,
    NotProjection,
    ParseError,
    UnknownFamily,
    ValidationFailed,
)
from .vnalg import AlgebraElement, BlockStructure, validate_projection
from .cpsemi import (
    CPMap,
    SemigroupFamily,
    cp_map,
    mixture_family_with_data,
    damping_family,
    leaky_damping_family,
    rotation_family,
    validate_family,
)
from .dilation import (
    Minimality,
    block_zero_projection,
    build_random_instance,
    check_minimality,
    make_instance,
    tail_shift_map,
)
from .fixpoint import (
    MAX_ITER,
    cstar_closure,
    check_complete_isometry,
    ergodic_projection,
    fixed_space,
    kernel_ideal_check,
    lift_fixed_point,
    phi_limit,
    pi_limit,
    property_suite,
)

FILE_VERSION = "cpfix-1"


@dataclass(frozen=True)
class Config:
    """Centralized tolerances, caps and sampling defaults."""

    tol_eq: float = 1e-8
    convergence_tol: float = 1e-10
    psd_floor: float = 1e-9
    max_iter: int = MAX_ITER
    cesaro_cap: int = 10**6
    levels: int = 3
    samples: int = 100
    seed: int = 0
    minimality_tol: float = 1e-10
    minimality_max_iter: int = 10000
    mono_steps: int = 10
    s_max: int = 10

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, value in data.items():
            integral = isinstance(getattr(cls, key), int)
            if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
                raise ParseError(f"config {key}: expected {'an integer' if integral else 'a number'}, got {value!r}")
            if not integral:
                try:
                    value = float(value)
                except OverflowError:
                    value = math.inf
            # seed, s_max and psd_floor may be zero; every other field must be positive
            if not (value >= 0 if key in ("seed", "s_max", "psd_floor") else value > 0) or value == math.inf:
                raise ParseError(f"config {key}: value {value!r} is out of range")
            values[key] = value
        return cls(**values)


# ---------------------------------------------------------------------------
# JSON encoding and decoding


def encode_matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_matrix(obj, what: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{what}: expected a nonempty list of rows")
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ParseError(f"{what}: row {r} is ragged or not a list")
        width = len(row)
        out = []
        for c, z in enumerate(row):
            if not (isinstance(z, list) and len(z) == 2):
                raise ParseError(f"{what}: entry ({r},{c}) is not an [re, im] pair")
            out.append(complex(float(z[0]), float(z[1])))
        rows.append(out)
    m = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ParseError(f"{what}: non-finite entry")
    return m


def encode_element(x: AlgebraElement) -> list:
    return [encode_matrix(b) for b in x.blocks]


def decode_element(structure: BlockStructure, obj, what: str) -> AlgebraElement:
    if not isinstance(obj, list) or len(obj) != structure.num_blocks:
        raise ParseError(f"{what}: expected {structure.num_blocks} blocks")
    blocks = []
    for i, (n, b) in enumerate(zip(structure.block_dims, obj)):
        m = decode_matrix(b, f"{what} block {i}")
        if m.shape != (n, n):
            raise ParseError(f"{what} block {i}: shape {m.shape} does not match algebra dim {n}")
        blocks.append(m)
    return AlgebraElement(structure, tuple(blocks))


def encode_map(name: str, kind: str, phi: CPMap) -> dict:
    kraus = {}
    for (j, i), ops in phi.kraus:
        kraus[f"{j},{i}"] = [encode_matrix(a) for a in ops]
    return {"name": name, "kind": kind, "kraus": kraus}


def decode_map(structure: BlockStructure, entry: dict, index: int) -> tuple:
    if not isinstance(entry, dict):
        raise ParseError(f"maps[{index}]: expected an object")
    name = entry.get("name", f"map{index}")
    kind = entry.get("kind", "cp")
    if kind not in ("cp", "endomorphism"):
        raise ParseError(f"maps[{index}] ({name}): kind must be 'cp' or 'endomorphism'")
    raw = entry.get("kraus")
    if not isinstance(raw, dict) or not raw:
        raise ParseError(f"maps[{index}] ({name}): missing kraus dictionary")
    kraus = {}
    for key, ops in raw.items():
        try:
            j, i = (int(v) for v in key.split(","))
        except ValueError as exc:
            raise ParseError(f"maps[{index}] ({name}): bad block key {key!r}") from exc
        if not (0 <= j < structure.num_blocks and 0 <= i < structure.num_blocks):
            raise ParseError(f"maps[{index}] ({name}): block key {key!r} out of range")
        nj, ni = structure.block_dims[j], structure.block_dims[i]
        mats = []
        for m_idx, mat in enumerate(ops):
            m = decode_matrix(mat, f"maps[{index}] ({name}) kraus {key}[{m_idx}]")
            if m.shape != (nj, ni):
                raise ParseError(
                    f"maps[{index}] ({name}) kraus {key}[{m_idx}]: shape {m.shape}, expected ({nj},{ni})"
                )
            mats.append(m)
        kraus[(j, i)] = mats
    return name, kind, cp_map(structure, structure, kraus)


@dataclass(frozen=True, eq=False)
class Problem:
    structure: BlockStructure
    maps: tuple  # (name, kind, CPMap)
    projection: AlgebraElement | None
    tasks: tuple
    config: Config


def load_problem(path: str, overrides: dict | None = None) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    if data.get("version") != FILE_VERSION:
        raise ParseError(f"unsupported version {data.get('version')!r}, expected {FILE_VERSION!r}")
    algebra = data.get("algebra")
    if not isinstance(algebra, dict) or "blocks" not in algebra:
        raise ParseError("missing algebra.blocks")
    try:
        structure = BlockStructure(tuple(int(n) for n in algebra["blocks"]))
    except (TypeError, ValueError, CpfixError) as exc:
        raise ParseError(f"bad algebra.blocks: {exc}") from exc
    raw_maps = data.get("maps")
    if not isinstance(raw_maps, list) or not raw_maps:
        raise ParseError("missing maps list")
    maps = tuple(decode_map(structure, entry, idx) for idx, entry in enumerate(raw_maps))
    projection = None
    if data.get("projection") is not None:
        projection = decode_element(structure, data["projection"], "projection")
    tasks = []
    for t_idx, task in enumerate(data.get("tasks", []) or []):
        if not isinstance(task, dict) or "op" not in task:
            raise ParseError(f"tasks[{t_idx}]: expected an object with an 'op' field")
        op = task["op"]
        if op not in ("phi_limit", "pi_limit", "lift"):
            raise ParseError(f"tasks[{t_idx}]: unknown op {op!r}")
        if "element" not in task:
            raise ParseError(f"tasks[{t_idx}]: missing element")
        expect = task.get("expect")
        if expect not in (None, "converges", "diverges"):
            raise ParseError(f"tasks[{t_idx}]: expect must be 'converges' or 'diverges'")
        tasks.append(
            {
                "op": op,
                "name": task.get("name", f"{op}[{t_idx}]"),
                "element": task["element"],
                "expect": expect,
            }
        )
    cfg_data = data.get("config", {}) or {}
    if not isinstance(cfg_data, dict):
        raise ParseError("config must be an object")
    merged = dict(cfg_data)
    merged.update(overrides or {})
    config = Config.from_dict(merged)
    return Problem(structure, maps, projection, tuple(tasks), config)


# ---------------------------------------------------------------------------
# Reports


def _finite(value) -> object:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else "inf"
    return value


def entry(task: str, status: str, residuals: dict | None = None, note: str = "") -> dict:
    return {
        "task": task,
        "status": status,
        "residuals": {k: _finite(v) for k, v in (residuals or {}).items()},
        "note": note,
    }


def report_exit_code(entries: list) -> int:
    if any(e["status"] == "ERROR" for e in entries):
        return 2
    if any(e["status"] == "FAIL" for e in entries):
        return 1
    return 0


def make_report(command: str, config: Config, entries: list, extras: dict | None = None) -> dict:
    rep = {
        "version": FILE_VERSION,
        "command": command,
        "config": asdict(config),
        "entries": entries,
        "exit_code": report_exit_code(entries),
    }
    if extras:
        rep.update(extras)
    return rep


def print_report(rep: dict, stream=None) -> None:
    stream = stream or sys.stdout
    print(f"== cpfix {rep['command']} ==", file=stream)
    width = max((len(e["task"]) for e in rep["entries"]), default=4)
    for e in rep["entries"]:
        resid = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}" for k, v in e["residuals"].items())
        note = f"  [{e['note']}]" if e["note"] else ""
        print(f"{e['task']:<{width}}  {e['status']:<5} {resid}{note}", file=stream)
    print(f"exit code: {rep['exit_code']}", file=stream)


def write_report(rep: dict, out_path: str) -> None:
    rep = dict(rep)
    rep["wall_time_s"] = time.perf_counter() - rep.pop("_t0", time.perf_counter())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands


def _validate_entries(problem: Problem) -> tuple[list, SemigroupFamily]:
    """Report rows for each map, the family and the projection, plus the family."""
    family = SemigroupFamily(problem.structure, tuple(phi for _, _, phi in problem.maps))
    frep = validate_family(family)
    entries = []
    for (name, kind, _), rep, endo in zip(problem.maps, frep.cp_reports, frep.endo_flags):
        ok = rep.is_cp and rep.is_contractive
        note = ""
        if kind == "endomorphism":
            ok = ok and endo
            if not endo:
                note = "declared endomorphism is not multiplicative"
        if not rep.is_contractive:
            note = "map is not contractive"
        entries.append(
            entry(
                f"map:{name}",
                "PASS" if ok else "FAIL",
                {
                    "contractive_floor": rep.contractive_floor,
                    "unital_defect": rep.unital_defect,
                    "is_unital": rep.is_unital,
                },
                note,
            )
        )
    worst_comm = max((c for _, _, c in frep.commutator_norms), default=0.0)
    entries.append(
        entry(
            "family",
            "PASS" if frep.ok else "FAIL",
            {"worst_commutator": worst_comm, "is_endomorphic": frep.is_endomorphic},
            frep.reason,
        )
    )
    if problem.projection is not None:
        try:
            validate_projection(problem.projection)
            entries.append(entry("projection", "PASS", {}))
        except NotProjection as exc:
            entries.append(entry("projection", "FAIL", {}, str(exc)))
    return entries, SemigroupFamily(problem.structure, family.generators, frep.is_endomorphic)


def cmd_validate(path: str, overrides: dict | None = None) -> dict:
    t0 = time.perf_counter()
    problem = load_problem(path, overrides)
    entries, _ = _validate_entries(problem)
    rep = make_report("validate", problem.config, entries, {"input": path})
    rep["_t0"] = t0
    return rep


def _checked_family(problem: Problem, require_endomorphic: bool = False) -> SemigroupFamily:
    entries, family = _validate_entries(problem)
    bad = [e for e in entries if e["status"] != "PASS"]
    if bad:
        raise ValidationFailed(f"input fails validation: {bad[0]['task']} ({bad[0]['note'] or 'see report'})")
    if require_endomorphic and not family.is_endomorphic:
        raise ValidationFailed("dilation command needs an endomorphic family")
    return family


def _run_phi_limit_task(task: dict, family: SemigroupFamily, cfg: Config) -> dict:
    name = f"task:{task['name']}"
    x = decode_element(family.structure, task["element"], task["name"])
    try:
        result = phi_limit(family, x, tol=cfg.convergence_tol, max_iter=cfg.max_iter)
        outcome = "converges"
        resid = {"limit_norm": result.norm()}
    except Divergent as exc:
        outcome = "diverges"
        resid = {"detail": str(exc)}
    if task["expect"] is None:
        status = "PASS" if outcome == "converges" else "FAIL"
    else:
        status = "PASS" if outcome == task["expect"] else "FAIL"
    return entry(name, status, resid, f"outcome: {outcome}")


def cmd_analyze(path: str, overrides: dict | None = None) -> dict:
    t0 = time.perf_counter()
    problem = load_problem(path, overrides)
    cfg = problem.config
    family = _checked_family(problem)
    entries = []
    extras: dict = {"input": path}
    fs = fixed_space(family)
    cs = cstar_closure(fs)
    entries.append(entry("fixed_space", "PASS", {"dimension": fs.dimension}))
    entries.append(entry("cstar_span", "PASS", {"dimension": cs.dimension, "is_unital": cs.is_unital}))
    extras["fixed_basis"] = [encode_element(b) for b in fs.basis]
    try:
        erg = ergodic_projection(family, tol=cfg.convergence_tol, cesaro_cap=cfg.cesaro_cap)
        entries.append(
            entry(
                "ergodic_projection",
                "PASS",
                {
                    "rank": erg.rank,
                    "idempotency": erg.diagnostics["defects"]["idempotency"],
                    "choi_floor": erg.diagnostics["choi_floor"],
                    "one_excess": erg.diagnostics["one_excess"],
                },
            )
        )
        extras["ergodic_diagnostics"] = erg.diagnostics
    except CpfixError as exc:
        erg = None
        entries.append(entry("ergodic_projection", "ERROR", {}, str(exc)))
    if erg is not None:
        krep = kernel_ideal_check(family, seed=cfg.seed)
        entries.append(
            entry(
                "kernel_ideal",
                "PASS" if krep.passed else "FAIL",
                {
                    "dim_kernel": krep.dim_kernel,
                    "dim_ideal": krep.dim_ideal,
                    "max_subspace_gap": krep.max_subspace_gap,
                },
                krep.note,
            )
        )
    suite = property_suite(
        family,
        seed=cfg.seed,
        samples=cfg.samples,
        mono_steps=cfg.mono_steps,
        s_max=cfg.s_max,
        psd_floor=cfg.psd_floor,
        tol_eq=cfg.tol_eq,
    )
    for key, item in suite.items.items():
        entries.append(entry(f"suite:{key}", item.status, {"worst": item.worst, "threshold": item.threshold}, item.note))
    for task in problem.tasks:
        if task["op"] != "phi_limit":
            raise ParseError(f"task {task['name']!r}: op {task['op']!r} needs a dilation file")
        entries.append(_run_phi_limit_task(task, family, cfg))
    rep = make_report("analyze", cfg, entries, extras)
    rep["_t0"] = t0
    return rep


def cmd_dilation(path: str, overrides: dict | None = None) -> dict:
    t0 = time.perf_counter()
    problem = load_problem(path, overrides)
    cfg = problem.config
    if problem.projection is None:
        raise ValidationFailed("dilation command needs a projection")
    alpha = _checked_family(problem, require_endomorphic=True)
    entries = []
    extras: dict = {"input": path}
    try:
        instance = make_instance(alpha, problem.projection)
    except CoInvarianceViolated as exc:
        entries.append(entry("coinvariance", "ERROR", {}, str(exc)))
        rep = make_report("dilation", cfg, entries, extras)
        rep["_t0"] = t0
        return rep
    entries.append(entry("coinvariance", "PASS", {}))
    extras["corner_blocks"] = list(instance.emb.corner.block_dims)
    extras["compressed_family"] = [
        encode_map(f"phi{k}", "cp", g) for k, g in enumerate(instance.phi.generators)
    ]
    verdict = check_minimality(instance.alpha, instance.p, tol=cfg.minimality_tol, max_iter=cfg.minimality_max_iter)
    entries.append(
        entry(
            "minimality",
            "PASS" if verdict.status is Minimality.MINIMAL else "FAIL",
            {"steps": verdict.steps, "final_defect_norm": verdict.final_defect_norm},
            f"verdict: {verdict.status.value}",
        )
    )
    if verdict.limit is not None:
        extras["minimality_limit"] = encode_element(verdict.limit)
    iso = check_complete_isometry(instance, levels=cfg.levels, samples=cfg.samples, seed=cfg.seed, tol=cfg.tol_eq)
    entries.append(
        entry(
            "complete_isometry",
            "PASS" if iso.passed else "FAIL",
            {
                "dim_ambient_fixed": iso.dim_ambient_fixed,
                "dim_corner_fixed": iso.dim_corner_fixed,
                "bijective": iso.bijective,
                "max_defect": iso.max_defect,
            },
            iso.note,
        )
    )
    try:
        # kernel_ideal_check and the suite take the rho built here at the config's tolerances
        ergodic_projection(instance.phi, tol=cfg.convergence_tol, cesaro_cap=cfg.cesaro_cap)
        krep = kernel_ideal_check(instance.phi, seed=cfg.seed)
        entries.append(
            entry(
                "kernel_ideal",
                "PASS" if krep.passed else "FAIL",
                {"dim_kernel": krep.dim_kernel, "dim_ideal": krep.dim_ideal},
                krep.note,
            )
        )
    except CpfixError as exc:
        entries.append(entry("kernel_ideal", "ERROR", {}, str(exc)))
    suite = property_suite(
        instance,
        seed=cfg.seed,
        samples=cfg.samples,
        mono_steps=cfg.mono_steps,
        s_max=cfg.s_max,
        psd_floor=cfg.psd_floor,
        tol_eq=cfg.tol_eq,
    )
    for key, item in suite.items.items():
        entries.append(entry(f"suite:{key}", item.status, {"worst": item.worst, "threshold": item.threshold}, item.note))
    for task in problem.tasks:
        name = f"task:{task['name']}"
        if task["op"] == "phi_limit":
            entries.append(_run_phi_limit_task(task, instance.phi, cfg))
            continue
        y = decode_element(instance.emb.corner, task["element"], task["name"])
        try:
            if task["op"] == "pi_limit":
                w = pi_limit(instance, y, tol=cfg.convergence_tol, max_iter=cfg.max_iter)
                entries.append(entry(name, "PASS", {"limit_norm": w.norm()}, "outcome: converges"))
            else:
                z = lift_fixed_point(instance, y, tol=cfg.convergence_tol)
                entries.append(entry(name, "PASS", {"lift_norm": z.norm()}, "outcome: lifted"))
        except CpfixError as exc:
            outcome = "diverges" if isinstance(exc, (Divergent, NotInCStar)) else "error"
            status = "PASS" if task["expect"] == "diverges" and outcome == "diverges" else "FAIL"
            entries.append(entry(name, status, {"detail": str(exc)}, f"outcome: {outcome}"))
    rep = make_report("dilation", cfg, entries, extras)
    rep["_t0"] = t0
    return rep


# ---------------------------------------------------------------------------
# Demo problem files


def _matrix_unit(n: int, a: int, b: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[a, b] = 1.0
    return m


def _demo_tail_shift(params: dict) -> dict:
    n = int(params.get("n", 2))
    m = int(params.get("m", 2))
    kind = params.get("unitary", "pauli-x")
    if kind == "pauli-x":
        if n != 2:
            raise UnknownFamily("pauli-x unitary needs n = 2")
        u = np.array([[0, 1], [1, 0]], dtype=complex)
    elif kind == "rotation":
        theta = float(params.get("theta", np.pi / 3))
        u = np.diag(np.exp(1j * theta * np.arange(n)))
    elif kind == "random":
        from .matcore import random_unitary

        u = random_unitary(np.random.default_rng(int(params.get("seed", 0))), n)
    else:
        raise UnknownFamily(f"unknown tail-shift unitary {kind!r}")
    shift = tail_shift_map(n, m, u)
    st = shift.source
    p = block_zero_projection(st)
    return {
        "version": FILE_VERSION,
        "algebra": {"blocks": list(st.block_dims)},
        "maps": [encode_map("tail_shift", "endomorphism", shift)],
        "projection": encode_element(p),
        "tasks": [],
    }


def _demo_rotation(params: dict) -> dict:
    theta = float(params.get("theta", np.pi / 3))
    fam = rotation_family(theta)
    e01 = AlgebraElement(fam.structure, (_matrix_unit(2, 0, 1),))
    return {
        "version": FILE_VERSION,
        "algebra": {"blocks": [2]},
        "maps": [encode_map("rotation", "cp", fam.generators[0])],
        "tasks": [
            {
                "op": "phi_limit",
                "name": "offdiagonal_orbit",
                "element": encode_element(e01),
                "expect": "diverges",
            }
        ],
    }


def _demo_damping(params: dict) -> dict:
    gamma = float(params.get("gamma", 0.5))
    fam = damping_family(gamma)
    e00 = AlgebraElement(fam.structure, (_matrix_unit(2, 0, 0),))
    return {
        "version": FILE_VERSION,
        "algebra": {"blocks": [2]},
        "maps": [encode_map("damping", "cp", fam.generators[0])],
        "tasks": [
            {
                "op": "phi_limit",
                "name": "ground_population",
                "element": encode_element(e00),
                "expect": "converges",
            }
        ],
    }


def _demo_leaky_damping(params: dict) -> dict:
    c = float(params.get("c", 0.5))
    s = float(params.get("s", 0.5))
    fam = leaky_damping_family(c, s)
    return {
        "version": FILE_VERSION,
        "algebra": {"blocks": [2]},
        "maps": [encode_map("leaky_damping", "cp", fam.generators[0])],
        "tasks": [],
    }


def _demo_random_mixture(params: dict) -> dict:
    seed = int(params.get("seed", 0))
    dims = tuple(int(v) for v in params.get("dims", (2, 3)))
    terms = int(params.get("terms", 3))
    d = int(params.get("d", 1))
    fam, _ = mixture_family_with_data(seed, dims=dims, terms=terms, d=d)
    return {
        "version": FILE_VERSION,
        "algebra": {"blocks": list(dims)},
        "maps": [encode_map(f"mixture{k}", "cp", g) for k, g in enumerate(fam.generators)],
        "tasks": [],
        "config": {"seed": seed},
    }


def _demo_random_dilation(params: dict) -> dict:
    seed = int(params.get("seed", 0))
    n_max = int(params.get("n_max", 3))
    m_max = int(params.get("m_max", 4))
    d = int(params.get("d", 1))
    inst = build_random_instance(seed, n_max=n_max, m_max=m_max, d=d)
    return {
        "version": FILE_VERSION,
        "algebra": {"blocks": list(inst.structure.block_dims)},
        "maps": [encode_map(f"alpha{k}", "endomorphism", g) for k, g in enumerate(inst.alpha.generators)],
        "projection": encode_element(inst.p),
        "tasks": [],
        "config": {"seed": seed},
    }


DEMO_FAMILIES = {
    "tail-shift": _demo_tail_shift,
    "rotation": _demo_rotation,
    "damping": _demo_damping,
    "leaky-damping": _demo_leaky_damping,
    "random-mixture": _demo_random_mixture,
    "random-dilation": _demo_random_dilation,
}


def cmd_demo(family: str, params: dict, out_path: str) -> dict:
    if family not in DEMO_FAMILIES:
        raise UnknownFamily(f"unknown demo family {family!r}; choose from {sorted(DEMO_FAMILIES)}")
    data = DEMO_FAMILIES[family](params or {})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


# ---------------------------------------------------------------------------
# Command line


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UnknownFamily(f"parameter {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        key = key.replace("-", "_")
        if "," in value:
            params[key] = [v for v in value.split(",") if v]
        else:
            params[key] = value
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cpfix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a problem file")
    p_val.add_argument("file")
    p_val.add_argument("--out", help="write the JSON report here")

    p_ana = sub.add_parser("analyze", help="fixed space, ergodic projection, property suite")
    p_ana.add_argument("file")
    p_ana.add_argument("--seed", type=int)
    p_ana.add_argument("--samples", type=int)
    p_ana.add_argument("--out")

    p_dil = sub.add_parser("dilation", help="co-invariance, minimality, lifting checks")
    p_dil.add_argument("file")
    p_dil.add_argument("--levels", type=int)
    p_dil.add_argument("--seed", type=int)
    p_dil.add_argument("--samples", type=int)
    p_dil.add_argument("--out")

    p_demo = sub.add_parser("demo", help="emit a ready-made problem file")
    p_demo.add_argument("family", choices=sorted(DEMO_FAMILIES))
    p_demo.add_argument("params", nargs="*", help="key=value parameters")
    p_demo.add_argument("-o", "--out", required=True)
    return parser


def _overrides(args) -> dict:
    out = {}
    for key in ("seed", "samples", "levels"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            cmd_demo(args.family, _parse_params(args.params), args.out)
            print(f"wrote {args.out}")
            return 0
        if args.command == "validate":
            rep = cmd_validate(args.file)
        elif args.command == "analyze":
            rep = cmd_analyze(args.file, _overrides(args))
        else:
            rep = cmd_dilation(args.file, _overrides(args))
    except (ParseError, UnknownFamily, ValidationFailed, CpfixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_report(rep, args.out)
    rep.pop("_t0", None)
    print_report(rep)
    return rep["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
