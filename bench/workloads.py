"""The four benchmark workloads: seeded inputs, the timed op, and its oracle.

Each workload builds a pool of inputs from the seed (`build`), runs one
op on a fresh deep copy of a pool entry (`run`), and checks the op's
output (`check`).  Oracles use numpy and closed forms where possible, so
they do not share the timed code path.  All program calls go through the
`cf` and `cli` module namespaces, where the tracer can rebind them.

`check` returns None for a correct output, or `(reason, known)`: `known`
marks the documented `phi_limit` stopping defect on slow gaps (an error
of up to tol / gap, or `Divergent` once the needed steps exceed
`max_iter`).  Known defects count as failed ops but do not make the run
incorrect; any other failure does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

import cpfix as cf
import cpfix.cli as cli
from cpfix.cpsemi import mixture_family_with_data, mixture_fixed_dim
from cpfix.matcore import random_complex, random_unitary


@dataclass
class Item:
    """One pool entry: the program input plus what the oracle needs."""

    label: str
    payload: object
    seed: int
    info: dict = field(default_factory=dict)


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _combos(matrix, structure, rng, count):
    """Random normalised complex combinations of basis columns."""
    out = []
    for _ in range(count):
        v = matrix @ random_complex(rng, matrix.shape[1], 1)[:, 0]
        out.append(cf.element_from_coords(structure, v / max(np.linalg.norm(v), 1e-30)))
    return out


def _superop(phi) -> np.ndarray:
    """Superoperator of a block-Kraus map, built here independently of cpsemi."""
    dims = phi.source.block_dims
    offsets = np.concatenate([[0], np.cumsum([n * n for n in dims])])
    s = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    for (j, i), ops in phi.kraus:
        for a in ops:
            s[offsets[j]:offsets[j + 1], offsets[i]:offsets[i + 1]] += np.kron(a, a.conj())
    return s


def _fixed_dim(family) -> int:
    """Joint fixed-space dimension from an SVD of the stacked (S_g - 1)."""
    sups = [_superop(g) for g in family.generators]
    eye = np.eye(sups[0].shape[0])
    sv = np.linalg.svd(np.vstack([s - eye for s in sups]), compute_uv=False)
    return int(np.sum(sv <= 1e-9 * max(1.0, sv[0])))


def _apply_kraus(phi, blocks) -> list:
    out = [np.zeros((n, n), dtype=complex) for n in phi.target.block_dims]
    for (j, i), ops in phi.kraus:
        for a in ops:
            out[j] += a @ blocks[i] @ a.conj().T
    return out


def _block_gap(xs, ys) -> float:
    return max(np.linalg.norm(x - y, 2) for x, y in zip(xs, ys))


class Workload:
    """Defaults shared by the workloads below."""

    name = ""

    def check_exception(self, item: Item, exc: Exception):
        """Reason and known-defect flag for an op that raised."""
        return f"unexpected {type(exc).__name__}: {exc}", False

    def input_bytes(self, item: Item) -> bytes:
        """The generated input, for seed-sensitivity checks."""
        return pickle.dumps(item.payload)


class DilationSuite(Workload):
    """Tail-shift dilations across n in 2..4, m in 1..5, d in {1, 2}.

    Continuous phases make the fixed spaces generic (dimension n); the
    degenerate tail shifts have unitaries with repeated eigenvalues and
    larger fixed spaces.  Both kinds keep their fixed dimensions, and with
    them the op's cost, independent of the seed.
    """

    name = "dilation_suite"
    # (n, eigenvalue multiplicities of u) for the degenerate tail shifts
    DEGENERATE = ((2, (2,)), (3, (2, 1)), (4, (2, 2)))

    def build(self, seed: int, workdir: str) -> list[Item]:
        grid = [(n, m, d) for d in (1, 2) for n in (2, 3, 4) for m in (1, 3, 5)]
        seeds = _sub_seeds(seed, len(grid) + 2 * len(self.DEGENERATE))
        items = []
        for (n, m, d), s in zip(grid, seeds):
            inst = cf.build_random_instance(s, n_min=n, n_max=n, m_min=m, m_max=m, d=d, discrete_prob=0.0)
            items.append(Item(f"random-n{n}-m{m}-d{d}", inst, s))
        degenerate = [(n, mult, m) for m in (2, 4) for n, mult in self.DEGENERATE]
        for (n, mult, m), s in zip(degenerate, seeds[len(grid):]):
            rng = np.random.default_rng(s)
            v = random_unitary(rng, n)
            phases = np.repeat(np.linspace(0.0, 2.0 * np.pi, len(mult), endpoint=False) + rng.uniform(0, 2 * np.pi), mult)
            inst = cf.build_tail_shift(n, m, (v * np.exp(1j * phases)) @ v.conj().T)
            items.append(Item(f"degenerate-n{n}-m{m}", inst, s))
        return items

    def run(self, inst, seed: int) -> dict:
        verdict = cf.check_minimality(inst.alpha, inst.p)
        fs_ambient = cf.fixed_space(inst.alpha)
        fs_corner = cf.fixed_space(inst.phi)
        iso = cf.check_complete_isometry(
            inst, levels=3, samples=100, seed=seed, fs_ambient=fs_ambient, fs_corner=fs_corner
        )
        cs = cf.cstar_closure(fs_corner)
        erg = cf.ergodic_projection(inst.phi)
        rng = np.random.default_rng(seed)
        lift_identity = max(
            (cf.pi_limit(inst, cf.compress(inst.emb, x), cstar=cs) - x).norm()
            for x in _combos(fs_ambient.matrix, inst.structure, rng, 10)
        )
        factorization = max(
            (cf.compress(inst.emb, cf.pi_limit(inst, y, cstar=cs)) - erg.apply(y)).norm()
            for y in _combos(cs.matrix, inst.emb.corner, rng, 10)
        )
        (y,) = _combos(fs_corner.matrix, inst.emb.corner, rng, 1)
        z = cf.lift_fixed_point(inst, y)
        return {
            "minimality": verdict.status,
            "dims": (fs_ambient.dimension, fs_corner.dimension, erg.rank),
            "iso": (iso.passed, iso.bijective),
            "lift_identity": lift_identity,
            "factorization": factorization,
            "y": y.blocks,
            "z": z.blocks,
        }

    def check(self, item: Item, out: dict):
        inst = item.payload
        if "fixed_dim" not in item.info:
            item.info["fixed_dim"] = _fixed_dim(inst.alpha)
        if out["minimality"] is not cf.Minimality.MINIMAL:
            return f"minimality verdict {out['minimality'].value}", False
        if out["dims"] != (item.info["fixed_dim"],) * 3:
            return f"fixed dims / rho rank {out['dims']}, expected {item.info['fixed_dim']}", False
        if out["iso"] != (True, True):
            return f"complete isometry (passed, bijective) = {out['iso']}", False
        if not out["lift_identity"] <= 1e-8:
            return f"pi(E(x)) = x residual {out['lift_identity']:.3e}", False
        if not out["factorization"] <= 1e-7:
            return f"E(pi(y)) = Phi(y) residual {out['factorization']:.3e}", False
        z = out["z"]
        scale = max(1.0, max(np.linalg.norm(b, 2) for b in z))
        compressed = [u.conj().T @ z[i] @ u for u, i in zip(inst.emb.isometries, inst.emb.kept)]
        if not _block_gap(compressed, out["y"]) <= 1e-8 * scale:
            return "lift does not compress to y", False
        for gen in inst.alpha.generators:
            if not _block_gap(_apply_kraus(gen, z), z) <= 1e-8 * scale:
                return "lift is not alpha-fixed", False
        return None


SUITE_SAMPLES = 50


class BareFamilies(Workload):
    """Commuting mixtures on (2,), (3,), (2,3) with d in {1, 2}, plus named models.

    Op cost falls in three tiers: the named models and one-generator
    mixtures on a single block, the mid-sized mixtures, and two-generator
    mixtures on (2,3).  The counts (5, 6, 2) put the median inside the
    middle tier and the p90 inside the top one, so neither sits on a
    boundary between tiers.
    """

    name = "bare_families"
    SHAPES = (((2,), 1), ((3,), 1)) + (((2, 3), 1), ((2,), 2), ((3,), 2)) * 2 + (((2, 3), 2),) * 2

    def build(self, seed: int, workdir: str) -> list[Item]:
        shapes = self.SHAPES
        seeds = _sub_seeds(seed, len(shapes) + 3)
        items = []
        for (dims, d), s in zip(shapes, seeds):
            fam, data = mixture_family_with_data(s, dims=dims, terms=3, d=d)
            label = f"mixture{''.join(map(str, dims))}-d{d}"
            items.append(Item(label, fam, s, {"fixed_dim": mixture_fixed_dim(data, dims), "kernel_dim": 0}))
        rng = np.random.default_rng(seeds[-3])
        gamma = rng.uniform(0.2, 0.8)
        items.append(Item("damping", cf.damping_family(gamma), seeds[-3], {"fixed_dim": 1, "kernel_dim": 0}))
        theta = rng.uniform(0.3, 2.0 * np.pi - 0.3)
        items.append(Item("rotation", cf.rotation_family(theta), seeds[-2], {"fixed_dim": 2, "kernel_dim": 0}))
        c = rng.uniform(0.3, 0.8)
        s = rng.uniform(0.2, 0.9) * np.sqrt(1.0 - c * c)
        items.append(Item("leaky-damping", cf.leaky_damping_family(c, s), seeds[-1], {"fixed_dim": 1, "kernel_dim": 1}))
        return items

    def run(self, fam, seed: int) -> dict:
        fs = cf.fixed_space(fam)
        cs = cf.cstar_closure(fs)
        erg = cf.ergodic_projection(fam)
        suite = cf.property_suite(fam, seed=seed, samples=SUITE_SAMPLES)
        kic = cf.kernel_ideal_check(fam, fs=fs, cs=cs, erg=erg, seed=seed)
        return {
            "dims": (fs.dimension, erg.rank),
            "suite": {k: v.status for k, v in suite.items.items()},
            "kernel": (kic.passed, kic.dim_kernel, kic.dim_ideal),
        }

    def check(self, item: Item, out: dict):
        failing = [k for k, status in out["suite"].items() if status != "PASS"]
        if failing:
            return f"property suite items not PASS: {failing}", False
        k = item.info["kernel_dim"]
        if out["kernel"] != (True, k, k):
            return f"kernel-ideal check (passed, dim ker, dim ideal) = {out['kernel']}, expected dim {k}", False
        if out["dims"] != (item.info["fixed_dim"],) * 2:
            return f"fixed dim / rho rank {out['dims']}, expected {item.info['fixed_dim']}", False
        return None


CLI_SAMPLES = 20


class CliReports(Workload):
    """Demo files of all six shipped families, run as validate + analyze/dilation.

    The seed draws the unitaries, angles, rates and mixture seeds; the
    structures (block sizes, shift lengths) stay fixed, and the two
    random-dilation files use the seeds of the CLI acceptance test, whose
    draw of n and m would otherwise change the op's cost with the seed.
    """

    name = "cli_reports"

    def build(self, seed: int, workdir: str) -> list[Item]:
        rng = np.random.default_rng(seed)

        def r(lo, hi):
            return repr(float(rng.uniform(lo, hi)))

        def seed_param():
            return str(int(rng.integers(0, 10**6)))

        c = float(rng.uniform(0.3, 0.8))
        specs = [
            ("tail-shift", "dilation", {"n": "2", "m": "2", "unitary": "pauli-x"}),
            ("tail-shift", "dilation", {"n": "3", "m": "2", "unitary": "random", "seed": seed_param()}),
            ("rotation", "analyze", {"theta": r(0.3, 2.0 * np.pi - 0.3)}),
            ("rotation", "analyze", {"theta": r(0.3, 2.0 * np.pi - 0.3)}),
            ("damping", "analyze", {"gamma": r(0.2, 0.8)}),
            ("damping", "analyze", {"gamma": r(0.2, 0.8)}),
            ("leaky-damping", "analyze", {"c": repr(c), "s": repr(float(rng.uniform(0.2, 0.9) * np.sqrt(1 - c * c)))}),
            ("leaky-damping", "analyze", {}),
            ("random-mixture", "analyze", {"seed": seed_param(), "dims": ["2", "3"], "d": "1"}),
            ("random-mixture", "analyze", {"seed": seed_param(), "dims": ["2", "3"], "d": "2"}),
            ("random-dilation", "dilation", {"seed": "4", "d": "1"}),
            ("random-dilation", "dilation", {"seed": "11", "d": "2"}),
        ]
        items = []
        for k, (family, command, params) in enumerate(specs):
            path = os.path.join(workdir, f"{k:02d}-{family}.json")
            data = cli.cmd_demo(family, params, path)
            data["config"] = {**(data.get("config") or {}), "samples": CLI_SAMPLES}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
            reports = (os.path.join(workdir, f"{k:02d}-validate.out.json"), os.path.join(workdir, f"{k:02d}-{command}.out.json"))
            items.append(Item(f"{family}-{command}", (command, path, reports), k))
        return items

    def input_bytes(self, item: Item) -> bytes:
        with open(item.payload[1], "rb") as fh:
            return fh.read()

    def run(self, payload, seed: int) -> dict:
        command, path, (validate_out, command_out) = payload
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc_validate = cli.main(["validate", path, "--out", validate_out])
            rc = cli.main([command, path, "--out", command_out])
        return {"exit_codes": (rc_validate, rc), "reports": (validate_out, command_out)}

    def check(self, item: Item, out: dict):
        if out["exit_codes"] != (0, 0):
            return f"exit codes (validate, {item.payload[0]}) = {out['exit_codes']}, expected (0, 0)", False
        required = {"validate": {"family"}, "analyze": {"fixed_space", "ergodic_projection", "kernel_ideal"},
                    "dilation": {"coinvariance", "minimality", "complete_isometry", "kernel_ideal"}}
        for path in out["reports"]:
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            tasks = {e["task"] for e in rep["entries"]}
            missing = required[rep["command"]] - tasks
            if missing:
                return f"{rep['command']} report lacks {sorted(missing)}", False
            if not any(t.startswith("suite:") for t in tasks) and rep["command"] != "validate":
                return f"{rep['command']} report has no property-suite entries", False
            bad = [e["task"] for e in rep["entries"] if e["status"] != "PASS"]
            if bad or rep["exit_code"] != 0:
                return f"{rep['command']} report entries not PASS: {bad}", False
        return None


# phi_limit's defaults; its stopping rule leaves an error of up to
# LIMIT_TOL / gap, and it needs about ln(1e9) / gap steps to stop.
LIMIT_TOL = 1e-10
LIMIT_MAX_ITER = 10**5
CHECK_TOL = 1e-7  # the package's own limit tolerance (property_suite lim_tol)


class SlowGap(Workload):
    """Damping and leaky-damping limits with gaps on a log grid 1e-1 .. 5e-5."""

    name = "slow_gap"

    def build(self, seed: int, workdir: str) -> list[Item]:
        rng = np.random.default_rng(seed)
        gaps = np.geomspace(1e-1, 5e-5, 12)
        items = []
        for gap in gaps:
            c, s = np.sqrt(1.0 - gap), np.sqrt(rng.uniform(0.25, 0.75) * gap)
            fam = cf.leaky_damping_family(c, s)
            k = s * s / (1.0 - c * c)
            # a E00 + b E11 with the decaying part (b - k a) of fixed size, so the
            # op's cost depends on the gap and not on the draw
            a, dev = np.exp(2j * np.pi * rng.uniform(size=2)) / np.sqrt(2.0)
            y = cf.AlgebraElement(fam.structure, (np.diag([a, k * a + dev]),))
            expected = np.diag([a, k * a])
            items.append(Item(f"leaky-gap{gap:.1e}", (fam, y), 0, {"gap": gap, "expected": expected, "leaky": True}))
        for gap in gaps[::2]:
            fam = cf.damping_family(gap)
            lam = np.exp(2j * np.pi * rng.uniform())
            y = cf.AlgebraElement(fam.structure, (lam * np.eye(2),))
            items.append(Item(f"damping-gap{gap:.1e}", (fam, y), 0, {"gap": gap, "expected": lam * np.eye(2), "leaky": False}))
        return items

    def run(self, payload, seed: int) -> dict:
        fam, y = payload
        return {"limit": cf.phi_limit(fam, y).blocks[0]}

    def check(self, item: Item, out: dict):
        gap, leaky = item.info["gap"], item.info["leaky"]
        err = np.linalg.norm(out["limit"] - item.info["expected"], 2)
        if err <= CHECK_TOL:
            return None
        known = leaky and err <= 10.0 * LIMIT_TOL / gap
        return f"error vs rho {err:.3e} > {CHECK_TOL:g} at gap {gap:.2e}", known

    def check_exception(self, item: Item, exc: Exception):
        gap = item.info["gap"]
        known = item.info["leaky"] and isinstance(exc, cf.Divergent) and gap * LIMIT_MAX_ITER < 30.0
        return f"{type(exc).__name__} at gap {gap:.2e}: {exc}", known


WORKLOADS = {w.name: w for w in (DilationSuite(), BareFamilies(), CliReports(), SlowGap())}


def fingerprint(workload: Workload, items: list[Item]) -> str:
    """Digest of a pool's generated inputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(workload.input_bytes(item))
    return h.hexdigest()
