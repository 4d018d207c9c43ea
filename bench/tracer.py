"""Outside-in tracer for the cpfix modules.

The package binds names across modules (`from .cpsemi import apply` puts
`apply` into `fixpoint`, `dilation` and `cli`), so patching one module
misses most calls.  `Tracer.install` rebinds every traced function in
every loaded `cpfix*` namespace that holds it, and `uninstall` restores
the originals.  `AlgebraElement` is traced by wrapping its
`__post_init__`, which the dataclass constructor calls on every build.

Each call becomes a span (name, start, end, parent span, op index), kept
in flat in-memory arrays and written out once by `save`.  Self time is a
span's duration minus the durations of its direct traced children.  No
traced function calls itself, so summing spans per name gives its total
time without double counting.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs in cpfix; "AlgebraElement" means its __post_init__.
TARGETS = (
    ("matcore", "op_norm"),
    ("matcore", "nullspace_pair"),
    ("matcore", "psd_sqrt"),
    ("matcore", "eig_hermitian"),
    ("matcore", "is_psd"),
    ("vnalg", "AlgebraElement"),
    ("vnalg", "element_from_coords"),
    ("vnalg", "amplify_combination"),
    ("vnalg", "compress"),
    ("cpsemi", "apply"),
    ("cpsemi", "apply_power"),
    ("cpsemi", "compose"),
    ("cpsemi", "to_superoperator"),
    ("cpsemi", "validate_cp"),
    ("cpsemi", "validate_endomorphism"),
    ("cpsemi", "validate_family"),
    ("cpsemi", "make_family"),
    ("dilation", "build_random_instance"),
    ("dilation", "make_instance"),
    ("dilation", "compress_semigroup"),
    ("dilation", "check_coinvariance"),
    ("dilation", "check_minimality"),
    ("fixpoint", "fixed_space"),
    ("fixpoint", "cstar_closure"),
    ("fixpoint", "ergodic_projection"),
    ("fixpoint", "phi_limit"),
    ("fixpoint", "pi_limit"),
    ("fixpoint", "lift_fixed_point"),
    ("fixpoint", "check_complete_isometry"),
    ("fixpoint", "kernel_ideal_check"),
    ("fixpoint", "property_suite"),
    ("cli", "load_problem"),
    ("cli", "cmd_validate"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_dilation"),
    ("cli", "write_report"),
)

# Statistics reported per module; self time is omitted where a layer is
# mostly a caller of other traced layers.
MODULE_STATS = {
    "matcore": ("calls", "self_s"),
    "vnalg": ("calls", "self_s"),
    "cpsemi": ("calls", "self_s"),
    "dilation": ("calls", "total_s"),
    "fixpoint": ("calls", "total_s", "self_s"),
    "cli": ("calls", "total_s"),
}

# Waste ratios: calls per distinct first argument (1 when nothing is rebuilt).
RATIOS = {
    "cpsemi.to_superoperator.per_generator": "cpsemi.to_superoperator",
    "fixpoint.fixed_space.per_family": "fixpoint.fixed_space",
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


class Tracer:
    """Records one span per call of each target while installed and enabled."""

    def __init__(self):
        self.names = SPAN_NAMES
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        distinct_ids = {self.names.index(name) for name in RATIOS.values()}
        # first arguments held alive so that ids stay distinct
        self._seen: dict[int, dict[int, object]] = {i: {} for i in distinct_ids}

    def _wrap(self, idx: int, fn):
        seen = self._seen.get(idx)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.name_id)
            self.name_id.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            if seen is not None and args:
                seen[id(args[0])] = args[0]
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        spaces = [m for name, m in sorted(sys.modules.items()) if name == "cpfix" or name.startswith("cpfix.")]
        for idx, (mod, fn) in enumerate(TARGETS):
            module = sys.modules[f"cpfix.{mod}"]
            if fn == "AlgebraElement":
                cls = module.AlgebraElement
                original = cls.__dict__["__post_init__"]
                self._patches.append((cls, "__post_init__", original))
                setattr(cls, "__post_init__", self._wrap(idx, original))
                continue
            original = getattr(module, fn)
            wrapper = self._wrap(idx, original)
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is original:
                        self._patches.append((space, attr, original))
                        setattr(space, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            space, attr, original = self._patches.pop()
            setattr(space, attr, original)

    def _arrays(self):
        ids = np.array(self.name_id, dtype=np.int64)
        par = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        return ids, par, dur

    def metrics(self) -> dict:
        """Per-layer calls, total and self seconds, and the waste ratios."""
        ids, par, dur = self._arrays()
        n = len(self.names)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child[: dur.size]
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            stats = {"calls": (int(calls[i]), "count"), "total_s": (float(total[i]), "s"),
                     "self_s": (float(self_s[i]), "s")}
            for stat in MODULE_STATS[name.split(".")[0]]:
                value, unit = stats[stat]
                out[f"{name}.{stat}"] = {"value": value, "unit": unit}
        for metric, name in RATIOS.items():
            i = self.names.index(name)
            distinct = len(self._seen[i])
            out[metric] = {"value": float(calls[i]) / distinct if distinct else 0.0, "unit": "ratio"}
        return out

    def save(self, path: str) -> None:
        """Write every span: name index, parent span, op index, start, end."""
        ids, par, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=par,
            op=np.array(self.op, dtype=np.int64),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )
