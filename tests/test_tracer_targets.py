"""The benchmark tracer's targets exist in the package.

`bench/tracer.py` rebinds each `(module, name)` of its `TARGETS` by
`getattr`, so a renamed or deleted function breaks traced benchmark runs.
The targets are read from the file's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    missing = [
        f"cpfix.{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"cpfix.{module}"), name, None))
    ]
    assert not missing, missing
    # AlgebraElement is traced through the __post_init__ its class defines
    assert "__post_init__" in vars(importlib.import_module("cpfix.vnalg").AlgebraElement)
