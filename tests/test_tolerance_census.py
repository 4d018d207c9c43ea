"""No tolerance has a default below the command line.

Each tolerance is a named constant of the module that decides with it, or
an argument that every caller passes, so no value hides in a signature.
"""

import importlib
import inspect

MODULES = ("matcore", "vnalg", "cpsemi", "dilation", "fixpoint", "cli")
UNWRAP = ("__func__", "fget", "func")  # static and class methods, properties, cached properties


def defined_functions(module):
    """Every function and method whose code the module defines, as (qualified name, function) pairs."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                for wrapper in UNWRAP:
                    member = getattr(member, wrapper, member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_tolerance_parameter_has_a_default():
    defaulted, seen = [], 0
    for mod in MODULES:
        module = importlib.import_module(f"cpfix.{mod}")
        for name, fn in defined_functions(module):
            seen += 1
            for param in inspect.signature(fn).parameters.values():
                if (param.name == "tol" or param.name.endswith("_tol")) and param.default is not param.empty:
                    defaulted.append(f"cpfix.{mod}.{name}({param.name}={param.default!r})")
    assert seen > 100  # the walk reached the functions and the methods
    assert defaulted == []
