"""No tolerance has a default below the command line, and no threshold hides in a function body.

Each tolerance is a named constant of the module that decides with it, or
an argument that every caller passes, so no value hides in a signature or
as a literal inside the code that decides with it.
"""

import importlib
import inspect
import types

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


def small_constants(code):
    """Float constants in (0, 1e-6] of a code object and of every code object nested in it."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from small_constants(const)
        elif isinstance(const, float) and 0.0 < const <= 1e-6:
            yield const


def test_no_threshold_literal_inside_a_function():
    # a threshold in a function body is a module constant with its comment; memoised functions are unwrapped
    literals = []
    for mod in MODULES:
        module = importlib.import_module(f"cpfix.{mod}")
        for name, fn in defined_functions(module):
            literals += [f"cpfix.{mod}.{name}: {c!r}" for c in small_constants(inspect.unwrap(fn).__code__)]
    assert literals == []
