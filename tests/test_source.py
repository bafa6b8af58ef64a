import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wml
from wml.invariants import analyze
from wml.montecarlo import Estimate, sample_haar
from wml.ratfunc import LaurentSeries, Polynomial, RationalFunction
from wml.stallings import core_graph
from wml.surfaces import build_surface, enumerate_matchings
from wml.weingarten import TraceMonomial

SOURCES = sorted(Path(wml.__file__).parent.glob("*.py"))


def _nodes():
    """(path, node) for every syntax node of every ``wml`` module."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_assert_statements():
    # python -O strips asserts, so library invariants raise explicit errors
    assert any(path.name == "invariants.py" for path in SOURCES)
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_raise_assertion_error():
    # a broken invariant raises RuntimeError (or a more specific error),
    # not an AssertionError standing in for an assert
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_base_defines_setattr_or_delattr():
    # immutability is declared once, in errors.Immutable, for every value
    # class; a class of its own would have to repeat it, and could forget
    # half of it
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in _nodes()
        if isinstance(node, ast.ClassDef)
        and (path.name, node.name) != ("errors.py", "Immutable")
        and any(isinstance(item, ast.FunctionDef)
                and item.name in ("__setattr__", "__delattr__")
                for item in node.body)
    ]
    assert found == []


def _surface():
    return build_surface(next(enumerate_matchings([wml.parse("[x,y]", 2)])))


# (class name, a builder of one instance, one of its fields)
VALUE_CLASSES = [
    ("Word", lambda: wml.parse("[x,y]", 2), "letters"),
    ("TraceMonomial", lambda: TraceMonomial((1, -1)), "exponents"),
    ("LabeledGraph", lambda: core_graph([wml.parse("[x,y]", 2)], 2),
     "edges"),
    ("MatchingSpec", lambda: _surface().spec, "matchings"),
    ("SurfaceComponent", lambda: _surface().components[0], "chi"),
    ("SurfaceComplex", _surface, "components"),
    ("InvariantReport", lambda: analyze(wml.parse("x", 2), 2), "pi"),
    ("Polynomial", lambda: Polynomial((1, 2)), "coeffs"),
    ("RationalFunction", lambda: RationalFunction(Polynomial((0, 1)), 2),
     "den"),
    ("LaurentSeries", lambda: LaurentSeries(1, (1, 0)), "coeffs"),
    ("UnitarySample", lambda: sample_haar(2, 1), "matrix"),
    ("Estimate", lambda: Estimate(1j, 0.5, 10, 1, 2, 0.0), "mean"),
]


@pytest.mark.parametrize("name, build, field", VALUE_CLASSES,
                         ids=[case[0] for case in VALUE_CLASSES])
def test_value_class_refuses_assignment_and_deletion(name, build, field):
    # these objects are hash, cache and memo keys: a field that changed or
    # vanished after construction would break every table holding one
    value = build()
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(AttributeError) as assigned:
        setattr(value, field, before)
    assert str(assigned.value) == f"{name} is immutable"
    with pytest.raises(AttributeError) as deleted:
        delattr(value, field)
    assert str(deleted.value) == f"{name} is immutable"
    assert getattr(value, field) is before
    assert not hasattr(value, "__dict__")


def _imported_modules(node):
    """Top-level package names an import statement loads; [] for any
    other node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return []
    return [name.split(".")[0] for name in names]


def test_nothing_imports_click():
    # the command line is built on argparse; click costs every call start-up
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if "click" in _imported_modules(node)
    ]
    assert found == []


def test_no_module_level_numpy_import():
    # numpy is loaded by the Monte Carlo functions that sample, not when a
    # module is imported; function bodies are the only place it may appear
    found = []
    for path in SOURCES:
        stack = list(ast.parse(path.read_text(), filename=str(path)).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if "numpy" in _imported_modules(node):
                found.append(f"{path.name}:{node.lineno}")
            stack.extend(ast.iter_child_nodes(node))
    assert found == []


def test_importing_the_cli_does_not_load_numpy():
    env = {**os.environ, "PYTHONPATH": str(Path(wml.__file__).parent.parent)}
    code = "import sys, wml.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_importing_the_cli_loads_neither_click_nor_hashlib():
    # every call pays its start-up; hashlib is loaded only to key a cache
    env = {**os.environ, "PYTHONPATH": str(Path(wml.__file__).parent.parent)}
    code = ("import sys, wml.cli; "
            "print(sorted({'click', 'hashlib'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_benchmark_bindings_resolve():
    # the traced benchmark wraps the methods its tracer names, and its worker
    # makes these calls; a deleted one would crash the run, not fail a test
    tracer = Path(wml.__file__).parents[2] / "perfbench" / "tracer.py"
    methods = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]
    )
    for module_name, class_name, names in methods:
        cls = getattr(importlib.import_module(module_name), class_name)
        for name in names:
            assert name in vars(cls), f"{class_name}.{name}"
    f = wml.moment(wml.parse("[x,y]", 2), (1,))
    json.dumps({"rational": f.serialize(),
                "laurent": wml.laurent(f, 3).serialize()})
    json.dumps(wml.analyze(wml.parse("[x,y]", 2), 2).to_json())


def test_every_private_helper_is_used():
    # a private function, class or method that nothing in the package
    # reads outside its own body is dead code left behind by a change
    defined = []
    used = []
    for path, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not name.endswith("__"):
                defined.append((path, node))
        elif isinstance(node, ast.Name):
            used.append((path, node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            used.append((path, node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            used.append((path, node.lineno, node.name))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in defined
        if not any(name == node.name and not (
            where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in used)
    ]
    assert unused == []
