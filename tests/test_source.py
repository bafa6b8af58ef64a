import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import wml

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
