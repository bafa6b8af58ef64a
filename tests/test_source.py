import ast
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


def test_only_the_cli_imports_click():
    # the library, verify_word included, runs without the command line
    found = []
    for path, node in _nodes():
        if path.name == "cli.py":
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "click" for name in names):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []
