import ast
from pathlib import Path

import wml


def test_no_assert_statements():
    # python -O strips asserts, so library invariants raise explicit errors
    sources = sorted(Path(wml.__file__).parent.glob("*.py"))
    assert any(path.name == "invariants.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
