import ast
from pathlib import Path

import ceq

SOURCES = sorted(Path(ceq.__file__).parent.glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"field.py", "matrix.py", "oracle.py", "reduction.py"}


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may live in one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
