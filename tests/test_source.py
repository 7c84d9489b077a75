"""Rules over the package's own source, read as syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pfg"


def test_no_assert_in_the_package():
    # python -O strips assert statements, so an invariant is checked by code
    # that raises, never by an assert
    modules = sorted(PACKAGE.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert modules
    assert found == []
