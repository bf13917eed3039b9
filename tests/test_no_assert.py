"""The package holds no ``assert`` statement: ``python -O`` strips them, so an
invariant written as one would silently stop being checked.  Invariants
raise exceptions instead."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "inflatonlab"


def test_no_assert_statements_in_the_package():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/inflatonlab: {found}"
