"""Invariants must survive ``python -O``, which strips assert statements,
and must not pose as one by raising ``AssertionError`` by hand."""

import ast
from pathlib import Path

import strongedge

PACKAGE = Path(strongedge.__file__).parent


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raises_assertion_error(node)
        ]
    assert found == [], "raise InternalInvariantError instead of assert at " + ", ".join(found)
