"""Invariants must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import strongedge

PACKAGE = Path(strongedge.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == [], "raise InternalInvariantError instead of assert at " + ", ".join(found)
