"""Invariants must survive ``python -O``, which strips assert statements,
and must not pose as one by raising ``AssertionError`` by hand.  No input
size may crash the program, so no function recurses either: a recursion
as deep as its input hits the interpreter's recursion limit."""

import ast
from pathlib import Path

import strongedge

PACKAGE = Path(strongedge.__file__).parent

# (module, function) of the recursions whose depth has a fixed cap: the
# brute-force oracle's inner ``feasible`` refuses graphs above
# BRUTE_FORCE_EDGE_CAP edges.
CAPPED_RECURSION = {("solver.py", "feasible")}


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


def _calls_itself(func: ast.FunctionDef | ast.AsyncFunctionDef) -> int | None:
    """Line of the first call of ``func`` by its own name (or as
    ``self.<name>``) inside its body, else None."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == func.name) or (
            isinstance(f, ast.Attribute)
            and f.attr == func.name
            and isinstance(f.value, ast.Name)
            and f.value.id == "self"
        ):
            return node.lineno
    return None


def test_package_recursion_is_capped():
    calls = {}  # (module, function) -> line of its call to itself
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = _calls_itself(func)
                if line is not None:
                    calls[str(path.relative_to(PACKAGE)), func.name] = line
    uncapped = [f"{m}:{line} ({name})" for (m, name), line in calls.items()
                if (m, name) not in CAPPED_RECURSION]
    assert uncapped == [], "use an explicit stack instead of recursion at " + ", ".join(uncapped)
    # the check still sees the recursion it exempts
    assert set(calls) == CAPPED_RECURSION
