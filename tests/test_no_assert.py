"""Invariants must survive ``python -O``, which strips assert statements,
and must not pose as one by raising ``AssertionError`` by hand.  No input
size may crash the program, so no function recurses either: a recursion
as deep as its input hits the interpreter's recursion limit.  The runtime
is stdlib-only, so every import names the standard library or the package:
numpy, scipy and the like may be installed where the tests run, and a stray
import of one would pass every other test."""

import ast
import sys
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


def _foreign_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every import in ``tree`` that names neither the
    standard library nor this package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # a relative import stays inside the package
        found += [
            (node.lineno, name)
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names | {"strongedge"}
        ]
    return found


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} ({name})" for line, name in _foreign_imports(tree)]
    assert found == [], "the runtime is stdlib-only; drop the import at " + ", ".join(found)
    # the check still sees a third-party import, at top level or in a body
    probe = ast.parse("import numpy.linalg\ndef f():\n    from scipy import sparse\n")
    assert _foreign_imports(probe) == [(1, "numpy.linalg"), (3, "scipy")]
