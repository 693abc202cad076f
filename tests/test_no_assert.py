"""Invariants must survive ``python -O``, which strips assert statements,
and must not pose as one by raising ``AssertionError`` by hand.  No input
size may crash the program, so no function recurses either: a recursion
as deep as its input hits the interpreter's recursion limit.  The runtime
is stdlib-only, so every import names the standard library or the package:
numpy, scipy and the like may be installed where the tests run, and a stray
import of one would pass every other test.  The sweep forks its workers
itself, so no process pool is imported either.  Every name the package
exports has a caller outside the tests, so test-only code lives in the
tests."""

import ast
import sys
from pathlib import Path

import strongedge

PACKAGE = Path(strongedge.__file__).parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"


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


def _recursions(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, function) of every call a function in ``tree`` makes to itself."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = _calls_itself(func)
            if line is not None:
                found.append((line, func.name))
    return found


def test_package_recursion_is_capped():
    # the cap is zero: no function in the package recurses
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{line} ({name})" for line, name in _recursions(tree)]
    assert found == [], "use an explicit stack instead of recursion at " + ", ".join(found)
    # the check still sees a recursion, plain or through self, when nested
    probe = ast.parse(
        "def f(n):\n    def g(i):\n        return g(i - 1)\n"
        "class C:\n    def h(self):\n        self.h()\n"
    )
    assert _recursions(probe) == [(3, "g"), (6, "h")]


def _imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every absolute import in ``tree``; a relative
    import stays inside the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def _foreign_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of every import in ``tree`` that names neither the
    standard library nor this package."""
    return [
        (line, name)
        for line, name in _imports(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"strongedge"}
    ]


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} ({name})" for line, name in _foreign_imports(tree)]
    assert found == [], "the runtime is stdlib-only; drop the import at " + ", ".join(found)
    # the check still sees a third-party import, at top level or in a body
    probe = ast.parse("import numpy.linalg\ndef f():\n    from scipy import sparse\n")
    assert _foreign_imports(probe) == [(1, "numpy.linalg"), (3, "scipy")]


# The sweep's workers are plain os.fork children that send JSON lines over
# a pipe.  A ProcessPoolExecutor doing the same split gained half as much
# on the search workload and raised its peak RSS from 32.8 to 35.2-35.4 MB.
# Importing what it needs costs 1.5 MB (multiprocessing) and 0.3 MB
# (concurrent.futures) of peak RSS and, at module level, about 14 ms: half
# of the package import, which is the ladder and quartic set-up time.
# (On CPython 3.11, 2 CPUs, after the package import: concurrent.futures
# .process 1.66 MB and 19-29 ms, multiprocessing.pool 1.04 MB and 15 ms.)
PROCESS_POOL_MODULES = {"multiprocessing", "concurrent", "pickle"}


def _pool_imports(tree: ast.AST) -> list[tuple[int, str]]:
    return [
        (line, name)
        for line, name in _imports(tree)
        if name.partition(".")[0] in PROCESS_POOL_MODULES
    ]


def test_package_imports_no_process_pool():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} ({name})" for line, name in _pool_imports(tree)]
    assert found == [], "fork the workers with os.fork; drop the import at " + ", ".join(found)
    probe = ast.parse(
        "import multiprocessing.pool\nimport pickle, os\n"
        "def f():\n    from concurrent.futures import ProcessPoolExecutor\n"
    )
    assert _pool_imports(probe) == [(1, "multiprocessing.pool"), (2, "pickle"), (4, "concurrent.futures")]


def _exported_names() -> set[str]:
    """Names ``strongedge/__init__.py`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read, plainly or as attributes, in ``tree``.  A definition, an
    assignment or an import is not a reference."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def test_every_export_has_a_caller_outside_the_tests():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += [p for p in sorted(BENCHMARK.glob("*.py")) if not p.name.startswith("test_")]
    used = set()
    for path in paths:
        used |= _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(_exported_names() - used)
    assert unused == [], "exported for the tests alone; move to tests/_helpers.py: " + ", ".join(unused)
    # the check still tells a call from a definition, assignment or import
    probe = ast.parse("from .x import a\ne = 1\ndef b():\n    return c.d()\n")
    assert _referenced_names(probe) == {"c", "d"}
