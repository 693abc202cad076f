"""Invariants must survive ``python -O``, which strips assert statements,
and must not pose as one by raising ``AssertionError`` by hand.  No input
size may crash the program, so no function recurses either: a recursion
as deep as its input hits the interpreter's recursion limit.  The runtime
is stdlib-only, so every import names the standard library or the package:
numpy, scipy and the like may be installed where the tests run, and a stray
import of one would pass every other test.  The sweep forks its workers
itself, so no process pool is imported either.  The records are named
tuples and plain classes, so no module imports ``dataclasses``.  Every name
the package exports has a caller outside the tests, so test-only code lives
in the tests.  The DIMACS reader reads every number through one helper, so
the rule for what a number is lives in one place.  Likewise every answer to
the counting certificate comes from ``bounds.py``: no other module decides
regularity or computes the window 2k-1 for itself."""

import ast
import os
import subprocess
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


# A @dataclass exec-compiles each method it generates while its class is
# built.  With cached bytecode, building the package's 13 such classes took
# 7.2 ms of a 9.1 ms import (CPython 3.11.7, a shared 2-core box), and on a
# cold start dataclasses also loads inspect, ast, dis and tokenize.
def _dataclass_imports(tree: ast.AST) -> list[tuple[int, str]]:
    return [(line, name) for line, name in _imports(tree) if name == "dataclasses"]


def test_package_imports_no_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line, _ in _dataclass_imports(tree)]
    assert found == [], "use a NamedTuple or a plain class; drop the import at " + ", ".join(found)
    probe = ast.parse("import dataclasses\ndef f():\n    from dataclasses import dataclass\n")
    assert _dataclass_imports(probe) == [(1, "dataclasses"), (3, "dataclasses")]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's own imports out, so only the package's remain
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import strongedge.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout == "[]\n"


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


def _int_reads(tree: ast.AST, reader: str) -> list[int]:
    """Lines where ``tree`` names ``int`` outside type hints and outside
    the function ``reader``: a call, or ``int`` passed on as in ``map``."""
    skip = set()
    for node in ast.walk(tree):
        hints = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == reader:
                skip |= {id(n) for n in ast.walk(node)}
            hints.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            hints.append(node.annotation)
        skip |= {id(n) for hint in hints if hint is not None for n in ast.walk(hint)}
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "int" and id(node) not in skip
    ]


def test_dimacs_reads_every_number_through_one_helper():
    tree = ast.parse((PACKAGE / "dimacs.py").read_text())
    assert _int_reads(tree, "_two_ints") == [], "read DIMACS numbers through _two_ints"
    (parse,) = (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "parse_dimacs")
    reads = [
        node for node in ast.walk(parse)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_two_ints"
    ]
    assert len(reads) == 3  # the p edge, c bipartition and e lines
    # the check still sees a call or a passed-on int, but not a type hint
    probe = ast.parse(
        "def _two_ints(a: str) -> int:\n    return int(a)\n"
        "def f(x: int) -> list[int]:\n    y: int = 0\n    return list(map(int, x)), int(y)\n"
    )
    assert _int_reads(probe, "_two_ints") == [5, 5]


def _callers(tree: ast.AST, name: str) -> list[tuple[int, str]]:
    """(line, innermost enclosing function, or ``<module>``) of every call
    of ``name`` in ``tree``, plain or as an attribute."""
    found = []
    stack = [(tree, "<module>")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.append((node.lineno, func))
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return sorted(found)


def _windows(tree: ast.AST) -> list[int]:
    """Lines where ``tree`` computes ``2 * x - 1``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.Constant) and node.right.value == 1
        and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
        and isinstance(node.left.left, ast.Constant) and node.left.left.value == 2
    ]


def test_bounds_holds_every_answer_to_the_certificate():
    regularity, certificates, windows = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "bounds.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        regularity += [f"{path.name}:{line}" for line, _ in _callers(tree, "is_regular")]
        certificates += [(path.name, func) for _, func in _callers(tree, "counting_certificate")]
        if path.name in ("pipeline.py", "cli.py"):
            windows += [f"{path.name}:{line}" for line in _windows(tree)]
    assert regularity == [], "ask bounds.py, not is_regular, at " + ", ".join(regularity)
    assert certificates == [("pipeline.py", "_certify")]
    assert windows == [], "take the window from bounds.py, not 2 * k - 1, at " + ", ".join(windows)
    # the checks still see a call, plain, as a method or nested, and the window
    probe = ast.parse(
        "def f(g, k):\n    def h():\n        return g.is_regular(k)\n"
        "    return is_regular(g), 2 * k - 1, 2 * k, k - 1\n"
    )
    assert _callers(probe, "is_regular") == [(3, "h"), (4, "f")]
    assert _windows(probe) == [4]
