"""The committed ``BENCH_*.json`` files are the only performance figures
that count, so each must report what ``BENCHMARK.json`` declares: every
end-to-end metric on every workload, as parent and change quartiles over
the stated number of alternating pairs, with a win count and correct runs
on both sides.  This reads ``BENCHMARK.json`` and changes nothing.

The benchmark's tracer wraps package attributes by name, so a rename in
the package would break only a traced benchmark run; the names it wraps are
checked here too, read from ``perfbench/tracing.py`` without importing it."""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _traced_names():
    """The (module, attribute) pairs of ``WRAPS`` in ``perfbench/tracing.py``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (wraps,) = (
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets)
    )
    return [(row.elts[0].value, row.elts[1].value) for row in wraps.elts]


def test_every_name_the_tracer_wraps_exists():
    names = _traced_names()
    assert ("dimacs", "parse_dimacs") in names
    for module, attr in names:
        assert hasattr(importlib.import_module(f"strongedge.{module}"), attr), (module, attr)
    # the tracer counts search nodes through a subclass of the budget type
    assert isinstance(importlib.import_module("strongedge.solver")._Budget, type)


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_reports_every_declared_metric(path):
    e2e = json.loads(path.read_text())["end_to_end"]
    pairs = e2e["pairs"]
    assert isinstance(pairs, int) and pairs >= 10
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        figures = e2e["workloads"][name]
        for metric in BENCHMARK["end_to_end"]:
            row = figures[metric["name"]]
            case = (name, metric["name"])
            for side in ("parent", "change"):
                stats = row[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (case, side)
                assert stats["n"] == pairs, (case, side)
            better = re.fullmatch(r"(\d+)/(\d+)", row["change_better_pairs"])
            assert better, case
            assert int(better[1]) <= int(better[2]) == pairs, case
        for side, run in figures["runs"].items():
            assert run["correct_all"] is True, (name, side)
