"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/test_bench.py        (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import checks  # noqa: E402
import clock as clock_module  # noqa: E402
from clock import Clock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {
    "ladder": workloads.Ladder(girths=(5, 6), setup_reps=1),
    "search": workloads.Search(
        girths=(5,), instances=1, exact_budget=200, find_girth=6, find_instances=1,
        find_budget=200,
        sweeps=((4, 1, None), (4, 1, 10)), sweep_budget=200, setup_reps=1,
    ),
    # Seeds 0..2 at n = 40 include builds that fail and builds that finish.
    "quartic": workloads.Quartic(forced=((6, 40),), forced_seeds=3, girths=(5,), setup_reps=1),
}


def _report(result: dict) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(result)


def _measure(name: str, trace: bool) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return run.measure(TINY[name], 0, 0, trace, Path(tmp) / "out")


class TinyRuns(unittest.TestCase):
    def test_untraced_line_has_the_contract_metrics(self):
        for name in TINY:
            with self.subTest(workload=name):
                result = _measure(name, trace=False)
                self.assertTrue(result["correct"], result["problems"])
                line = _report(result)
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(line["attempted"], 1)
                self.assertEqual(list(line["metrics"]), list(catalog.CONTRACT))
                self.assertEqual(set(result["end_to_end"]), set(catalog.END_TO_END))

    def test_traced_run_reports_every_layer_and_identical_files(self):
        for name in TINY:
            with self.subTest(workload=name):
                result = _measure(name, trace=True)
                self.assertTrue(result["correct"], result["problems"])
                self.assertEqual([p["traced"] for p in result["passes"]], [False, True])
                line = _report(result)
                self.assertEqual(list(line["metrics"]), list(catalog.PER_LAYER))
                spans = result["spans"]
                self.assertTrue(spans)
                self.assertTrue({"name", "start", "end", "parent"} <= set(spans[0]))

    def test_not_applicable_metrics_are_none(self):
        e2e = _measure("ladder", trace=False)["end_to_end"]
        for name, (_u, _b, _bound, where) in catalog.END_TO_END.items():
            self.assertEqual(e2e[name] is None, "ladder" not in where, name)

    def test_counts_do_not_depend_on_the_number_of_passes(self):
        once, twice = _measure("search", trace=False), _measure("search", trace=True)
        self.assertEqual((len(once["passes"]), len(twice["passes"])), (1, 2))
        self.assertEqual(once["attempted"], twice["attempted"])
        self.assertEqual(once["failed"], twice["failed"])

    def test_construction_failure_is_an_outcome_not_a_failure(self):
        result = _measure("quartic", trace=True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["per_layer"]["generator.construction_failed"], 1)
        self.assertGreaterEqual(result["per_layer"]["generator.swap_steps"], 1)


class FailuresAndChecks(unittest.TestCase):
    def test_an_exception_fails_the_op_and_the_run_goes_on(self):
        with tempfile.TemporaryDirectory() as tmp:
            p = workloads.Pass(Path(tmp), Clock())

            def deep():
                raise RecursionError("maximum recursion depth exceeded")

            op = p.run("find", "x", deep)
            self.assertTrue(op.failed)
            self.assertIn("RecursionError", op.error)
            self.assertFalse(p.run("find", "y", lambda: 1).failed)

    def test_clock_samples_during_a_call_and_leaves_the_samples_out(self):
        with Clock() as clock:
            spent, start = clock._spent, time.perf_counter()
            clock.time(lambda: sum(i * i for i in range(2_000_000)))
            wall, snippets = time.perf_counter() - start, clock._spent - spent
        self.assertGreater(len(clock.speeds), 2)
        self.assertGreater(snippets, 0)
        self.assertAlmostEqual(clock.raw + snippets, wall, delta=0.002)
        self.assertGreater(clock.ref, 0)

    def test_clock_skips_a_sample_with_no_room_to_recurse(self):
        clock = Clock()
        real = clock_module._snippet

        def no_room():
            raise RecursionError("maximum recursion depth exceeded")

        try:
            clock_module._snippet = no_room
            clock._sample()
        finally:
            clock_module._snippet = real
        self.assertEqual(len(clock.speeds), 1)
        clock._sample()  # the next signal samples again
        self.assertEqual(len(clock.speeds), 2)

    def test_cycle_check(self):
        hexagon = [[(v - 1) % 6, (v + 1) % 6] for v in range(6)]
        self.assertFalse(checks.has_cycle_shorter_than(hexagon, 6))
        self.assertTrue(checks.has_cycle_shorter_than(hexagon, 7))

    def test_coloring_check(self):
        path = [(0, 1), (1, 2), (2, 3)]  # the end edges are joined by the middle one
        self.assertEqual(checks.coloring_problems(path, [1, 2, 3], 3), [])
        self.assertTrue(checks.coloring_problems(path, [1, 2, 1], 3))

    def test_record_check_catches_a_low_upper_bound(self):
        with tempfile.TemporaryDirectory() as tmp:
            modules = run.import_strongedge()
            graph_path = Path(tmp) / "g.dimacs"
            record = modules.pipeline.build_counterexample(5, 3, 0, graph_out=graph_path)
            graph = checks.read_graph(graph_path)
            self.assertEqual(checks.record_problems(record, None, graph, 3, 5), [])
            bad = modules.pipeline.CounterexampleRecord(**{**record.__dict__, "upper_bound": 5})
            self.assertTrue(checks.record_problems(bad, None, graph, 3, 5))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_catalog(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            bench["end_to_end"],
            [
                {"name": n, "unit": catalog.END_TO_END[n][0], "better": catalog.END_TO_END[n][1],
                 "bound": catalog.END_TO_END[n][2]}
                for n in catalog.CONTRACT
            ],
        )
        self.assertEqual(
            bench["per_layer"],
            [{"name": n, "unit": u, "better": b} for n, (u, b, _m) in catalog.PER_LAYER.items()],
        )

    def test_without_sources_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
