import errno
import hashlib
import json
import os
import threading
import time
from pathlib import Path

import pytest

from strongedge import (
    ConstructionFailedError,
    InternalInvariantError,
    MinLastUsageResult,
    StrongColoring,
    VerificationError,
    build_counterexample,
    certify_graph,
    conflict_graph,
    conjecture2_sweep,
    girth,
    load_dimacs,
    save_dimacs,
    serialize_dimacs,
)
from strongedge import pipeline
from strongedge.cli import main
from strongedge.pipeline import canonical_json
from _helpers import (
    bipartite_cycle,
    brute_force_chi_s,
    complete_bipartite,
    cycle_graph,
    heawood_graph,
)


class TestBuildCounterexample:
    def test_k2_girth4(self):
        # choose_n(2, 4): the floor is 4 and 4 mod 3 = 1, so n = 4 (C8)
        record = build_counterexample(4, k=2, seed=0)
        assert record.n == 4
        assert record.m == 8
        assert record.girth == 8
        assert record.certificate.chi_s_lower == 4
        assert record.conjectured_bound == 3

    def test_k2_girth6_skips_divisible_n(self):
        record = build_counterexample(6, k=2, seed=0)
        assert record.n == 7  # the floor 6 is divisible by the window 3
        assert record.m == 14
        assert record.girth == 14
        assert record.certificate.chi_s_lower == 4
        # the lower bound is exact here: brute force agrees on C14
        assert brute_force_chi_s(conflict_graph(cycle_graph(14))) == 4

    def test_headline_cubic_girth5(self, tmp_path):
        out = tmp_path / "graph.dimacs"
        record = build_counterexample(5, k=3, seed=0, graph_out=out)
        assert record.n == 48
        assert record.m == 144
        assert record.m % 5 == 4
        assert record.girth >= 5
        assert record.certificate.chi_s_lower == 6
        assert record.conjectured_bound == 5
        assert record.upper_bound is not None
        assert record.upper_bound >= 6
        # content addressing: the hash matches the file bytes
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == record.graph_sha256
        # independent re-read: claimed properties hold on the file
        graph = load_dimacs(out)
        assert graph.n_vertices == 96
        assert graph.is_regular(3)
        assert girth(graph) >= 5

    def test_record_json_schema(self):
        record = build_counterexample(4, k=2, seed=1, with_upper_bound=False)
        data = json.loads(canonical_json(record.to_json_dict()))
        assert set(data) == {
            "k", "g", "n", "seed", "graph_path", "graph_sha256", "girth",
            "m", "certificate", "conjectured_bound", "conclusion", "upper_bound",
        }
        assert set(data["certificate"]) == {
            "k", "m", "window", "max_class_size", "divisible",
            "chi_s_lower", "regularity_checked",
        }
        assert data["upper_bound"] is None
        assert data["graph_path"] is None

    def test_failed_check_writes_no_graph(self, tmp_path, monkeypatch):
        # Every check runs before the graph file is written, so a graph
        # that fails one leaves nothing behind.
        import strongedge.pipeline

        g = 5
        monkeypatch.setattr(strongedge.pipeline, "girth", lambda graph: g - 1)
        out = tmp_path / "graph.dimacs"
        with pytest.raises(VerificationError) as exc:
            build_counterexample(g, k=3, seed=1, graph_out=out)
        assert exc.value.check == "girth"
        assert not out.exists()

    def test_girth_measured_once_per_build(self, monkeypatch):
        # the build leaves the girth to the checks: one measurement, the
        # pipeline's own, and none by the generator
        import strongedge.generator
        import strongedge.pipeline

        calls = {"pipeline": 0, "generator": 0}

        def counting(module):
            def counted(graph):
                calls[module] += 1
                return girth(graph)

            return counted

        for module in calls:
            monkeypatch.setattr(f"strongedge.{module}.girth", counting(module))
        build_counterexample(6, k=3, seed=1, with_upper_bound=False)
        assert calls == {"pipeline": 1, "generator": 0}

    def test_built_graph_below_the_floor_is_refused(self, tmp_path, monkeypatch):
        # The generator's own girth check is out of the build path, so the
        # pipeline's must catch a built graph below the floor: Heawood has
        # girth 6, 7 vertices a side and m = 21 not divisible by 5.
        import strongedge.pipeline

        monkeypatch.setattr(strongedge.pipeline, "choose_n", lambda k, g: 7)
        monkeypatch.setattr(
            strongedge.pipeline, "_build", lambda k, g, n, seed: (heawood_graph(), None)
        )
        out = tmp_path / "graph.dimacs"
        with pytest.raises(VerificationError) as exc:
            build_counterexample(8, k=3, seed=1, graph_out=out)
        assert exc.value.check == "girth"
        assert "measured girth 6 is below the floor 8" in str(exc.value)
        assert not out.exists()

    def test_greedy_coloring_held_to_the_certificate(self, monkeypatch):
        # m = 144 in five classes: one holds more than the cap 144 // 5 = 28,
        # and five colors are below the certificate's six
        fake = StrongColoring([i % 5 + 1 for i in range(144)], verified=True)
        monkeypatch.setattr("strongedge.pipeline.greedy_color", lambda cg: fake)
        with pytest.raises(InternalInvariantError, match="breaks the certificate"):
            build_counterexample(5, k=3, seed=0)

    def test_conclusion_mentions_the_bound(self):
        record = build_counterexample(4, k=3, seed=0, with_upper_bound=False)
        assert "at least 6" in record.conclusion
        assert "5 colors" in record.conclusion


class TestCertify:
    def test_build_and_certify_each_two_color_once(self, tmp_path, monkeypatch):
        # the bipartite check 2-colors the graph; girth takes its slack from
        # the graph's type, both for the built graph and for the parsed file
        import strongedge.graphs
        import strongedge.pipeline

        real = strongedge.graphs.two_coloring
        calls = []

        def counted(graph):
            calls.append(type(graph).__name__)
            return real(graph)

        for module in (strongedge.graphs, strongedge.pipeline):
            monkeypatch.setattr(module, "two_coloring", counted)
        out = tmp_path / "g6.dimacs"
        build_counterexample(6, k=3, seed=1, graph_out=out)
        assert calls == ["BipartiteGraph"]
        calls.clear()
        certify_graph(out, 3)
        assert calls == ["BipartiteGraph"]

    def test_heawood(self, tmp_path):
        path = tmp_path / "heawood.dimacs"
        save_dimacs(path, heawood_graph())
        record = certify_graph(path, 3)
        assert record.girth == 6
        assert record.m == 21
        assert record.certificate.chi_s_lower == 6
        assert record.n == 7
        assert record.seed is None
        assert record.graph_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_parses_the_bytes_it_hashes(self, tmp_path, monkeypatch):
        # One read serves both the digest and the parse, so the record
        # cannot hash one version of the file and check another.
        path = tmp_path / "g5.dimacs"
        build_counterexample(5, 3, 1, graph_out=path, with_upper_bound=False)
        expected = canonical_json(certify_graph(path, 3).to_json_dict())

        def no_text_reads(self, *args, **kwargs):
            raise AssertionError(f"second read of {self}")

        monkeypatch.setattr(Path, "read_text", no_text_reads)
        assert canonical_json(certify_graph(path, 3).to_json_dict()) == expected

    def test_k33(self, tmp_path):
        path = tmp_path / "k33.dimacs"
        save_dimacs(path, complete_bipartite(3, 3))
        record = certify_graph(path, 3)
        assert record.girth == 4
        assert record.certificate.chi_s_lower == 6

    def test_regularity_failure_named(self, tmp_path):
        path = tmp_path / "bad.dimacs"
        g = heawood_graph()
        g.remove_edge(*g.edges()[0])  # two vertices drop to degree 2
        save_dimacs(path, g)
        with pytest.raises(VerificationError) as exc:
            certify_graph(path, 3)
        assert exc.value.check == "regularity"

    def test_divisible_edge_count_fails_certification(self, tmp_path):
        path = tmp_path / "c12.dimacs"
        save_dimacs(path, bipartite_cycle(6))  # m = 12, divisible by 3
        with pytest.raises(VerificationError) as exc:
            certify_graph(path, 2)
        assert exc.value.check == "divisibility"

    def test_odd_cycle_fails_bipartite_check(self, tmp_path):
        path = tmp_path / "c5.dimacs"
        save_dimacs(path, cycle_graph(5))
        with pytest.raises(VerificationError) as exc:
            certify_graph(path, 2)
        assert exc.value.check == "bipartite"
        assert str(exc.value) == "bipartite: odd cycle through vertices 2 and 1"

    def test_unbalanced_sides_fail_certification(self, tmp_path):
        path = tmp_path / "p3.dimacs"
        path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        with pytest.raises(VerificationError) as exc:
            certify_graph(path, 2)
        assert str(exc.value) == "balanced-sides: sides are (2, 1)"

    def test_plain_simple_graph_gets_bipartition_computed(self, tmp_path):
        # same cycle, no bipartition comment in the file
        path = tmp_path / "c14.dimacs"
        text = serialize_dimacs(cycle_graph(14))
        path.write_text(text)
        record = certify_graph(path, 2)
        assert record.n == 7
        assert record.certificate.chi_s_lower == 4

    def test_parse_error_propagates(self, tmp_path):
        path = tmp_path / "broken.dimacs"
        path.write_text("p edge 2 1\nnot a line\n")
        from strongedge import DimacsParseError

        with pytest.raises(DimacsParseError):
            certify_graph(path, 3)

    @pytest.mark.parametrize("extra", ["e 1 9\n", "e 9 1\n", "e 3 3\n"])
    def test_non_simple_file_never_reaches_the_checks(self, tmp_path, extra):
        # _certify has no simplicity check: the reader refuses the file first
        from strongedge import DimacsParseError

        text = serialize_dimacs(heawood_graph()).replace("p edge 14 21", "p edge 14 22")
        path = tmp_path / "multi.dimacs"
        path.write_text(text + extra)
        with pytest.raises(DimacsParseError):
            certify_graph(path, 3)


class TestSweep:
    def test_k2_cycle_scale(self):
        evidence = conjecture2_sweep(2, 4, 3, seed=0)
        assert [r.n for r in evidence.rows] == [4, 5, 6]
        for row in evidence.rows:
            assert row.m == 2 * row.n
            assert row.cap == row.m % 3
            assert row.status == "exact"
            assert row.usage <= row.cap
            assert not row.flagged
        assert evidence.flagged_rows() == []

    def test_rows_carry_cap_arithmetic_under_budget(self):
        # k=3 instances are large enough that exactness is not guaranteed
        # inside a small budget; statuses record that honestly.
        evidence = conjecture2_sweep(3, 4, 2, seed=1, node_budget=20_000)
        for row in evidence.rows:
            assert row.cap == row.m % 5
            assert row.status in ("exact", "best-found", "infeasible")

    def test_json_shape(self):
        evidence = conjecture2_sweep(2, 4, 2, seed=3)
        data = json.loads(canonical_json(evidence.to_json_dict()))
        assert data["k"] == 2
        assert len(data["rows"]) == 2
        assert set(data["rows"][0]) == {
            "k", "g", "n", "seed", "m", "cap", "usage", "status", "flagged",
        }

    def test_usage_below_the_cap_is_a_bug(self, monkeypatch):
        # min_n(3, 4) = 24: m = 72 and the cap is 72 mod 5 = 2
        monkeypatch.setattr(
            "strongedge.pipeline.min_last_color_usage",
            lambda cg, k, **budgets: MinLastUsageResult("exact", 1, None, 0),
        )
        with pytest.raises(InternalInvariantError, match="below m mod"):
            conjecture2_sweep(3, 4, 1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            conjecture2_sweep(2, 4, 0)


def no_child_left() -> bool:
    """True when this process has no child, running or zombie."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestSweepWorkers:
    """Rows run on one process per CPU of the affinity mask: this one and
    forked workers.  The evidence, and the error a failing row raises, are
    those of one row at a time."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """A setter of the affinity mask's CPU count; it returns the list
        that records each fork from then on."""
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)

        def set_cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
            forks.clear()
            return forks

        return set_cpus

    # (args, kwargs) of conjecture2_sweep, the CPU count to compare with one
    SPLITS = {
        "golden-floor": ((3, 4, 4), {"node_budget": 5000}, 3),
        "golden-forced-n10": ((3, 4, 4), {"node_budget": 5000, "n_start": 10, "force": True}, 3),
        "5-rows-2-workers": ((3, 4, 5), {"node_budget": 2000, "n_start": 10, "force": True}, 2),
        "2-rows-3-cpus": ((3, 4, 2), {"node_budget": 2000}, 3),
    }

    @pytest.mark.parametrize("case", sorted(SPLITS))
    def test_same_bytes_on_one_cpu_and_on_several(self, cpus, case):
        args, kwargs, many = self.SPLITS[case]
        forks = cpus(1)
        alone = canonical_json(conjecture2_sweep(*args, **kwargs).to_json_dict())
        assert forks == []
        forks = cpus(many)
        split = canonical_json(conjecture2_sweep(*args, **kwargs).to_json_dict())
        assert len(forks) == min(args[2], many) - 1
        assert split == alone
        assert no_child_left()

    @staticmethod
    def fail_rows(monkeypatch, failing, n_start=10):
        """Make ``generate`` raise a distinct ConstructionFailedError, from an
        InternalInvariantError, on each of the ``failing`` rows."""
        real = pipeline.generate

        def generate(k, g, n, seed, force=False):
            i = n - n_start
            if i in failing:
                cause = InternalInvariantError(f"cause of row {i}")
                raise ConstructionFailedError(f"row {i} failed") from cause
            return real(k, g, n, seed, force=force)

        monkeypatch.setattr(pipeline, "generate", generate)

    @pytest.mark.parametrize("n_cpus", [1, 3])
    @pytest.mark.parametrize(
        "failing, first", [({1, 3}, 1), ({3}, 3), ({0, 1}, 0)],
        ids=["worker-row-first", "parent-row-after-worker-rows", "parent-row-first"],
    )
    def test_first_failing_row_raises_its_own_error(self, cpus, monkeypatch, n_cpus, failing, first):
        # at 3 CPUs this process takes rows 0 and 3, the workers 1, 4 and 2
        self.fail_rows(monkeypatch, failing)
        forks = cpus(n_cpus)
        with pytest.raises(ConstructionFailedError) as exc:
            conjecture2_sweep(3, 4, 5, n_start=10, force=True, node_budget=2000)
        assert str(exc.value) == f"row {first} failed"
        assert type(exc.value.__cause__) is InternalInvariantError
        assert str(exc.value.__cause__) == f"cause of row {first}"
        assert len(forks) == (0 if n_cpus == 1 else 2)
        assert no_child_left()

    def test_cli_exits_1_and_writes_no_evidence(self, cpus, monkeypatch, tmp_path, capsys):
        self.fail_rows(monkeypatch, {1, 3})
        cpus(3)
        out = tmp_path / "evidence.json"
        argv = ["conjecture2-sweep", "--k", "3", "--g", "4", "--count", "5", "--n", "10",
                "--force", "--node-budget", "2000", "-o", str(out)]
        assert main(argv) == 1
        assert "row 1 failed" in capsys.readouterr().err
        assert not out.exists()
        assert no_child_left()

    def test_worker_that_dies_leaves_its_rows_to_this_process(self, cpus, monkeypatch):
        kwargs = {"node_budget": 2000, "n_start": 10, "force": True}
        cpus(1)
        alone = conjecture2_sweep(3, 4, 5, **kwargs)
        parent, real = os.getpid(), pipeline.generate

        def generate(k, g, n, seed, force=False):
            if os.getpid() != parent and n == 14:
                os._exit(3)  # worker 1 dies at row 4, after writing row 1
            return real(k, g, n, seed, force=force)

        monkeypatch.setattr(pipeline, "generate", generate)
        forks = cpus(3)
        assert conjecture2_sweep(3, 4, 5, **kwargs) == alone
        assert len(forks) == 2 and no_child_left()

    def test_failure_kills_the_workers_still_running(self, cpus, monkeypatch):
        parent, real = os.getpid(), pipeline.generate

        def generate(k, g, n, seed, force=False):
            if os.getpid() != parent:
                time.sleep(60)  # a worker's row that would outlast the test
            elif n == 10:
                raise ConstructionFailedError("row 0 failed")
            return real(k, g, n, seed, force=force)

        monkeypatch.setattr(pipeline, "generate", generate)
        forks = cpus(3)
        start = time.monotonic()
        with pytest.raises(ConstructionFailedError, match="row 0 failed"):
            conjecture2_sweep(3, 4, 3, n_start=10, force=True)
        assert time.monotonic() - start < 30
        assert len(forks) == 2 and no_child_left()

    def test_fork_at_a_process_limit_runs_rows_here(self, cpus, monkeypatch):
        kwargs = {"node_budget": 2000, "n_start": 10, "force": True}
        cpus(1)
        alone = conjecture2_sweep(3, 4, 3, **kwargs)
        forks = cpus(3)

        def fork():
            forks.append(os.getpid())
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        assert conjecture2_sweep(3, 4, 3, **kwargs) == alone
        assert len(forks) == 2 and no_child_left()

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_no_fork_without_the_os_calls(self, cpus, monkeypatch, missing):
        forks = cpus(3)
        alone = conjecture2_sweep(2, 4, 3)
        forks.clear()
        monkeypatch.delattr(os, missing)
        assert conjecture2_sweep(2, 4, 3) == alone
        assert forks == []

    def test_no_fork_while_another_thread_runs(self, cpus):
        forks = cpus(3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            conjecture2_sweep(2, 4, 3)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert forks == []

