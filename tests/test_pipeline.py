import hashlib
import json
from pathlib import Path

import pytest

from strongedge import (
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

