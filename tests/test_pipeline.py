import hashlib
import json
from pathlib import Path

import pytest

from strongedge import (
    VerificationError,
    build_counterexample,
    certify_graph,
    conjecture2_sweep,
    girth,
    load_dimacs,
    save_dimacs,
    serialize_dimacs,
)
from strongedge.pipeline import canonical_json
from _helpers import bipartite_cycle, complete_bipartite, cycle_graph, heawood_graph


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
        from strongedge import brute_force_chi_s, conflict_graph
        from _helpers import cycle_graph

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

    def test_conclusion_mentions_the_bound(self):
        record = build_counterexample(4, k=3, seed=0, with_upper_bound=False)
        assert "at least 6" in record.conclusion
        assert "5 colors" in record.conclusion


class TestCertify:
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
        g.remove_edge(0)  # two vertices drop to degree 2
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

    def test_count_validation(self):
        with pytest.raises(ValueError):
            conjecture2_sweep(2, 4, 0)

