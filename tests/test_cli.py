import argparse
import hashlib
import json
import resource
import subprocess
import sys

import pytest

from strongedge import (
    InternalInvariantError,
    MinLastUsageResult,
    SolveOutcome,
    StrongColoring,
    certify_graph,
    choose_n,
    conjecture2_sweep,
    generate,
    girth,
    load_dimacs,
    save_dimacs,
    serialize_dimacs,
)
from strongedge.cli import build_parser, main
from strongedge.pipeline import canonical_json
from _helpers import bipartite_cycle, cli_env, cycle_graph, heawood_graph, path_graph


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerateCommand:
    def test_writes_graph_and_trace(self, tmp_path, capsys):
        out = tmp_path / "g.dimacs"
        trace = tmp_path / "g.trace"
        assert run("generate", "--k", 3, "--g", 4, "--n", 24, "--seed", 7,
                   "--trace", trace, "-o", out) == 0
        graph = load_dimacs(out)
        assert graph.is_regular(3)
        assert girth(graph) >= 4
        assert trace.read_text().startswith("# k=3 g=4 n=24 seed=7\n")
        assert "72 edges" in capsys.readouterr().out

    def test_default_n_is_chosen(self, tmp_path):
        out = tmp_path / "g.dimacs"
        assert run("generate", "--k", 2, "--g", 6, "-o", out) == 0
        assert load_dimacs(out).n_vertices == 14  # choose_n(2, 6) = 7

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "g.dimacs"
        trace = tmp_path / "g.trace"
        run("generate", "--k", 3, "--g", 5, "--seed", 3, "--trace", trace, "-o", out)
        first = (out.read_bytes(), trace.read_bytes())
        run("generate", "--k", 3, "--g", 5, "--seed", 3, "--trace", trace, "-o", out)
        assert (out.read_bytes(), trace.read_bytes()) == first

    def test_failed_forced_construction_exits_1_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "g.dimacs"
        assert run("generate", "--k", 4, "--g", 7, "--n", 130, "--force", "-o", out) == 1
        assert "error: construction failed" in capsys.readouterr().err
        assert not out.exists()

    def test_n_below_floor_is_invalid_input(self, tmp_path, capsys):
        code = run("generate", "--k", 3, "--g", 5, "--n", 10, "-o", tmp_path / "g.dimacs")
        assert code == 2
        assert "floor" in capsys.readouterr().err


class TestSolveCommand:
    def test_exact_small(self, tmp_path, capsys):
        path = tmp_path / "c8.dimacs"
        save_dimacs(path, cycle_graph(8))
        assert run("solve", path) == 0
        assert "chi_s = 4" in capsys.readouterr().out

    def test_exact_writes_verifiable_coloring(self, tmp_path):
        path = tmp_path / "c9.dimacs"
        coloring = tmp_path / "c9.json"
        save_dimacs(path, cycle_graph(9))
        assert run("solve", path, "-o", coloring) == 0
        assert run("verify", path, coloring) == 0

    def test_greedy(self, tmp_path, capsys):
        path = tmp_path / "hw.dimacs"
        save_dimacs(path, heawood_graph())
        coloring = tmp_path / "hw.json"
        assert run("solve", path, "--greedy", "-o", coloring) == 0
        assert "greedy" in capsys.readouterr().out
        assert run("verify", path, coloring) == 0

    def test_coloring_file_keeps_high_first_edges(self, tmp_path):
        path = tmp_path / "p3.dimacs"
        coloring = tmp_path / "p3.json"
        path.write_text("p edge 3 2\ne 3 1\ne 1 2\n")
        assert run("solve", path, "-o", coloring) == 0
        assert json.loads(coloring.read_text())["edges"] == [[3, 1], [1, 2]]
        assert run("verify", path, coloring) == 0

    def test_budget_exhaustion_exits_4(self, tmp_path, capsys):
        path = tmp_path / "hw.dimacs"
        save_dimacs(path, heawood_graph())
        assert run("solve", path, "--node-budget", 3) == 4
        assert "budget exhausted" in capsys.readouterr().out

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert run("solve", tmp_path / "absent.dimacs") == 2


class TestVerifyCommand:
    def make_pair(self, tmp_path):
        path = tmp_path / "c6.dimacs"
        coloring = tmp_path / "c6.json"
        save_dimacs(path, cycle_graph(6))
        run("solve", path, "-o", coloring)
        return path, coloring

    def test_valid(self, tmp_path, capsys):
        path, coloring = self.make_pair(tmp_path)
        assert run("verify", path, coloring) == 0
        assert "VALID" in capsys.readouterr().out

    def test_tampered_coloring_exits_3(self, tmp_path, capsys):
        path, coloring = self.make_pair(tmp_path)
        data = json.loads(coloring.read_text())
        data["colors"] = [1] * len(data["colors"])
        coloring.write_text(json.dumps(data))
        assert run("verify", path, coloring) == 3
        assert "INVALID" in capsys.readouterr().out

    def test_mismatched_edges_is_invalid_input(self, tmp_path):
        path, coloring = self.make_pair(tmp_path)
        other = tmp_path / "c8.dimacs"
        save_dimacs(other, cycle_graph(8))
        assert run("verify", other, coloring) == 2

    def test_malformed_json_is_invalid_input(self, tmp_path):
        path, coloring = self.make_pair(tmp_path)
        coloring.write_text("not json")
        assert run("verify", path, coloring) == 2

    P4_EDGES = [[1, 2], [2, 3], [3, 4]]

    @pytest.mark.parametrize(
        "data",
        [
            {"edges": P4_EDGES, "colors": [1.7, 2, 3]},
            {"edges": [["1", 2], [2, 3], [3, 4]], "colors": [1, 2, 3]},
            {"edges": P4_EDGES, "colors": [1, None, 3]},
            [P4_EDGES, [1, 2, 3]],
        ],
        ids=["float-color", "string-endpoint", "null-color", "top-level-list"],
    )
    def test_non_integer_coloring_is_invalid_input(self, tmp_path, capsys, data):
        path = tmp_path / "p4.dimacs"
        coloring = tmp_path / "p4.json"
        save_dimacs(path, path_graph(4))
        coloring.write_text(json.dumps(data))
        assert run("verify", path, coloring) == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"edges": P4_EDGES, "colors": [1, 2]},
             "coloring file needs parallel 'edges' and 'colors' lists"),
            ({"edges": [[1, 2], [2, 3], [1, 4]], "colors": [1, 2, 3]},
             "edge [1, 4] is not in the graph"),
            ({"edges": [[1, 2], [3, 2], [2, 3]], "colors": [1, 2, 3]},
             "edge [2, 3] listed twice"),
        ],
        ids=["lists-not-parallel", "edge-not-in-graph", "edge-listed-twice"],
    )
    def test_edge_list_not_matching_the_graph_is_invalid_input(
        self, tmp_path, capsys, data, message
    ):
        path = tmp_path / "p4.dimacs"
        coloring = tmp_path / "p4.json"
        save_dimacs(path, path_graph(4))
        coloring.write_text(json.dumps(data))
        assert run("verify", path, coloring) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"


class TestCounterexampleCommand:
    def test_small_record(self, tmp_path, capsys):
        record_path = tmp_path / "rec.json"
        graph_path = tmp_path / "g.dimacs"
        assert run("counterexample", "--g", 4, "--k", 2, "-o", record_path,
                   "--graph-out", graph_path) == 0
        record = json.loads(record_path.read_text())
        assert record["certificate"]["chi_s_lower"] == 4
        assert record["graph_path"] == str(graph_path)
        out = capsys.readouterr().out
        assert "chi_s_lower=4 > 3" in out

    def test_byte_identical_reruns(self, tmp_path):
        record_path = tmp_path / "rec.json"
        graph_path = tmp_path / "g.dimacs"
        args = ("counterexample", "--g", 4, "--k", 3, "--seed", 5,
                "-o", record_path, "--graph-out", graph_path)
        run(*args)
        first = (record_path.read_bytes(), graph_path.read_bytes())
        run(*args)
        assert (record_path.read_bytes(), graph_path.read_bytes()) == first

    def test_no_upper_bound_writes_the_same_graph(self, tmp_path):
        records, graphs = [], []
        for flags in ((), ("--no-upper-bound",)):
            record_path = tmp_path / f"rec{len(flags)}.json"
            graph_path = tmp_path / f"g{len(flags)}.dimacs"
            assert run("counterexample", "--g", 5, "--seed", 1, *flags,
                       "-o", record_path, "--graph-out", graph_path) == 0
            records.append(json.loads(record_path.read_text()))
            graphs.append(graph_path.read_bytes())
        assert graphs[0] == graphs[1]
        assert records[0]["upper_bound"] is not None
        assert records[1]["upper_bound"] is None


class TestCertifyCommand:
    def test_good_graph(self, tmp_path, capsys):
        path = tmp_path / "hw.dimacs"
        record = tmp_path / "hw.json"
        save_dimacs(path, heawood_graph())
        assert run("certify", path, "--k", 3, "-o", record) == 0
        assert "chi_s_lower=6" in capsys.readouterr().out
        assert record.read_text() == canonical_json(certify_graph(path, 3).to_json_dict())

    def test_corrupted_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.dimacs"
        path.write_text("p edge 4 1\ne 1 zebra\n")
        assert run("certify", path, "--k", 3) == 2

    def test_failing_check_exits_3(self, tmp_path, capsys):
        path = tmp_path / "c12.dimacs"
        save_dimacs(path, bipartite_cycle(6))  # m divisible by window
        assert run("certify", path, "--k", 2) == 3
        assert "divisibility" in capsys.readouterr().err

    def test_empty_graph_fails_regularity(self, tmp_path, capsys):
        path = tmp_path / "empty.dimacs"
        path.write_text("p edge 0 0\n")
        assert run("certify", path, "--k", 3) == 3
        assert "regularity" in capsys.readouterr().err

    def test_degree_below_two_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "hw.dimacs"
        save_dimacs(path, heawood_graph())
        assert run("certify", path, "--k", 1) == 2
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "solve", "verify"])
def test_signed_endpoint_is_invalid_input(tmp_path, capsys, command):
    # int() reads "+1" as 1; a DIMACS number has no sign
    path = tmp_path / "signed.dimacs"
    path.write_text("p edge 3 2\ne 1 2\ne +1 3\n")
    coloring = tmp_path / "p3.json"
    coloring.write_text(json.dumps({"edges": [[1, 2], [1, 3]], "colors": [1, 2]}))
    args = {"certify": ["--k", 3], "solve": [], "verify": [coloring]}[command]
    assert run(command, path, *args) == 2
    captured = capsys.readouterr()
    assert captured.err == "invalid input: line 3: endpoints must be integers\n"
    assert captured.out == ""


class TestBytesThatAreNotUtf8:
    """A comment may hold any bytes; a byte that is not UTF-8 on any other
    line is that line's own error, reported with its line number."""

    COMMANDS = {
        "solve": [],
        "verify": ["{coloring}"],
        "certify": ["--k", "3"],
        "conjecture2": ["--k", "3"],
    }

    def args(self, tmp_path, command):
        coloring = tmp_path / "hw.json"
        return [a.format(coloring=coloring) for a in self.COMMANDS[command]]

    @staticmethod
    def heawood_after_a_stray_comment(tmp_path):
        path = tmp_path / "hw.dimacs"
        path.write_bytes(b"c \xff\n" + serialize_dimacs(heawood_graph()).encode())
        return path

    @pytest.mark.parametrize("command", COMMANDS)
    def test_comment_may_hold_any_bytes(self, tmp_path, capsys, command):
        path = self.heawood_after_a_stray_comment(tmp_path)
        assert run("solve", path, "-o", tmp_path / "hw.json") == 0
        assert run(command, path, *self.args(tmp_path, command)) == 0
        assert capsys.readouterr().err == ""

    def test_certify_hashes_the_raw_bytes(self, tmp_path):
        path = self.heawood_after_a_stray_comment(tmp_path)
        assert run("certify", path, "--k", 3, "-o", tmp_path / "record.json") == 0
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["graph_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"p edge 2 1\ne 1 \xff\n", "line 2: endpoints must be integers"),
            (b"p edge 2 1\n\xffe 1 2\n", "line 2: unrecognized line '\\udcffe 1 2'"),
            (b"c bipartition 1 \xff\np edge 2 1\ne 1 2\n",
             "line 1: bipartition counts must be integers"),
            (b"p edge \xff 1\ne 1 2\n", "line 1: counts must be integers"),
        ],
        ids=["endpoint", "line-kind", "bipartition", "header"],
    )
    @pytest.mark.parametrize("command", COMMANDS)
    def test_stray_byte_is_its_lines_error(self, tmp_path, capsys, command, raw, message):
        path = tmp_path / "stray.dimacs"
        path.write_bytes(raw)
        (tmp_path / "hw.json").write_text("{}")
        assert run(command, path, *self.args(tmp_path, command)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid input: {message}\n"
        assert captured.out == ""


def test_coloring_nested_too_deep_is_invalid_input(tmp_path):
    # the JSON decoder recurses once per bracket
    graph = tmp_path / "p3.dimacs"
    save_dimacs(graph, path_graph(3))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "strongedge", "verify", str(graph), str(deep)],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid input: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-32-le"])
def test_coloring_file_is_read_as_json_encodings(tmp_path, capsys, encoding):
    # RFC 8259: UTF-8, UTF-16 or UTF-32, whatever the locale
    graph = tmp_path / "p3.dimacs"
    save_dimacs(graph, path_graph(3))
    coloring = tmp_path / "p3.json"
    data = {"edges": [[1, 2], [2, 3]], "colors": [1, 2], "note": "\u00e9"}
    coloring.write_bytes(json.dumps(data, ensure_ascii=False).encode(encoding))
    assert run("verify", graph, coloring) == 0
    assert "VALID: 2 colors on 2 edges" in capsys.readouterr().out


@pytest.fixture
def cubic_g5(tmp_path):
    """The k = 3, g = 5, seed-1 graph: m = 144, so chi_s_lower = 6 and the
    usage cap is 144 mod 5 = 4."""
    path = tmp_path / "g5.dimacs"
    save_dimacs(path, generate(3, 5, choose_n(3, 5), 1)[0])
    return path


class TestSolveHeldToTheCertificate:
    @pytest.mark.parametrize(
        "outcome, name",
        [
            (SolveOutcome("exact", 5, None, 5, 5, 10), "exact value"),
            (SolveOutcome("upper-bound-only", None, None, 4, 5, 10), "upper bound"),
        ],
    )
    def test_search_answer_below_the_certificate_is_a_bug(
        self, monkeypatch, capsys, cubic_g5, outcome, name
    ):
        monkeypatch.setattr("strongedge.cli.exact_chi_s", lambda cg, **budgets: outcome)
        with pytest.raises(InternalInvariantError, match=f"{name} 5 is below chi_s_lower = 6"):
            run("solve", cubic_g5)
        assert capsys.readouterr().out == ""

    def test_greedy_below_the_certificate_is_a_bug(self, monkeypatch, cubic_g5):
        monkeypatch.setattr(
            "strongedge.cli.greedy_color", lambda cg: StrongColoring([1, 2, 3, 4, 5] * 28 + [1] * 4)
        )
        with pytest.raises(InternalInvariantError, match="greedy bound 5 is below"):
            run("solve", cubic_g5, "--greedy")

    def test_irregular_graph_has_no_certificate_to_break(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "p5.dimacs"
        save_dimacs(path, path_graph(5))
        monkeypatch.setattr(
            "strongedge.cli.exact_chi_s",
            lambda cg, **budgets: SolveOutcome("exact", 1, None, 1, 1, 0),
        )
        assert run("solve", path) == 0
        assert "chi_s = 1" in capsys.readouterr().out


class TestConjecture2Commands:
    def test_usage_below_the_cap_on_a_regular_graph_is_a_bug(self, monkeypatch, cubic_g5):
        monkeypatch.setattr(
            "strongedge.pipeline.min_last_color_usage",
            lambda cg, k, **budgets: MinLastUsageResult("exact", 0, None, 0),
        )
        with pytest.raises(InternalInvariantError, match="usage 0 on 144 edges is below m mod"):
            run("conjecture2", cubic_g5, "--k", 3)

    def test_usage_below_the_cap_off_a_regular_graph_is_reported(
        self, monkeypatch, tmp_path, capsys
    ):
        # P5 has m = 4, cap 1 at k = 2, but is not 2-regular: no bound holds
        path = tmp_path / "p5.dimacs"
        save_dimacs(path, path_graph(5))
        monkeypatch.setattr(
            "strongedge.pipeline.min_last_color_usage",
            lambda cg, k, **budgets: MinLastUsageResult("exact", 0, None, 0),
        )
        assert run("conjecture2", path, "--k", 2) == 0
        assert "cap=1 usage=0 status=exact" in capsys.readouterr().out

    def test_usage_above_the_cap_is_flagged(self, monkeypatch, cubic_g5, capsys):
        monkeypatch.setattr(
            "strongedge.pipeline.min_last_color_usage",
            lambda cg, k, **budgets: MinLastUsageResult("exact", 5, None, 0),
        )
        assert run("conjecture2", cubic_g5, "--k", 3) == 0
        assert ("CAP EXCEEDED: exact usage 5 > cap 4; potential counterexample "
                "to the usage conjecture") in capsys.readouterr().out

    def test_sweep_flags_usage_above_the_cap(self, monkeypatch, tmp_path, capsys):
        # k = 2 caps are m mod 3 <= 2, so usage 3 exceeds each of them
        monkeypatch.setattr(
            "strongedge.pipeline.min_last_color_usage",
            lambda cg, k, **budgets: MinLastUsageResult("exact", 3, None, 0),
        )
        out = tmp_path / "evidence.json"
        assert run("conjecture2-sweep", "--k", 2, "--g", 4, "--count", 3, "-o", out) == 0
        rows = json.loads(out.read_text())["rows"]
        flagged = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("CAP EXCEEDED")]
        assert flagged == [
            f"CAP EXCEEDED at n={r['n']} seed={r['seed']}: usage 3 > cap {r['cap']}; "
            "potential counterexample to the usage conjecture"
            for r in rows
        ]
        assert len(flagged) == 3 and all(r["flagged"] for r in rows)

    @pytest.mark.parametrize(
        ("k", "g", "count", "kwargs", "flags"),
        [
            (2, 4, 3, {}, [False, False, False]),
            # B: exact usage 5 against cap 0, settled in 540,624 nodes, within the budget
            (3, 6, 1, {"n_start": 15, "force": True}, [True]),
        ],
        ids=["k2-g4", "B"],
    )
    def test_command_prints_the_sweep_row(self, tmp_path, capsys, k, g, count, kwargs, flags):
        budget = 600_000
        rows = conjecture2_sweep(k, g, count, node_budget=budget, **kwargs).rows
        assert [row.flagged for row in rows] == flags
        for row in rows:
            path = tmp_path / f"n{row.n}-seed{row.seed}.dimacs"
            save_dimacs(path, generate(k, g, row.n, row.seed, force=kwargs.get("force", False))[0])
            capsys.readouterr()
            code = run("conjecture2", path, "--k", k, "--node-budget", budget)
            assert code == (4 if row.status == "best-found" else 0)
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith(
                f"m={row.m} cap={row.cap} usage={row.usage} status={row.status} "
            )
            assert any(line.startswith("CAP EXCEEDED") for line in lines) == row.flagged

    def test_single_graph_usage(self, tmp_path, capsys):
        path = tmp_path / "c12.dimacs"
        save_dimacs(path, bipartite_cycle(6))
        assert run("conjecture2", path, "--k", 2) == 0
        out = capsys.readouterr().out
        assert "cap=0" in out and "usage=0" in out

    def test_infeasible_is_reported(self, tmp_path, capsys):
        path = tmp_path / "c5.dimacs"
        save_dimacs(path, cycle_graph(5))
        assert run("conjecture2", path, "--k", 2) == 0
        assert "no strong coloring" in capsys.readouterr().out

    def test_heawood_cap_one_reported(self, tmp_path, capsys):
        path = tmp_path / "hw.dimacs"
        save_dimacs(path, heawood_graph())
        assert run("conjecture2", path, "--k", 3) == 0
        out = capsys.readouterr().out
        assert "cap=1" in out
        # six colors do not suffice on this graph, and that is evidence too
        assert "status=infeasible" in out

    def test_palette_above_the_edge_count_takes_no_more_memory(self, cubic_g5):
        # 2k = 2 * 10^9 colors on 144 edges: a search sized by the palette
        # would ask for gigabytes, so the child is limited to 800 MB.
        def peak_rss_kb(k):
            code = (
                "import resource, sys\n"
                "from strongedge.cli import main\n"
                f"code = main(['conjecture2', {str(cubic_g5)!r}, '--k', '{k}', '--node-budget', '50'])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
                "sys.exit(code)\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(),
                preexec_fn=TestOversizedInput.limit_memory, timeout=60,
            )
            assert proc.returncode == 4, proc.stderr
            return int(proc.stdout.split()[-1])

        assert peak_rss_kb(10**9) < peak_rss_kb(3) + 4096

    def test_budget_exhaustion_exits_4(self, tmp_path):
        path = tmp_path / "c20.dimacs"
        save_dimacs(path, cycle_graph(20))
        assert run("conjecture2", path, "--k", 2, "--node-budget", 1) == 4

    def test_sweep_table_and_json(self, tmp_path, capsys):
        out = tmp_path / "evidence.json"
        assert run("conjecture2-sweep", "--k", 2, "--g", 4, "--count", 3,
                   "-o", out) == 0
        table = capsys.readouterr().out
        assert "status" in table and "exact" in table
        data = json.loads(out.read_text())
        assert len(data["rows"]) == 3
        assert all(r["usage"] <= r["cap"] for r in data["rows"])


class TestBudgetFlags:
    @pytest.mark.parametrize("flag", ["--node-budget", "--budget-ms"])
    @pytest.mark.parametrize(
        "command", ["solve", "solve --greedy", "conjecture2", "conjecture2-sweep"]
    )
    def test_negative_budget_is_invalid_input(self, tmp_path, capsys, command, flag):
        path = tmp_path / "p4.dimacs"
        save_dimacs(path, path_graph(4))
        argv = {
            "solve": ["solve", path],
            "solve --greedy": ["solve", path, "--greedy"],
            "conjecture2": ["conjecture2", path, "--k", 2],
            "conjecture2-sweep": ["conjecture2-sweep", "--k", 2, "--g", 4, "--count", 1],
        }[command]
        assert run(*argv, flag, -1) == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "conjecture2"])
    def test_zero_node_budget_is_a_timeout(self, tmp_path, command):
        path = tmp_path / "c7.dimacs"
        save_dimacs(path, cycle_graph(7))
        argv = [command, path] + (["--k", 2] if command == "conjecture2" else [])
        assert run(*argv, "--node-budget", 0) == 4

    def test_zero_wall_clock_budget_stops_at_first_clock_check(self, tmp_path, capsys):
        path = tmp_path / "g6.dimacs"
        save_dimacs(path, generate(3, 6, choose_n(3, 6), 1)[0])
        assert run("solve", path, "--budget-ms", 0) == 4
        assert "(256 search nodes)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "conjecture2"])
    def test_budget_past_every_float_deadline_is_no_deadline(self, cubic_g5, capsys, command):
        argv = [command, cubic_g5, "--node-budget", 50] + (
            ["--k", 3] if command == "conjecture2" else []
        )
        assert run(*argv) == 4
        unlimited = capsys.readouterr().out
        assert run(*argv, "--budget-ms", 10**400) == 4
        assert capsys.readouterr().out == unlimited
        if command == "solve":
            assert unlimited == "budget exhausted: 5 <= chi_s <= 8 (51 search nodes)\n"

    def test_exactly_the_search_commands_take_budget_flags(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        takes = {
            name: sorted(f for a in p._actions for f in a.option_strings if "budget" in f)
            for name, p in sub.choices.items()
        }
        both = ["--budget-ms", "--node-budget"]
        assert takes == {
            name: both if name in ("solve", "conjecture2", "conjecture2-sweep") else []
            for name in sub.choices
        }


class TestOversizedInput:
    """Sizes far above the vertex cap are refused before anything is
    allocated.  Each runs in a child process limited to 800 MB of address
    space, so a check that stops working ends in a MemoryError there, not
    in the test process."""

    CASES = [
        ["generate", "--k", "3", "--g", "40"],
        ["generate", "--k", "3", "--g", "2000"],
        ["generate", "--k", "3", "--g", "1000000000000"],
        ["generate", "--k", "3", "--g", "5", "--n", "100000000000"],
        ["counterexample", "--g", "60"],
        ["counterexample", "--g", "1100"],
        ["conjecture2-sweep", "--k", "3", "--g", "1100", "--count", "1"],
        ["certify", "{big}", "--k", "3"],
        ["solve", "{big}"],
    ]

    @staticmethod
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (800_000 * 1024,) * 2)

    # The floor (k-1)^(g-1) of these has millions of digits; computing it
    # took seconds, and bit lengths tell at once that it is above the cap.
    HUGE_FLOOR_CASES = [
        ["generate", "--k", "1048576", "--g", "1048576"],
        ["counterexample", "--k", "1048576", "--g", "1048576"],
        ["conjecture2-sweep", "--k", "1048576", "--g", "1048576", "--count", "1"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a))
    def test_exits_2_without_traceback(self, tmp_path, argv):
        self.check_exits_2(tmp_path, argv, timeout=60)

    @pytest.mark.parametrize("argv", HUGE_FLOOR_CASES, ids=lambda a: " ".join(a))
    def test_huge_floor_exits_2_at_once(self, tmp_path, argv):
        self.check_exits_2(tmp_path, argv, timeout=5)

    def check_exits_2(self, tmp_path, argv, timeout):
        big = tmp_path / "big.dimacs"
        big.write_text("p edge 100000000000 0\n")
        if argv[0] == "generate":
            argv = [*argv, "-o", "out.dimacs"]
        elif argv[0] == "counterexample":
            argv = [*argv, "-o", "record.json", "--graph-out", "out.dimacs"]
        proc = subprocess.run(
            [sys.executable, "-m", "strongedge", *(a.format(big=big) for a in argv)],
            capture_output=True,
            text=True,
            env=cli_env(),
            cwd=tmp_path,
            preexec_fn=self.limit_memory,
            timeout=timeout,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "cap" in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "g.dimacs"
        proc = subprocess.run(
            [sys.executable, "-m", "strongedge", "generate", "--k", "2",
             "--g", "4", "-o", str(out)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_greedy_coloring_identical_under_optimize(self, tmp_path):
        # python -O strips assert statements; the coloring file, its
        # "verified" flag included, must not depend on them.
        graph, _ = generate(3, 5, 48, seed=0)
        save_dimacs(tmp_path / "g.dimacs", graph)
        outputs = []
        for flags in ([], ["-O"]):
            out = tmp_path / f"c{len(outputs)}.json"
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "strongedge", "solve", "--greedy",
                 str(tmp_path / "g.dimacs"), "-o", str(out)],
                capture_output=True,
                text=True,
                env=cli_env(),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert json.loads(outputs[0])["verified"] is True
        assert outputs[1] == outputs[0]

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "strongedge", "generate"],
            capture_output=True,
            env=cli_env(),
        )
        assert proc.returncode == 2
