import json
import resource
import subprocess
import sys

import pytest

from strongedge import choose_n, generate, girth, load_dimacs, save_dimacs
from strongedge.cli import main
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


class TestCertifyCommand:
    def test_good_graph(self, tmp_path, capsys):
        path = tmp_path / "hw.dimacs"
        save_dimacs(path, heawood_graph())
        assert run("certify", path, "--k", 3) == 0
        assert "chi_s_lower=6" in capsys.readouterr().out

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


class TestConjecture2Commands:
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

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a))
    def test_exits_2_without_traceback(self, tmp_path, argv):
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
            timeout=60,
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
