"""The benchmark's workloads.

Each workload builds its inputs from the seed (``setup``), runs one pass of
timed operations through the functions the CLI subcommands call, with the
CLI's defaults (``run_pass``), and then checks every output with
:mod:`checks` (``check``).  ``modules`` is the namespace of strongedge
modules the run imported; calls go through module attributes so that the
tracer sees them.

An operation fails when it raises something other than its documented
outcomes, or when a check of its output finds a problem.  A budget that
runs out and a forced below-floor build that raises
``ConstructionFailedError`` are documented outcomes, not failures.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from clock import Clock

K3 = 3  # the paper's cubic case
K4 = 4
FIND_COLORS = 7  # the seven-color question, one above the certificate bound 2k = 6

@dataclass
class Op:
    kind: str
    label: str
    seconds: float  # reference seconds
    raw_seconds: float
    value: object = None
    outcome: str = "ok"  # "ok", the name of a documented exception, or "error"
    error: str | None = None
    problems: list = field(default_factory=list)
    context: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class Pass:
    """The operations of one pass and the digests of the files it wrote."""

    def __init__(self, out: Path, clock: Clock):
        self.out = out
        self.clock = clock
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}

    def run(self, kind, label, fn, documented=(), **context) -> Op:
        try:
            value, outcome, error = self.clock.time(fn), "ok", None
        except documented as exc:
            value, outcome, error = None, type(exc).__name__, None
        except Exception as exc:  # an op that fails must not end the run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            value, outcome = None, "error"
            error = (
                f"{type(exc).__name__}: {str(exc)[:200]} "
                f"(at {Path(where.filename).name}:{where.lineno} in {where.name})"
            )
        op = Op(kind, label, self.clock.ref, self.clock.raw, value, outcome, error, context=context)
        self.ops.append(op)
        return op

    def write(self, name: str, text: str) -> None:
        path = self.out / name
        path.write_text(text)
        self.digest(path)

    def digest(self, path: Path) -> None:
        self.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()


def _check_record_ops(p: Pass, k: int) -> None:
    """Check each counterexample record against its file and the certify
    record of that file."""
    certified = {op.context["g"]: op.value for op in p.ops if op.kind == "certify"}
    for build in p.ops:
        if build.kind == "counterexample" and build.value is not None:
            g = build.context["g"]
            graph = checks.read_graph(build.context["path"])
            build.problems += checks.record_problems(build.value, certified.get(g), graph, k, g)


def _counterexample_ops(modules, p: Pass, k: int, g: int, seed: int) -> None:
    """``strongedge counterexample --g G --k K --seed S -o rec --graph-out
    graph`` then ``strongedge certify graph --k K``."""
    pipeline = modules.pipeline
    graph_path = p.out / f"k{k}-g{g}.dimacs"

    def counterexample():
        record = pipeline.build_counterexample(g, k, seed, graph_out=graph_path)
        p.write(f"k{k}-g{g}.record.json", pipeline.canonical_json(record.to_json_dict()))
        p.digest(graph_path)
        return record

    label = f"k={k} g={g}"
    p.run("counterexample", label, counterexample, g=g, path=graph_path)
    p.run("certify", label, lambda: pipeline.certify_graph(graph_path, k), g=g)


@dataclass(frozen=True)
class Ladder:
    """For G = 5..10, the paper's headline path: build a certified cubic
    counterexample with its greedy upper bound, then certify the file."""

    girths: tuple = (5, 6, 7, 8, 9, 10)
    setup_reps: int = 9

    def setup(self, modules, seed: int, out: Path) -> dict:
        return {"seed": seed}

    def setup_problems(self, modules, inputs: dict) -> list[str]:
        return []

    def run_pass(self, modules, inputs: dict, p: Pass) -> None:
        for g in self.girths:
            _counterexample_ops(modules, p, K3, g, inputs["seed"])

    def check(self, modules, inputs: dict, p: Pass) -> None:
        _check_record_ops(p, K3)


@dataclass(frozen=True)
class Search:
    """Decision search under fixed node budgets.

    ``strongedge solve graph.dimacs --node-budget B`` on the counterexample
    graphs of girth 5, 6 and 7, the seven-color question on girth 8, and
    ``strongedge conjecture2-sweep --k 3 --g 4 --count 4 --node-budget B``,
    once from the floor n = 24 and once forced from n = 10.

    Search speed differs from graph to graph by up to a third, so a pass
    asks every question on several instances (seeds) and a run's time does
    not hang on one graph.  The girth-8 question gets a small budget: when
    its search does not hit Python's recursion limit (after about 1000
    nodes) it runs to the budget at about 10k nodes/s, and a budget near
    the failure point keeps that seed-dependent branch from moving the pass
    time.

    The girth-8 question is one operation over ``find_instances`` graphs:
    it asks every graph, then raises the first error any of them raised.
    About 63% of graphs hit the recursion limit within the budget, so with
    eight graphs the operation fails on all but about one seed in 3000, and
    every run reports the known defect as one failed operation, whichever
    graphs its seed draws.

    No question at the floor settles within any budget a pass can afford
    (none of the girth-5 questions did with 60k nodes, nor any floor sweep
    row with 50k).  The sweep from n = 10 settles about half its rows with
    5k nodes, so ``answered_share`` can move both ways.
    """

    girths: tuple = (5, 6, 7)
    instances: int = 4
    exact_budget: int = 5_000
    find_girth: int = 8
    find_instances: int = 8
    find_budget: int = 2_000
    # (g, count, first n); a first n below min_n(3, 4) = 24 is forced
    sweeps: tuple = ((4, 4, None), (4, 4, 10))
    sweep_budget: int = 5_000
    setup_reps: int = 7

    def setup(self, modules, seed: int, out: Path) -> dict:
        """``strongedge generate --k 3 --g G --seed S -o graph`` for each
        instance and girth, read back as ``solve`` reads it, and its
        conflict graph."""
        generator = modules.generator
        seeds = [seed * self.instances + j for j in range(self.instances)]
        find_seeds = [seed * self.find_instances + j for j in range(self.find_instances)]
        graphs = {}
        for g, s in [(g, s) for s in seeds for g in self.girths] + [
            (self.find_girth, s) for s in find_seeds
        ]:
            graph, _ = generator.generate(K3, g, generator.choose_n(K3, g), s)
            path = out / f"search-g{g}-s{s}.dimacs"
            modules.dimacs.save_dimacs(path, graph)
            parsed = modules.dimacs.load_dimacs(path)
            graphs[g, s] = (path, parsed, modules.graphs.conflict_graph(parsed))
        return {"seeds": seeds, "find_seeds": find_seeds, "graphs": graphs}

    def setup_problems(self, modules, inputs: dict) -> list[str]:
        problems = []
        for (g, s), (path, _graph, cg) in inputs["graphs"].items():
            graph = checks.read_graph(path)
            n = modules.generator.choose_n(K3, g)
            problems += [f"g={g} seed={s}: {x}" for x in checks.graph_problems(graph, K3, n, g)]
            if sorted(map(sorted, cg.endpoints)) != sorted(map(sorted, graph.edges)):
                problems.append(f"g={g} seed={s}: conflict graph edges differ from the file's")
        return problems

    def run_pass(self, modules, inputs: dict, p: Pass) -> None:
        solver = modules.solver
        pipeline = modules.pipeline
        graphs = inputs["graphs"]
        for s in inputs["seeds"]:
            for g in self.girths:
                cg = graphs[g, s][2]

                def solve():
                    """``strongedge solve graph --node-budget B -o out``"""
                    outcome = solver.exact_chi_s(cg, node_budget=self.exact_budget)
                    p.write(f"solve-g{g}-s{s}.json", _outcome_json(outcome))
                    return outcome

                p.run("exact", f"g={g} m={cg.n_nodes} seed={s}", solve, key=(g, s))
            for g, count, n_start in self.sweeps:

                def sweep():
                    """``strongedge conjecture2-sweep --k 3 --g G --count C
                    --seed S [--n N --force] --node-budget B -o out``"""
                    evidence = pipeline.conjecture2_sweep(
                        K3, g, count, seed=s * count, n_start=n_start,
                        force=n_start is not None, node_budget=self.sweep_budget,
                    )
                    p.write(
                        f"sweep-g{g}-n{n_start}-s{s}.json",
                        pipeline.canonical_json(evidence.to_json_dict()),
                    )
                    return evidence

                p.run(
                    "sweep", f"k={K3} g={g} count={count} n={n_start} seed={s * count}", sweep,
                    documented=(modules.errors.ConstructionFailedError,), g=g, count=count,
                )

        answers = {}  # (g, seed) -> outcome, for the graphs whose search returned

        def find():
            """``solve``'s seven-color question on each girth-8 graph."""
            first = None
            for s in inputs["find_seeds"]:
                cg = graphs[self.find_girth, s][2]
                try:
                    answers[self.find_girth, s] = solver.find_coloring(
                        cg, FIND_COLORS, node_budget=self.find_budget
                    )
                except Exception as exc:  # asked on every graph before it counts
                    first = first or exc
            if first is not None:
                try:
                    raise first
                finally:
                    first = None  # no cycle through this frame keeps the stack alive
            return answers

        m = graphs[self.find_girth, inputs["find_seeds"][0]][2].n_nodes
        p.run(
            "find", f"g={self.find_girth} m={m} colors={FIND_COLORS} "
            f"seeds={inputs['find_seeds'][0]}..{inputs['find_seeds'][-1]}",
            find, answers=answers, count=len(inputs["find_seeds"]),
        )

    def check(self, modules, inputs: dict, p: Pass) -> None:
        for op in p.ops:
            if op.kind == "find":
                for key, answer in op.context["answers"].items():
                    self._check_answer(modules, inputs, key, "find", answer, op.problems)
            elif op.value is None:
                continue
            elif op.kind == "sweep":
                op.problems += checks.sweep_problems(
                    op.value, K3, op.context["g"], op.context["count"]
                )
            else:
                self._check_answer(modules, inputs, op.context["key"], op.kind, op.value,
                                   op.problems)

    @staticmethod
    def _check_answer(modules, inputs: dict, key, kind: str, out, problems: list) -> None:
        _path, graph, cg = inputs["graphs"][key]
        bound = checks.certificate_bound(K3, cg.n_nodes)
        if kind == "exact":
            if out.status not in ("exact", "upper-bound-only"):
                problems.append(f"unknown status {out.status}")
            if not out.lower_bound <= out.upper_bound or out.upper_bound < bound:
                problems.append(
                    f"bounds {out.lower_bound}..{out.upper_bound} vs certificate {bound}"
                )
            coloring, max_colors = out.coloring, out.upper_bound
        else:
            if out.status not in ("found", "none", "timeout"):
                problems.append(f"unknown status {out.status}")
            coloring, max_colors = out.coloring, FIND_COLORS
            if coloring is not None and max_colors < bound:
                problems.append(f"{max_colors}-coloring below the certificate bound {bound}")
        if coloring is not None:
            problems += _coloring_problems(modules, graph, cg, coloring, max_colors, K3)

def _outcome_json(outcome) -> str:
    return json.dumps(
        {
            "status": outcome.status,
            "chi_s": outcome.chi_s,
            "lower_bound": outcome.lower_bound,
            "upper_bound": outcome.upper_bound,
            "nodes": outcome.nodes,
            "colors": outcome.coloring.colors if outcome.coloring else None,
        },
        sort_keys=True,
    )


def _coloring_problems(modules, graph, cg, coloring, max_colors, k) -> list[str]:
    problems = checks.coloring_problems(cg.endpoints, coloring.colors, max_colors)
    if not modules.solver.verify(cg, coloring):
        problems.append("verify rejects the coloring")
    if not modules.bounds.check_class_sizes(graph, k, coloring).ok:
        problems.append("a color class exceeds m / (2k-1)")
    return problems


@dataclass(frozen=True)
class Quartic:
    """k = 4: forced below-floor builds, where swap steps, low-pair misses
    and two augmentation levels run, then the counterexample and certify
    path at girths 5 and 6 with the 2k-1 = 7 window.

    The forced sizes sit where the dense path runs often, far below
    min_n(4, 7) = 1094.  At n = 130 every build tried ended in
    ``ConstructionFailedError`` after about 1.5 swap steps, each after a
    low-pair miss; at n = 200 none did, after about 1.75.  Sizes in between
    fail on some seeds only, and a pass's time would then hang on how many
    of its builds fail, since a failed build skips the final girth check.
    A build's swaps stay few, since each comes only once no distant low
    pair is left, so the swap and miss path is about 1% of a build's time.
    """

    forced: tuple = ((7, 130), (7, 200))  # (g, n) of the forced builds
    forced_seeds: int = 12  # builds of each size
    girths: tuple = (5, 6)
    setup_reps: int = 9

    def setup(self, modules, seed: int, out: Path) -> dict:
        return {"seed": seed}

    def setup_problems(self, modules, inputs: dict) -> list[str]:
        return []

    def run_pass(self, modules, inputs: dict, p: Pass) -> None:
        k = K4
        for (g, n), i in [(gn, i) for gn in self.forced for i in range(self.forced_seeds)]:
            seed = inputs["seed"] * self.forced_seeds + i
            name = f"forced-k{k}-g{g}-n{n}-s{i}"

            def generate():
                """``strongedge generate --k K --g G --n N --seed S --force
                --trace t -o graph``"""
                graph, trace = modules.generator.generate(k, g, n, seed, force=True)
                modules.dimacs.save_dimacs(p.out / f"{name}.dimacs", graph)
                p.digest(p.out / f"{name}.dimacs")
                p.write(f"{name}.trace", trace.to_text())
                return trace

            p.run(
                "generate", f"k={k} g={g} n={n} seed={seed}", generate,
                documented=(modules.errors.ConstructionFailedError,),
                path=p.out / f"{name}.dimacs", g=g, n=n,
            )
        for girth in self.girths:
            _counterexample_ops(modules, p, K4, girth, inputs["seed"])

    def check(self, modules, inputs: dict, p: Pass) -> None:
        k = K4
        for op in p.ops:
            if op.kind == "generate" and op.value is not None:
                g, n = op.context["g"], op.context["n"]
                graph = checks.read_graph(op.context["path"])
                op.problems += checks.graph_problems(graph, k, n, g)
                if len(op.value.steps) != (k - 2) * n:
                    op.problems.append(f"{len(op.value.steps)} steps, expected {(k - 2) * n}")
        _check_record_ops(p, K4)


WORKLOADS = {"ladder": Ladder(), "search": Search(), "quartic": Quartic()}
