"""Spans around strongedge's layers, recorded from outside the package.

The tracer replaces module attributes with timing wrappers, so a call is
seen where the calling module looks the name up: ``pipeline.girth`` is the
certify path's re-check, ``generator.girth`` the generator's own check.
Nothing under ``src/`` changes, and :meth:`Tracer.uninstall` puts every
original back, so untraced passes run the unmodified code.

Spans stay in memory.  Each records name, start, end, parent and thread;
counts ride on the span as attributes.  A span opened on a thread with no
open span of its own (the sweep's worker threads) takes as parent the span
open on the thread that created the tracer.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

from catalog import GIRTHS, SEARCH_SIZES


def _nodes_in(args, kwargs):
    return {"m": args[0].n_nodes}


def _colors(result):
    return {"colors": result.n_colors}


def _text_bytes(result):
    return {"bytes": len(result)}  # DIMACS text is ASCII


# (module, attribute, span name, attributes from the arguments, from the result)
WRAPS = (
    ("generator", "generate", "generator.generate", None, None),
    ("pipeline", "generate", "generator.generate", None, None),
    ("generator", "find_distant_low_pair", "generator.low_pair", None,
     lambda r: {"hits": int(r is not None)}),
    ("generator", "find_swap_edge", "generator.swap_edge", None, lambda r: {"swaps": 1}),
    ("generator", "distances_from", "generator.ball", None, None),
    ("generator", "girth", "generator.girth", None, None),
    ("pipeline", "girth", "pipeline.recheck_girth", None, None),
    ("pipeline", "conflict_graph", "graphs.conflict_graph", None,
     lambda r: {"pairs": sum(r.degrees) // 2}),
    ("pipeline", "greedy_color", "solver.greedy", None, _colors),
    ("solver", "greedy_color", "solver.greedy", None, _colors),
    ("solver", "verify", "solver.verify", None, None),
    ("solver", "exact_chi_s", "solver.search", _nodes_in, None),
    ("solver", "find_coloring", "solver.search", _nodes_in, None),
    ("pipeline", "min_last_color_usage", "solver.search", _nodes_in, None),
    ("dimacs", "parse_dimacs", "dimacs.parse", lambda a, kw: {"bytes": len(a[0])}, None),
    ("dimacs", "serialize_dimacs", "dimacs.serialize", None, _text_bytes),
    ("pipeline", "serialize_dimacs", "dimacs.serialize", None, _text_bytes),
    ("pipeline", "build_counterexample", "pipeline.counterexample",
     lambda a, kw: {"g": a[0]}, None),
    ("pipeline", "certify_graph", "pipeline.certify", None, None),
    ("pipeline", "conjecture2_sweep", "pipeline.sweep", None,
     lambda r: {"rows_exact": sum(row.status == "exact" for row in r.rows),
                "rows_settled": sum(row.status in ("exact", "infeasible") for row in r.rows)}),
)


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "attrs", "budgets")

    def __init__(self, id_, name, parent, thread, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.attrs = {}
        self.budgets = []

    def to_json_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "thread": self.thread,
            "start": self.start - origin,
            "end": self.end - origin,
            **self.attrs,
        }


class Tracer:
    """Installs wrappers on a set of strongedge modules and records spans.

    The sweep's worker threads record spans too; they need no lock, since
    each keeps its own stack and ``list.append`` and ``next`` on an
    ``itertools.count`` are single operations under the interpreter lock.
    """

    def __init__(self, modules):
        self.modules = modules
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._originals = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack or self._main_stack
        span = Span(
            next(self._ids),
            name,
            outer[-1].id if outer else None,
            threading.get_ident(),
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.budgets:
            span.attrs["nodes"] = sum(b.nodes for b in span.budgets)
        self.spans.append(span)

    def _wrap(self, fn, name, from_args, from_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            if from_args is not None:
                span.attrs.update(from_args(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if from_result is not None:
                span.attrs.update(from_result(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of ``WRAPS`` and count search nodes per call.

        Each public search entry point creates one ``_Budget``; a subclass
        that hands itself to the innermost open span lets the span read the
        node count even when the search raises.
        """
        for mod_name, attr, name, from_args, from_result in WRAPS:
            module = getattr(self.modules, mod_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, from_args, from_result))

        solver = self.modules.solver
        base = solver._Budget
        tracer = self

        class CountedBudget(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                outer = tracer._stack() or tracer._main_stack
                if outer:
                    outer[-1].budgets.append(self)

        self._originals.append((solver, "_Budget", base))
        solver._Budget = CountedBudget

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own = self_times(spans)
    count = defaultdict(int)
    self_s = defaultdict(float)
    attr = defaultdict(int)
    nodes_by_m = defaultdict(int)
    search_s_by_m = defaultdict(float)
    counterexample_s = defaultdict(float)
    sweep_s = 0.0
    failed_builds = 0
    for s in spans:
        count[s.name] += 1
        self_s[s.name] += own[s.id]
        for key, value in s.attrs.items():
            if key not in ("m", "g", "error"):
                attr[s.name, key] += value
        if s.name == "solver.search":
            nodes_by_m[s.attrs["m"]] += s.attrs.get("nodes", 0)
            search_s_by_m[s.attrs["m"]] += own[s.id]
        elif s.name == "pipeline.counterexample":
            counterexample_s[s.attrs["g"]] += s.end - s.start
        elif s.name == "pipeline.sweep":
            sweep_s += s.end - s.start
        elif s.name == "generator.generate" and s.attrs.get("error") == "ConstructionFailedError":
            failed_builds += 1

    def ratio(a, b):
        return a / b if b else 0.0

    hits = attr["generator.low_pair", "hits"]
    swaps = attr["generator.swap_edge", "swaps"]
    return {
        "generator.generate_s": self_s["generator.generate"],
        "generator.steps": hits + swaps,
        "generator.swap_steps": swaps,
        "generator.low_pair_calls": count["generator.low_pair"],
        "generator.low_pair_s": self_s["generator.low_pair"],
        "generator.low_pair_hit_ratio": ratio(hits, count["generator.low_pair"]),
        "generator.ball_queries": count["generator.ball"],
        "generator.ball_s": self_s["generator.ball"],
        "generator.swap_edge_s": self_s["generator.swap_edge"],
        "generator.girth_calls": count["generator.girth"],
        "generator.girth_s": self_s["generator.girth"],
        "generator.construction_failed": failed_builds,
        "solver.greedy_s": self_s["solver.greedy"],
        "solver.greedy_colors": attr["solver.greedy", "colors"],
        "solver.search_nodes": attr["solver.search", "nodes"],
        "solver.search_s": self_s["solver.search"],
        **{
            f"solver.nodes_per_s.m{m}": ratio(nodes_by_m[m], search_s_by_m[m])
            for m in SEARCH_SIZES
        },
        "solver.verify_s": self_s["solver.verify"],
        "pipeline.recheck_girth_s": self_s["pipeline.recheck_girth"],
        "dimacs.parse_s": self_s["dimacs.parse"],
        "dimacs.serialize_s": self_s["dimacs.serialize"],
        "dimacs.bytes": attr["dimacs.parse", "bytes"] + attr["dimacs.serialize", "bytes"],
        "graphs.conflict_graph_s": self_s["graphs.conflict_graph"],
        "graphs.conflict_pairs": attr["graphs.conflict_graph", "pairs"],
        **{f"pipeline.counterexample_s.g{g}": counterexample_s[g] for g in GIRTHS},
        "pipeline.sweep_s": sweep_s,
        "pipeline.sweep_rows_exact": attr["pipeline.sweep", "rows_exact"],
        "pipeline.sweep_rows_settled": attr["pipeline.sweep", "rows_settled"],
    }
