"""End-to-end runs: build a certified counterexample instance, re-verify a
graph supplied from outside, and sweep last-color-usage evidence.

The refutation pipeline is counting-based: the lower bound in a record
always comes from the divisibility certificate, never from the solver (the
solver contributes at most an optional greedy upper bound).  Every claim is
recomputed from the graph itself with graph-core primitives; nothing is
trusted from the generator.  A built graph and a graph read from a file go
through one check path, which also builds the record, so both run the same
checks in the same order.  Records embed the SHA-256 of the exact graph
bytes so a claim is tied to one artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import dimacs
from .bounds import CountingCertificate, check_class_sizes, counting_certificate
from .dimacs import serialize_dimacs
from .errors import InternalInvariantError, NotRegularError, VerificationError
from .generator import _build, check_floor_fits, choose_n, generate, min_n
from .graphs import SimpleGraph, conflict_graph, girth, two_coloring
from .solver import greedy_color, min_last_color_usage


@dataclass(frozen=True)
class CounterexampleRecord:
    """Machine-checkable refutation record.

    Emitted only when regularity, bipartiteness, the girth floor, and the
    non-divisibility of the edge count all pass on recomputation (the graph
    type itself rules out duplicate edges and self-loops); the certificate
    then gives chi'_s >= 2k, one more than the conjectured bound of 2k-1
    colors at this girth.
    """

    k: int
    g: int
    n: int
    seed: int | None
    graph_path: str | None
    graph_sha256: str
    girth: int
    m: int
    certificate: CountingCertificate
    conjectured_bound: int
    conclusion: str
    upper_bound: int | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Conjecture2Row:
    """One instance's last-color usage measured against the cap."""

    k: int
    g: int
    n: int
    seed: int
    m: int
    cap: int
    usage: int | None
    status: str  # "exact" | "best-found" | "infeasible"

    @property
    def flagged(self) -> bool:
        """Exact usage above the cap: a potential counterexample to the
        usage conjecture, reported loudly and never auto-dismissed."""
        return self.status == "exact" and self.usage is not None and self.usage > self.cap

    def to_json_dict(self) -> dict:
        return {**asdict(self), "flagged": self.flagged}


@dataclass(frozen=True)
class Conjecture2Evidence:
    k: int
    g: int
    rows: tuple[Conjecture2Row, ...]

    def flagged_rows(self) -> list[Conjecture2Row]:
        return [r for r in self.rows if r.flagged]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "g": self.g,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def canonical_json(obj: dict) -> str:
    """Stable JSON rendering so identical runs give identical bytes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check(name: str, condition: bool, detail: str) -> None:
    if not condition:
        raise VerificationError(name, detail)


def _verify_bipartite(graph: SimpleGraph) -> int:
    """Check bipartiteness from scratch and return the half vertex count.

    Any declared bipartition is ignored: the sides are re-derived by
    2-coloring the graph.
    """
    side, clash = two_coloring(graph)
    if clash is not None:
        u, w = clash
        raise VerificationError("bipartite", f"odd cycle through vertices {u} and {w}")
    n_left = side.count(0)
    n_right = graph.n_vertices - n_left
    _check("balanced-sides", n_left == n_right, f"sides are ({n_left}, {n_right})")
    return n_left


def _certify(
    graph: SimpleGraph, k: int, g_floor: int | None, raw: bytes, **fields
) -> CounterexampleRecord:
    """Re-derive every claimed property from the graph alone; build its record.

    Checks run in order: bipartiteness, regularity, the girth floor (the
    measured girth when ``g_floor`` is None), non-divisibility; the first to
    fail raises :class:`VerificationError` naming it.  Simplicity needs no
    check here: a graph cannot hold a duplicate edge or a self-loop, and
    :func:`parse_dimacs` rejects a file that names one.  ``raw``
    is the graph's exact bytes, hashed into the record; ``fields`` are the
    record's ``seed`` and ``graph_path``.
    """
    n = _verify_bipartite(graph)
    try:
        cert = counting_certificate(graph, k)
    except NotRegularError as exc:
        raise VerificationError("regularity", str(exc)) from None
    girth_value = girth(graph)
    if g_floor is None:
        g_floor = girth_value
    _check(
        "girth",
        girth_value >= g_floor,
        f"measured girth {girth_value} is below the floor {g_floor}",
    )
    m, window = cert.m, cert.window
    _check(
        "divisibility",
        not cert.divisible,
        f"edge count {m} is divisible by {window}; no lower-bound certificate",
    )
    return CounterexampleRecord(
        k=k,
        g=g_floor,
        n=n,
        graph_sha256=hashlib.sha256(raw).hexdigest(),
        girth=girth_value,
        m=m,
        certificate=cert,
        conjectured_bound=window,
        conclusion=(
            f"{k}-regular bipartite, measured girth {girth_value} >= {g_floor}, "
            f"{m} edges with {m} mod {window} = {m % window} != 0, so every strong "
            f"edge-coloring needs at least {cert.chi_s_lower} colors; this exceeds the "
            f"conjectured bound of {window} colors at girth >= {g_floor} as "
            f"constructed (no minimality claimed)"
        ),
        **fields,
    )


def build_counterexample(
    g: int,
    k: int = 3,
    seed: int = 0,
    *,
    graph_out: str | Path | None = None,
    with_upper_bound: bool = True,
) -> CounterexampleRecord:
    """Generate and independently certify a girth->chromatic counterexample.

    Picks n = choose_n(k, g), builds the graph, then recomputes every
    property from scratch (girth, degrees, divisibility) on the path
    :func:`certify_graph` takes before writing ``graph_out`` and emitting
    the record.  The build leaves the girth to those checks, so it is
    measured once, and a graph below the floor fails them as ``girth``.
    For k = 3 the record refutes the five-color bound for large-girth cubic
    bipartite graphs at girth g.  The greedy coloring behind the upper bound
    is held to the certificate: every class within its cap and at least
    ``chi_s_lower`` colors, else :class:`InternalInvariantError`.
    """
    check_floor_fits(k, g)
    n = choose_n(k, g)
    graph = _build(k, g, n, seed)[0]
    _check(
        "vertex-count",
        graph.n_vertices == 2 * n,
        f"expected {2 * n} vertices, found {graph.n_vertices}",
    )
    text = serialize_dimacs(graph)
    graph_path = None if graph_out is None else str(graph_out)
    record = _certify(graph, k, g, text.encode(), seed=seed, graph_path=graph_path)
    if graph_out is not None:
        Path(graph_out).write_text(text)
    del text  # not held through the conflict graph and the greedy
    if with_upper_bound:
        phi = greedy_color(conflict_graph(graph))
        report = check_class_sizes(graph, k, phi)
        lower = record.certificate.chi_s_lower
        if not report.ok or phi.n_colors < lower:
            raise InternalInvariantError(
                f"greedy {phi.n_colors}-coloring breaks the certificate (at least "
                f"{lower} colors, at most {report.cap} edges a class; "
                f"over the cap: {list(report.offenders)})"
            )
        record = replace(record, upper_bound=phi.n_colors)
    return record


def certify_graph(path: str | Path, k: int) -> CounterexampleRecord:
    """Re-verify a graph file with no reliance on how it was produced.

    All checks are recomputed from scratch; the record's girth floor is the
    measured girth itself.  Check failures raise
    :class:`VerificationError` naming the failing check.
    """
    raw = Path(path).read_bytes()
    # Parse the bytes that were hashed.  The parser is looked up on its
    # module, as load_dimacs looks it up, so a wrapper installed on
    # dimacs.parse_dimacs (perfbench's tracer) still sees this call.
    graph = dimacs.parse_dimacs(raw.decode())
    return _certify(graph, k, None, raw, seed=None, graph_path=str(path))


def usage_cap(graph: SimpleGraph, k: int, usage: int | None) -> int:
    """The cap m mod (2k-1) on the last color's usage, with ``usage`` held
    to it.  On a k-regular graph each of the other 2k-1 classes holds at
    most m // (2k-1) edges, m - cap between them, so every usage is at
    least the cap, and one below it raises :class:`InternalInvariantError`.
    On any other graph the cap bounds nothing."""
    m = graph.n_edges
    cap = m % (2 * k - 1)
    if usage is not None and usage < cap and graph.is_regular(k):
        raise InternalInvariantError(
            f"usage {usage} on {m} edges is below m mod (2k-1) = {cap}"
        )
    return cap


def check_color_counts(graph: SimpleGraph, counts: dict[str, int | None]) -> None:
    """Hold the color counts claimed for ``graph``, by name, to the counting
    certificate: on a k-regular graph with k >= 2 every strong
    edge-coloring has at least ``chi_s_lower`` colors, so a count below it
    raises :class:`InternalInvariantError`.  Other graphs pass."""
    degrees = graph.degrees()
    k = degrees[0] if degrees else 0
    if k < 2 or not graph.is_regular(k):
        return
    lower = counting_certificate(graph, k).chi_s_lower
    for name, count in counts.items():
        if count is not None and count < lower:
            raise InternalInvariantError(
                f"{name} {count} is below chi_s_lower = {lower} on this "
                f"{k}-regular graph"
            )


def conjecture2_sweep(
    k: int,
    g: int,
    count: int,
    *,
    seed: int = 0,
    n_start: int | None = None,
    budget_ms: int | None = None,
    node_budget: int | None = None,
    force: bool = False,
) -> Conjecture2Evidence:
    """Measure minimal last-color usage against the cap m mod (2k-1) on
    ``count`` generated instances.

    Instance i uses side size n_start + i (default floor: min_n) and seed
    seed + i, so caps vary across the sweep.  The graphs are k-regular, so
    every usage is held to the cap by :func:`usage_cap`.

    A row is a function of (k, g, n, seed, budgets) alone, so rows run side
    by side, one process per CPU of the affinity mask, and the evidence has
    the same bytes on any number of CPUs; ``taskset -c 0`` runs them all in
    this process.  ``budget_ms`` is still per row, and what a row reaches
    within it depends on the load.
    """
    if count < 1:
        raise ValueError(f"instance count must be >= 1, got {count}")
    if n_start is None:
        check_floor_fits(k, g)
        n_start = min_n(k, g)

    def row(i: int) -> Conjecture2Row:
        n, inst_seed = n_start + i, seed + i
        graph, _ = generate(k, g, n, inst_seed, force=force)
        result = min_last_color_usage(
            conflict_graph(graph), k, budget_ms=budget_ms, node_budget=node_budget
        )
        cap = usage_cap(graph, k, result.usage)
        return Conjecture2Row(k, g, n, inst_seed, graph.n_edges, cap, result.usage, result.status)

    return Conjecture2Evidence(k=k, g=g, rows=tuple(_map_rows(row, count)))


def _map_rows(row, count: int) -> list[Conjecture2Row]:
    """``[row(0), ..., row(count - 1)]`` on W processes, one per CPU this
    process may run on: this one and W - 1 forked workers.  Worker w writes
    rows w, w + W, ... to its pipe, each a JSON line far below PIPE_BUF, so
    it arrives whole or not at all.  This process walks the rows in order,
    computing its own and reading the workers' lines; a row with no line
    (its worker raised, died or was never forked) is computed here, so the
    first row that fails raises exactly what a loop of one row at a time
    raises.  On any exception the workers are killed; all are reaped.
    """
    workers = 1
    if count > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        # a fork while another thread holds a lock can deadlock the child
        if threading.active_count() == 1:
            workers = min(count, len(os.sched_getaffinity(0)))
    streams = {}  # worker -> (pid, its pipe's read end)
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN at a process limit: this process takes w's rows
                os.close(read_end)
                os.close(write_end)
                continue
            if pid == 0:  # the worker: never returns into the caller's frames
                try:
                    os.close(read_end)
                    for i in range(w, count, workers):
                        os.write(write_end, (json.dumps(asdict(row(i))) + "\n").encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            streams[w] = (pid, os.fdopen(read_end, encoding="ascii"))
        rows = []
        for i in range(count):
            line = streams[i % workers][1].readline() if i % workers in streams else ""
            rows.append(Conjecture2Row(**json.loads(line)) if line else row(i))
        return rows
    except BaseException:
        import signal  # here only: the package import does not pay for it
        for pid, _ in streams.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, stream in streams.values():
            stream.close()
            os.waitpid(pid, 0)
