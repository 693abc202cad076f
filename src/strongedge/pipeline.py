"""End-to-end runs: build a certified counterexample instance, re-verify a
graph supplied from outside, and sweep last-color-usage evidence.

The refutation pipeline is counting-based: the lower bound in a record
always comes from the divisibility certificate, never from the solver (the
solver contributes at most an optional greedy upper bound).  Every claim is
recomputed from the graph itself with graph-core primitives; nothing is
trusted from the generator.  Records embed the SHA-256 of the exact graph
bytes so a claim is tied to one artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import dimacs
from .bounds import CountingCertificate, counting_certificate
from .dimacs import serialize_dimacs
from .errors import NotRegularError, VerificationError
from .generator import choose_n, generate, min_n
from .graphs import SimpleGraph, conflict_graph, girth
from .solver import greedy_color, min_last_color_usage


@dataclass(frozen=True)
class CounterexampleRecord:
    """Machine-checkable refutation record.

    Emitted only when regularity, bipartiteness, simplicity, the girth
    floor, and the non-divisibility of the edge count all pass on
    recomputation; the certificate then gives chi'_s >= 2k, one more than
    the conjectured bound of 2k-1 colors at this girth.
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
        return {
            "k": self.k,
            "g": self.g,
            "n": self.n,
            "seed": self.seed,
            "graph_path": self.graph_path,
            "graph_sha256": self.graph_sha256,
            "girth": self.girth,
            "m": self.m,
            "certificate": self.certificate.to_json_dict(),
            "conjectured_bound": self.conjectured_bound,
            "conclusion": self.conclusion,
            "upper_bound": self.upper_bound,
        }


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
        return {
            "k": self.k,
            "g": self.g,
            "n": self.n,
            "seed": self.seed,
            "m": self.m,
            "cap": self.cap,
            "usage": self.usage,
            "status": self.status,
            "flagged": self.flagged,
        }


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


def _recompute_checks(
    graph: SimpleGraph, k: int, girth_floor: int | None
) -> tuple[int, int, CountingCertificate]:
    """Re-derive every claimed property from the graph alone.

    Returns (girth, m, certificate); raises :class:`VerificationError`
    naming the first failing check.
    """
    try:
        cert = counting_certificate(graph, k)
    except NotRegularError as exc:
        raise VerificationError("regularity", str(exc)) from None
    edges = graph.edges()
    normalized = {(u, v) if u < v else (v, u) for u, v in edges}
    _check(
        "simplicity",
        len(normalized) == len(edges) and all(u != v for u, v in edges),
        "duplicate edge or self-loop found",
    )
    girth_value = girth(graph)
    if girth_floor is not None:
        _check(
            "girth",
            girth_value >= girth_floor,
            f"measured girth {girth_value} is below the floor {girth_floor}",
        )
    _check(
        "divisibility",
        not cert.divisible,
        f"edge count {cert.m} is divisible by {cert.window}; no lower-bound certificate",
    )
    return int(girth_value), cert.m, cert


def _verify_bipartite(graph: SimpleGraph) -> int:
    """Check bipartiteness from scratch and return the half vertex count.

    Any declared bipartition is ignored: the sides are re-derived by
    2-coloring the graph.
    """
    side = [-1] * graph.n_vertices
    for start in range(graph.n_vertices):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w, _ in graph.neighbors(u):
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    raise VerificationError(
                        "bipartite", f"odd cycle through vertices {u} and {w}"
                    )
    n_left = side.count(0)
    n_right = graph.n_vertices - n_left
    _check("balanced-sides", n_left == n_right, f"sides are ({n_left}, {n_right})")
    return n_left


def _conclusion(cert: CountingCertificate, g_floor: int, girth_value: int) -> str:
    m, window = cert.m, cert.window
    return (
        f"{cert.k}-regular bipartite, measured girth {girth_value} >= {g_floor}, "
        f"{m} edges with {m} mod {window} = {m % window} != 0, so every strong "
        f"edge-coloring needs at least {cert.chi_s_lower} colors; this exceeds the "
        f"conjectured bound of {window} colors at girth >= {g_floor} as "
        f"constructed (no minimality claimed)"
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
    property from scratch (girth, degrees, simplicity, divisibility) before
    emitting the record.  For k = 3 the record refutes the five-color bound
    for large-girth cubic bipartite graphs at girth g.
    """
    n = choose_n(k, g)
    graph, _trace = generate(k, g, n, seed)

    _check(
        "vertex-count",
        graph.n_vertices == 2 * n,
        f"expected {2 * n} vertices, found {graph.n_vertices}",
    )
    _verify_bipartite(graph)
    girth_value, m, cert = _recompute_checks(graph, k, g)
    _check(
        "certificate",
        cert.chi_s_lower == 2 * k,
        f"certificate lower bound {cert.chi_s_lower} != {2 * k}",
    )

    text = serialize_dimacs(graph)
    digest = hashlib.sha256(text.encode()).hexdigest()
    path_str = None
    if graph_out is not None:
        Path(graph_out).write_text(text)
        path_str = str(graph_out)

    upper = None
    if with_upper_bound:
        upper = greedy_color(conflict_graph(graph)).n_colors

    return CounterexampleRecord(
        k=k,
        g=g,
        n=n,
        seed=seed,
        graph_path=path_str,
        graph_sha256=digest,
        girth=girth_value,
        m=m,
        certificate=cert,
        conjectured_bound=cert.window,
        conclusion=_conclusion(cert, g, girth_value),
        upper_bound=upper,
    )


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
    n = _verify_bipartite(graph)
    girth_value, m, cert = _recompute_checks(graph, k, None)
    return CounterexampleRecord(
        k=k,
        g=girth_value,
        n=n,
        seed=None,
        graph_path=str(path),
        graph_sha256=hashlib.sha256(raw).hexdigest(),
        girth=girth_value,
        m=m,
        certificate=cert,
        conjectured_bound=cert.window,
        conclusion=_conclusion(cert, girth_value, girth_value),
        upper_bound=None,
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
    seed + i, so caps vary across the sweep.  Rows are computed one after
    another in n order.
    """
    if count < 1:
        raise ValueError(f"instance count must be >= 1, got {count}")
    base_n = min_n(k, g) if n_start is None else n_start
    rows = []
    for i in range(count):
        n, inst_seed = base_n + i, seed + i
        graph, _ = generate(k, g, n, inst_seed, force=force)
        m = graph.n_edges
        result = min_last_color_usage(
            conflict_graph(graph), k, budget_ms=budget_ms, node_budget=node_budget
        )
        rows.append(
            Conjecture2Row(
                k=k,
                g=g,
                n=n,
                seed=inst_seed,
                m=m,
                cap=m % (2 * k - 1),
                usage=result.usage,
                status=result.status,
            )
        )
    return Conjecture2Evidence(k=k, g=g, rows=tuple(rows))
