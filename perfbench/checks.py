"""Output checks that share no code with strongedge.

Graph files are re-read with this module's own DIMACS reader, girth is
re-measured with its own BFS, and colorings are re-checked against the
strong-coloring rule directly.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class GraphFile:
    n_left: int
    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # 0-based, in file order
    sha256: str


def read_graph(path: Path) -> GraphFile:
    """Parse a DIMACS edge file with a ``c bipartition`` comment."""
    raw = Path(path).read_bytes()
    n_left = n_vertices = None
    edges = []
    for line in raw.decode("ascii").splitlines():
        parts = line.split()
        if parts[:2] == ["c", "bipartition"]:
            n_left = int(parts[2])
        elif parts[:2] == ["p", "edge"]:
            n_vertices = int(parts[2])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    if n_left is None or n_vertices is None:
        raise ValueError(f"{path}: no bipartition comment or problem line")
    return GraphFile(n_left, n_vertices, tuple(edges), hashlib.sha256(raw).hexdigest())


def _adjacency(n_vertices, edges):
    adj = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def has_cycle_shorter_than(adj, limit: int) -> bool:
    """True iff the graph has a cycle of length < ``limit``.

    A BFS from each root; a non-tree edge between depths a and b closes a
    walk of length a + b + 1 that contains a cycle, and from a root on a
    shortest cycle the edge opposite the root closes exactly that cycle.
    Exploring a vertex at depth d only finds walks of length >= 2d, so the
    search stops there.
    """
    for root in range(len(adj)):
        depth = {root: 0}
        parent = {root: -1}
        queue = [root]
        for u in queue:
            du = depth[u]
            if 2 * du >= limit:
                break
            for w in adj[u]:
                if w == parent[u]:
                    continue
                dw = depth.get(w)
                if dw is None:
                    depth[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif du + dw + 1 < limit:
                    return True
    return False


def graph_problems(graph: GraphFile, k: int, n: int, girth_floor: int) -> list[str]:
    """k-regular, bipartite across the declared sides, n per side, simple,
    girth >= girth_floor."""
    problems = []
    if graph.n_left != n or graph.n_vertices != 2 * n:
        problems.append(f"sides are {graph.n_left}+{graph.n_vertices - graph.n_left}, expected {n}+{n}")
        return problems
    if any(not (min(u, v) < n <= max(u, v)) for u, v in graph.edges):
        problems.append("an edge does not cross the bipartition")
    if len({(min(e), max(e)) for e in graph.edges}) != len(graph.edges):
        problems.append("duplicate edge")
    adj = _adjacency(graph.n_vertices, graph.edges)
    if any(len(a) != k for a in adj):
        problems.append(f"not {k}-regular")
    if has_cycle_shorter_than(adj, girth_floor):
        problems.append(f"a cycle shorter than {girth_floor}")
    return problems


def record_problems(record, certified, graph: GraphFile, k: int, g: int) -> list[str]:
    """A counterexample record and the certify record of the same file."""
    window = 2 * k - 1
    m = len(graph.edges)
    problems = graph_problems(graph, k, record.n, max(g, record.girth))
    if record.certificate.chi_s_lower != 2 * k:
        problems.append(f"certificate bound {record.certificate.chi_s_lower} != {2 * k}")
    if record.girth < g:
        problems.append(f"record girth {record.girth} < {g}")
    if m % window == 0:
        problems.append(f"m = {m} is divisible by {window}")
    if record.m != m:
        problems.append(f"record m = {record.m}, file has {m}")
    if not has_cycle_shorter_than(_adjacency(graph.n_vertices, graph.edges), record.girth + 1):
        problems.append(f"file has no cycle of the recorded girth {record.girth}")
    if record.graph_sha256 != graph.sha256:
        problems.append("record SHA-256 differs from the file's")
    if record.upper_bound is not None and record.upper_bound < 2 * k:
        problems.append(f"upper bound {record.upper_bound} < certificate bound {2 * k}")
    if certified is not None:
        for field in ("m", "girth", "graph_sha256"):
            if getattr(certified, field) != getattr(record, field):
                problems.append(f"certify disagrees on {field}")
    return problems


def certificate_bound(k: int, m: int) -> int:
    """Colors any strong coloring of a k-regular graph with m edges needs."""
    return 2 * k if m % (2 * k - 1) else 2 * k - 1


def coloring_problems(edges, colors, max_colors: int) -> list[str]:
    """``colors[i]`` colors ``edges[i]``; strong means that the edges
    meeting either endpoint of any edge all differ in color."""
    if len(colors) != len(edges):
        return [f"{len(colors)} colors for {len(edges)} edges"]
    if any(not 1 <= c <= max_colors for c in colors):
        return [f"a color outside 1..{max_colors}"]
    incident = {}
    for i, (u, v) in enumerate(edges):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    for u, v in edges:
        near = set(incident[u]) | set(incident[v])
        if len({colors[i] for i in near}) != len(near):
            return [f"two edges near ({u + 1}, {v + 1}) share a color"]
    return []


def sweep_problems(evidence, k: int, g: int, count: int) -> list[str]:
    """Rows of a usage sweep: one per instance, cap = m mod (2k-1), and no
    usage below the cap, which no 2k-coloring of a k-regular graph beats."""
    problems = []
    rows = evidence.rows
    if len(rows) != count or (evidence.k, evidence.g) != (k, g):
        problems.append(f"{len(rows)} rows for k={evidence.k} g={evidence.g}")
    for row in rows:
        m = k * row.n
        if row.m != m or row.cap != m % (2 * k - 1):
            problems.append(f"n={row.n}: m={row.m} cap={row.cap}")
        if row.status not in ("exact", "best-found", "infeasible"):
            problems.append(f"n={row.n}: unknown status {row.status}")
        if row.usage is not None and row.usage < row.cap:
            problems.append(f"n={row.n}: usage {row.usage} < cap {row.cap}")
        if row.status == "infeasible" and row.usage is not None:
            problems.append(f"n={row.n}: infeasible with a usage")
    return problems
