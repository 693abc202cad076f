"""Simple graphs and the derived structures the rest of the package is
built on: truncated BFS distances, girth computation, edge windows, and
the edge-conflict graph on which strong colorings live.

Vertices are dense 0-based indices.  A :class:`BipartiteGraph` keeps its left
side on ``0..n_left-1`` and its right side on ``n_left..n_left+n_right-1``;
text serialization (:mod:`strongedge.dimacs`) shifts everything to 1-based.

An edge is named by its endpoints.  :meth:`SimpleGraph.edges` keeps
insertion order: removing an edge keeps the order of the rest, re-adding
it puts it last, and that order is the conflict graph's node order.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain
from typing import Iterable, Sequence

from .errors import DuplicateEdgeError, InvalidEdgeError

INFINITE_GIRTH = math.inf

# Most vertices a graph may have.  Checked before any allocation, so an
# oversized file header or parameter is invalid input, not a MemoryError;
# the cubic girth-12 build has 12,288 vertices.
MAX_VERTICES = 1 << 20


class SimpleGraph:
    """Mutable simple undirected graph on vertices ``0..n_vertices-1``.

    Self-loops and parallel edges are rejected at insertion time, so
    simplicity can never silently break.
    """

    def __init__(self, n_vertices: int):
        if n_vertices < 0:
            raise ValueError(f"vertex count must be >= 0, got {n_vertices}")
        if n_vertices > MAX_VERTICES:
            # no count in the message: a generator side size can have more
            # digits than int-to-str converts
            raise ValueError(f"vertex count exceeds the cap of {MAX_VERTICES}")
        self.n_vertices = n_vertices
        # (low, high) -> the pair as inserted, in insertion order; a pair
        # inserted low first is its own key, so it costs one tuple, not two
        self._edges: dict[tuple[int, int], tuple[int, int]] = {}
        # vertex -> neighbors, in the insertion order of the joining edges
        self._adj: list[list[int]] = [[] for _ in range(n_vertices)]

    # -- construction -------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}``.

        Raises :class:`DuplicateEdgeError` if the pair is already present.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        self._insert(u, v)

    def _insert(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        if key in self._edges:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        self._edges[key] = key if u < v else (u, v)
        self._adj[u].append(v)
        self._adj[v].append(u)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}``; raises :class:`InvalidEdgeError` if absent."""
        if self._edges.pop((u, v) if u < v else (v, u), None) is None:
            raise InvalidEdgeError(f"edge ({u}, {v}) is not present")
        self._adj[u].remove(v)
        self._adj[v].remove(u)

    # -- queries ------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        """Endpoint pairs, as inserted, in insertion order."""
        return list(self._edges.values())

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self._adj]

    def is_regular(self, k: int) -> bool:
        return self.degrees().count(k) == self.n_vertices

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise ValueError(f"vertex {v} out of range [0, {self.n_vertices})")


class BipartiteGraph(SimpleGraph):
    """Simple graph with an explicit two-sided vertex partition.

    Bipartiteness is structural: every edge joins a left vertex to a right
    vertex, enforced at insertion.
    """

    def __init__(self, n_left: int, n_right: int):
        if n_left < 1 or n_right < 1:
            raise ValueError(
                f"both sides must be non-empty, got ({n_left}, {n_right})"
            )
        super().__init__(n_left + n_right)
        self.n_left = n_left
        self.n_right = n_right

    def add_edge(self, u: int, v: int) -> None:
        """Insert the edge joining global vertices ``u`` and ``v``, which must
        lie on opposite sides.

        The endpoints are stored left first.
        """
        if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
            self._check_vertex(u)
            self._check_vertex(v)
        if (u < self.n_left) == (v < self.n_left):
            raise ValueError(f"vertices {u} and {v} are on the same side")
        self._insert(u, v) if u < v else self._insert(v, u)


def distances_from(g: SimpleGraph, sources: Iterable[int], cutoff: int) -> list[int]:
    """Multi-source BFS truncated at ``cutoff`` hops.

    Returns the hop distance of every vertex, indexed by vertex, with -1 for
    vertices beyond the cutoff (at distance >= cutoff + 1).  The distance of
    a vertex is the minimum over all sources, following the usual
    set-to-set distance convention.
    """
    src = frozenset(sources)
    if not src:
        raise ValueError("source set must be non-empty")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    dist = [-1] * g.n_vertices
    queue: deque[int] = deque()
    for s in src:
        g._check_vertex(s)
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= cutoff:
            continue
        for w in g._adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def two_coloring(g: SimpleGraph) -> tuple[list[int], tuple[int, int] | None]:
    """Sides 0 and 1 by depth-first search from each uncolored vertex in turn,
    stopped at the first edge found inside a side; that edge, or None."""
    side = [-1] * g.n_vertices
    for start in range(g.n_vertices):
        if side[start] < 0:
            side[start], stack = 0, [start]
            while stack:
                u = stack.pop()
                for w in g._adj[u]:
                    if side[w] < 0:
                        side[w] = 1 - side[u]
                        stack.append(w)
                    elif side[w] == side[u]:
                        return side, (u, w)
    return side, None


def girth(g: SimpleGraph) -> int | float:
    """Length of a shortest cycle, or ``INFINITE_GIRTH`` for forests.

    One BFS per root, each cut off once ``2 * du + slack >= best`` (slack 2
    on a graph with no odd cycle, else 1), on a graph that shrinks as it
    goes: after a root's BFS the root is deleted, and then every vertex
    left with at most one neighbor is peeled away, until what remains is a
    2-core.  This is exact, since girth(H) is the minimum of the shortest
    cycle through r and girth(H - r), a vertex of degree at most 1 lies on
    no cycle, and every length a BFS reports closes a walk that contains a
    cycle of what remains.  On a bipartite graph with its left side
    numbered first, each deleted left root lowers the degrees of its right
    neighbors, so the right side has peeled away before its roots come up.
    ``g`` itself is not modified.  For bipartite graphs the result is even.
    Only a plain :class:`SimpleGraph` is 2-colored for the slack; ``add_edge``
    and ``parse_dimacs`` keep a :class:`BipartiteGraph` bipartite.

    One list holds each vertex's depth in the current BFS, -1 for a vertex
    it has not reached and -2 for a deleted or peeled one.  Each vertex is
    doomed at most once, so a peel never meets a deleted vertex: the first
    doomed list holds the vertices of degree at most 1, a vertex joins a
    later one only when its degree falls to exactly 1, and a root, doomed
    only if it survived, is deleted before any neighbor's degree is
    lowered.  The BFS needs no parent array: a neighbor one layer up is
    skipped, and it is either the parent or a second parent, whose cycle of
    length 2 * du was counted when its own layer was expanded.
    """
    best: int | float = INFINITE_GIRTH
    n = g.n_vertices
    adj = g._adj
    degree = [len(a) for a in adj]
    dist = [-1] * n

    def peel(doomed: list[int]) -> None:
        """Delete the doomed vertices, dooming each neighbor whose remaining
        degree drops to 1."""
        while doomed:
            v = doomed.pop()
            dist[v] = -2
            for w in adj[v]:
                if dist[w] != -2:
                    degree[w] -= 1
                    if degree[w] == 1:
                        doomed.append(w)

    slack = 2 if isinstance(g, BipartiteGraph) or two_coloring(g)[1] is None else 1
    peel([v for v in range(n) if degree[v] <= 1])
    for root in range(n):
        if dist[root] == -2:
            continue
        dist[root] = 0
        queue = [root]
        for u in queue:
            du = dist[u]
            # Expanding depth du closes walks of 2 * du + 1 (inside the layer:
            # odd) or 2 * du + 2; one back to depth du - 1 closed there.  Depths
            # never fall, so past this bound no later vertex improves `best`.
            if 2 * du + slack >= best:
                break
            up = du - 1  # d > up: this layer or the next, never -2
            for w in adj[u]:
                d = dist[w]
                if d == -1:
                    dist[w] = du + 1
                    queue.append(w)
                elif d > up:
                    cand = du + d + 1
                    if cand < best:
                        best = cand
        for u in queue:
            dist[u] = -1
        peel([root])
    return best


def edge_windows(endpoints: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """The window of each edge: its closed edge neighborhood.

    The i-th window holds, in ascending order, the positions in
    ``endpoints`` of the edges sharing an endpoint with edge i, and i
    itself.  A window is a clique of the conflict graph, with 2k-1 nodes in
    a k-regular graph.
    """
    incident: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(endpoints):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    return [tuple(sorted({*incident[u], *incident[v]})) for u, v in endpoints]


class ConflictGraph:
    """The strong-coloring conflict structure of a graph.

    One node per edge, in :meth:`SimpleGraph.edges` order, with
    ``endpoints[i]`` the edge's vertex pair; two nodes are adjacent exactly
    when the edges share an endpoint or some edge joins an endpoint of one
    to an endpoint of the other.  Strong edge-colorings of the source graph
    are precisely the proper vertex colorings of this graph.

    ``adj[i]`` is the tuple of the distinct nodes conflicting with node i,
    in no promised order: every reader uses a row as a set.  ``degrees[i]``
    is its length.  Instances are immutable values.
    """

    def __init__(
        self,
        endpoints: tuple[tuple[int, int], ...],
        adj: tuple[tuple[int, ...], ...],
        degrees: tuple[int, ...],
    ):
        self.endpoints = endpoints
        self.adj = adj
        self.degrees = degrees

    @property
    def n_nodes(self) -> int:
        return len(self.adj)


def conflict_graph(g: SimpleGraph) -> ConflictGraph:
    """Build the conflict graph of ``g``.

    Adjacency is symmetric and irreflexive by construction.
    """
    endpoints = tuple(g.edges())
    incident: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for i, (u, v) in enumerate(endpoints):
        incident[u].append(i)
        incident[v].append(i)
    # reach[x]: the edges with an endpoint adjacent to x, which include those
    # at x.  Edge i = (u, v) conflicts with exactly the other edges in
    # reach[u] | reach[v].  Tuples, not sets, keep the peak near the rows'
    # size; an edge a triangle lists twice is merged by the row's set.
    reach = [tuple(chain.from_iterable(map(incident.__getitem__, a))) for a in g._adj]
    del incident
    adj = []
    for i, (u, v) in enumerate(endpoints):
        row = {*reach[u], *reach[v]}
        row.discard(i)
        adj.append(tuple(row))
    return ConflictGraph(endpoints, tuple(adj), tuple(map(len, adj)))
