"""Simple graphs with stable edge identities and the derived structures the
rest of the package is built on: truncated BFS distances, girth
computation, edge windows, and the edge-conflict graph on which strong
colorings live.

Vertices are dense 0-based indices.  A :class:`BipartiteGraph` keeps its left
side on ``0..n_left-1`` and its right side on ``n_left..n_left+n_right-1``;
text serialization (:mod:`strongedge.dimacs`) shifts everything to 1-based.

Edge ids are stable under deletion: removing an edge leaves a tombstone, so
ids held elsewhere (colorings, construction traces) stay valid until
:meth:`SimpleGraph.compact` renumbers them explicitly.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, Sequence

from .errors import DuplicateEdgeError, InternalInvariantError, InvalidEdgeError

INFINITE_GIRTH = math.inf


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimpleGraph:
    """Mutable simple undirected graph on vertices ``0..n_vertices-1``.

    Self-loops and parallel edges are rejected at insertion time, so
    simplicity can never silently break.
    """

    def __init__(self, n_vertices: int):
        if n_vertices < 0:
            raise ValueError(f"vertex count must be >= 0, got {n_vertices}")
        self.n_vertices = n_vertices
        # edge id -> (u, v), or None for a removed (tombstoned) edge
        self._endpoints: list[tuple[int, int] | None] = []
        # vertex -> list of (neighbor, edge id)
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
        self._pair_to_eid: dict[tuple[int, int], int] = {}
        self._n_live = 0

    # -- construction -------------------------------------------------

    def add_edge(self, u: int, v: int) -> int:
        """Insert edge ``{u, v}`` and return its id.

        Raises :class:`DuplicateEdgeError` if the pair is already present.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        return self._insert(u, v)

    def _insert(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        if key in self._pair_to_eid:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        eid = len(self._endpoints)
        self._endpoints.append((u, v))
        self._adj[u].append((v, eid))
        self._adj[v].append((u, eid))
        self._pair_to_eid[key] = eid
        self._n_live += 1
        return eid

    def remove_edge(self, eid: int) -> None:
        """Tombstone edge ``eid``; all other edge ids remain valid."""
        u, v = self.endpoints(eid)
        self._adj[u] = [(w, e) for (w, e) in self._adj[u] if e != eid]
        self._adj[v] = [(w, e) for (w, e) in self._adj[v] if e != eid]
        del self._pair_to_eid[(u, v) if u < v else (v, u)]
        self._endpoints[eid] = None
        self._n_live -= 1

    def compact(self) -> dict[int, int]:
        """Renumber edge ids densely, dropping tombstones.

        Returns the old-id -> new-id map for live edges.
        """
        remap: dict[int, int] = {}
        endpoints: list[tuple[int, int] | None] = []
        for old, pair in enumerate(self._endpoints):
            if pair is None:
                continue
            remap[old] = len(endpoints)
            endpoints.append(pair)
        self._endpoints = endpoints
        self._adj = [[] for _ in range(self.n_vertices)]
        self._pair_to_eid = {}
        for eid, (u, v) in enumerate(endpoints):
            self._adj[u].append((v, eid))
            self._adj[v].append((u, eid))
            self._pair_to_eid[(u, v) if u < v else (v, u)] = eid
        return remap

    # -- queries ------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Number of live (non-tombstoned) edges."""
        return self._n_live

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not 0 <= eid < len(self._endpoints):
            raise InvalidEdgeError(f"edge id {eid} out of range")
        pair = self._endpoints[eid]
        if pair is None:
            raise InvalidEdgeError(f"edge id {eid} refers to a removed edge")
        return pair

    def edge_id(self, u: int, v: int) -> int | None:
        """Return the id of edge ``{u, v}`` or None if absent."""
        return self._pair_to_eid.get((u, v) if u < v else (v, u))

    def edge_ids(self) -> list[int]:
        """Live edge ids in ascending order."""
        return [e for e, pair in enumerate(self._endpoints) if pair is not None]

    def edges(self) -> list[tuple[int, int]]:
        """Live endpoint pairs in edge-id order."""
        return [pair for pair in self._endpoints if pair is not None]

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """List of (neighbor, edge id) pairs incident to ``v``."""
        self._check_vertex(v)
        return list(self._adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self._adj]

    def is_regular(self, k: int) -> bool:
        return all(len(a) == k for a in self._adj)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise ValueError(f"vertex {v} out of range [0, {self.n_vertices})")

    def check_consistent(self) -> None:
        """Check that the adjacency and edge list agree (used by audits/tests).

        Raises :class:`InternalInvariantError` naming the first mismatch.
        """
        count = 0
        for eid, pair in enumerate(self._endpoints):
            if pair is None:
                continue
            count += 1
            u, v = pair
            for a, b in ((u, v), (v, u)):
                if (b, eid) not in self._adj[a]:
                    raise InternalInvariantError(f"edge {eid} missing from adj[{a}]")
        if count != self._n_live:
            raise InternalInvariantError(f"{count} live edges, counter says {self._n_live}")
        if sum(len(a) for a in self._adj) != 2 * self._n_live:
            raise InternalInvariantError("adjacency lists and live edge count disagree")


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

    def add_edge(self, u: int, v: int) -> int:
        """Insert the edge joining global vertices ``u`` and ``v``, which must
        lie on opposite sides, and return its id.

        The endpoints are stored left first.
        """
        if self.is_left(u) == self.is_left(v):
            raise ValueError(f"vertices {u} and {v} are on the same side")
        return self._insert(u, v) if u < v else self._insert(v, u)

    def is_left(self, v: int) -> bool:
        self._check_vertex(v)
        return v < self.n_left


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
        for w, _eid in g._adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def girth(g: SimpleGraph) -> int | float:
    """Length of a shortest cycle, or ``INFINITE_GIRTH`` for forests.

    One BFS per root, each cut off once ``2 * du >= best``, run on a graph
    that shrinks as it goes: after a root's BFS the root is deleted, and
    then every vertex left with at most one neighbor is peeled away, until
    what remains is a 2-core.  This is exact, since girth(H) is the minimum
    of the shortest cycle through r and girth(H - r), a vertex of degree at
    most 1 lies on no cycle, and every length a BFS reports closes a walk
    that contains a cycle of what remains.  On a bipartite graph with its
    left side numbered first, each deleted left root lowers the degrees of
    its right neighbors, so the right side has peeled away before its roots
    come up.  ``g`` itself is not modified.  For bipartite graphs the
    result is even.
    """
    best: int | float = INFINITE_GIRTH
    n = g.n_vertices
    adj = g._adj
    degree = [len(a) for a in adj]
    deleted = bytearray(n)
    dist = [-1] * n
    parent_edge = [-1] * n

    def peel(doomed: list[int]) -> None:
        """Delete the doomed vertices, dooming each neighbor whose remaining
        degree drops to 1."""
        while doomed:
            v = doomed.pop()
            if deleted[v]:
                continue
            deleted[v] = 1
            for w, _eid in adj[v]:
                if not deleted[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        doomed.append(w)

    peel([v for v in range(n) if degree[v] <= 1])
    for root in range(n):
        if deleted[root]:
            continue
        dist[root] = 0
        queue = [root]
        for u in queue:
            du = dist[u]
            # A cycle closed from depth du is at least 2 * du long, and the
            # queue's depths never fall, so once 2 * du >= best no later
            # vertex can improve `best`.
            if 2 * du >= best:
                break
            for w, eid in adj[u]:
                if eid == parent_edge[u] or deleted[w]:
                    continue
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent_edge[w] = eid
                    queue.append(w)
                else:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
        for u in queue:
            dist[u] = -1
            parent_edge[u] = -1
        peel([root])
    return best


def edge_windows(endpoints: Sequence[tuple[int, int]]) -> list[int]:
    """The window of each edge: its closed edge neighborhood as a bit mask.

    Bit j of the i-th mask is set when edges i and j (positions in
    ``endpoints``) share an endpoint, so bit i itself is set.  A window is a
    clique of the conflict graph, with 2k-1 bits in a k-regular graph.
    """
    incident: dict[int, int] = {}
    for i, (u, v) in enumerate(endpoints):
        incident[u] = incident.get(u, 0) | 1 << i
        incident[v] = incident.get(v, 0) | 1 << i
    return [incident[u] | incident[v] for u, v in endpoints]


class ConflictGraph:
    """The strong-coloring conflict structure of a graph.

    One node per live edge (in edge-id order), with ``endpoints[i]`` the
    edge's vertex pair; two nodes are adjacent exactly when the edges share
    an endpoint or some edge joins an endpoint of one to an endpoint of the
    other.  Strong edge-colorings of the source graph are precisely the
    proper vertex colorings of this graph.

    Adjacency is stored as one bit row per node (bit ``j`` of ``adj[i]`` set
    iff nodes i and j conflict); the solver's hot loop is bitwise
    intersection on these rows.  Instances are immutable values.
    """

    def __init__(
        self,
        endpoints: tuple[tuple[int, int], ...],
        adj: list[int],
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
    incident = [0] * g.n_vertices
    for i, (u, v) in enumerate(endpoints):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    adj: list[int] = []
    for i, (u, v) in enumerate(endpoints):
        # u and v are neighbors of each other, so this covers the edges
        # sharing an endpoint as well as those joined by an edge.
        mask = 0
        for w, _ in g._adj[u]:
            mask |= incident[w]
        for w, _ in g._adj[v]:
            mask |= incident[w]
        adj.append(mask & ~(1 << i))
    return ConflictGraph(endpoints, adj, tuple(a.bit_count() for a in adj))
