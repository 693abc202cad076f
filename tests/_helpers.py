"""Shared builders and independent reference oracles for the test suite.

The oracles here deliberately use different algorithms from the library
(edge-based girth instead of vertex-based, quadratic conflict predicate
instead of neighbor rows) so cross-checks are meaningful.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import deque
from pathlib import Path

import strongedge
from strongedge import BipartiteGraph, SimpleGraph, StrongColoring, verify
from strongedge.solver import EXHAUSTED, FOUND, TIMEOUT, SearchResult


def cycle_graph(n: int) -> SimpleGraph:
    g = SimpleGraph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def path_graph(n_vertices: int) -> SimpleGraph:
    g = SimpleGraph(n_vertices)
    for i in range(n_vertices - 1):
        g.add_edge(i, i + 1)
    return g


def star_graph(leaves: int) -> SimpleGraph:
    g = SimpleGraph(leaves + 1)
    for i in range(leaves):
        g.add_edge(0, i + 1)
    return g


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    g = BipartiteGraph(a, b)
    for x in range(a):
        for y in range(b):
            g.add_edge(x, a + y)
    return g


def bipartite_cycle(n: int) -> BipartiteGraph:
    """C_{2n} built directly as an n+n bipartition."""
    g = BipartiteGraph(n, n)
    for i in range(n):
        g.add_edge(i, n + i)
        g.add_edge((i + 1) % n, n + i)
    return g


def heawood_graph() -> BipartiteGraph:
    """The unique cubic girth-6 graph on 14 vertices (difference set {0,1,3})."""
    g = BipartiteGraph(7, 7)
    for i in range(7):
        for d in (0, 1, 3):
            g.add_edge(i, 7 + (i + d) % 7)
    return g


def petersen_graph() -> SimpleGraph:
    """Outer 5-cycle, inner pentagram, five spokes: cubic, girth 5."""
    g = SimpleGraph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(5 + i, 5 + (i + 2) % 5)
        g.add_edge(i, 5 + i)
    return g


def random_simple_graph(rng: random.Random, max_vertices: int = 10, max_edges: int = 14) -> SimpleGraph:
    n = rng.randint(2, max_vertices)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = SimpleGraph(n)
    for u, v in pairs[: rng.randint(0, min(max_edges, len(pairs)))]:
        g.add_edge(u, v)
    return g


def first_fit(cg, order) -> StrongColoring:
    """Reference coloring: each node in ``order`` takes the lowest color no
    conflict neighbor has yet.  Gives colorings unlike the saturation greedy."""
    colors = [0] * cg.n_nodes
    for v in order:
        taken = {colors[w] for w in cg.adj[v]}
        colors[v] = min(c for c in range(1, len(taken) + 2) if c not in taken)
    return StrongColoring(colors)


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m strongedge`` subprocess: the inherited
    one with ``PYTHONPATH`` set to the ``src/`` directory the tests import
    from, so the child runs the package under test whether or not it is
    installed."""
    return {**os.environ, "PYTHONPATH": str(Path(strongedge.__file__).parents[1])}


def brute_girth(g: SimpleGraph) -> int | float:
    """Reference girth: min over edges of 1 + shortest path avoiding it."""
    best: int | float = math.inf
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue:
            a = queue.popleft()
            if a == v:
                break
            for b in g.neighbors(a):
                if (a, b) != (u, v) and b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def conflicts_by_definition(g: SimpleGraph, e: int, f: int) -> bool:
    """Direct check that edges e and f (positions in ``g.edges()``) share an
    endpoint, or some edge joins them."""
    if e == f:
        return False
    edges = g.edges()
    (a, b), (c, d) = edges[e], edges[f]
    if {a, b} & {c, d}:
        return True
    for u, v in edges:
        if {u, v} <= {a, b} | {c, d} and len({u, v} & {a, b}) == 1:
            return True
    return False


def scan_decision_search(cg, palette, special_cap, budget) -> SearchResult:
    """Reference decision search that picks each node by an O(m) scan.

    The same search tree as ``strongedge.solver._decision_search`` (same
    picks, tie rules, dead-end test and one node charged per descent, with
    the clock read every 256 nodes), but every pick rescans all uncolored
    nodes for the fewest available colors, ties by higher conflict degree,
    then lower index.  Tests compare the production search's status,
    coloring and node count against it.
    """
    m = cg.n_nodes
    start_nodes = nodes = budget.nodes
    if m == 0:
        return SearchResult(FOUND, StrongColoring([], verified=True), 0)
    if palette <= 0:
        return SearchResult(EXHAUSTED, None, 0)

    regular = palette if special_cap is None else palette - 1
    special_bit = 0 if special_cap is None else 1 << (palette - 1)
    adj = cg.adj
    degrees = cg.degrees
    colors = [0] * m
    forbid = [0] * m
    used = 0
    special_left = special_cap or 0
    stack: list[list] = []
    status = FOUND

    while len(stack) < m:
        nodes += 1
        if (budget.node_limit is not None and nodes > budget.node_limit) or (
            budget.deadline is not None
            and nodes % 256 == 0
            and time.monotonic() > budget.deadline
        ):
            status = TIMEOUT
            break
        legal = (1 << min(used + 1, regular)) - 1
        if special_left > 0:
            legal |= special_bit
        best_v = -1
        best_cnt = palette + 1
        for v in range(m):
            if colors[v]:
                continue
            cnt = (legal & ~forbid[v]).bit_count()
            if cnt == 0:
                best_v = -1
                break
            if cnt < best_cnt or (cnt == best_cnt and degrees[v] > degrees[best_v]):
                best_v, best_cnt = v, cnt
        if best_v >= 0:
            stack.append([best_v, legal & ~forbid[best_v], [], used, special_left])

        while stack:
            v, untried, touched, used, special_left = frame = stack[-1]
            for w in touched:
                forbid[w] ^= 1 << (colors[v] - 1)
            colors[v] = 0
            if untried:
                break
            stack.pop()
        else:
            status = EXHAUSTED
            break

        bit = untried & -untried
        c = bit.bit_length()
        colors[v] = c
        if bit == special_bit:
            special_left -= 1
        elif c == used + 1:
            used += 1
        touched = []
        for w in adj[v]:
            if not colors[w] and not forbid[w] & bit:
                forbid[w] |= bit
                touched.append(w)
        frame[1] = untried ^ bit
        frame[2] = touched

    budget.nodes = nodes
    spent = nodes - start_nodes
    if status == FOUND:
        phi = StrongColoring(colors)
        if not verify(cg, phi):
            raise AssertionError("reference search produced an invalid coloring")
        return SearchResult(FOUND, phi, spent)
    return SearchResult(status, None, spent)
