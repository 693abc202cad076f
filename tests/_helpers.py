"""Shared builders and independent reference oracles for the test suite.

Every oracle the tests compare the library against lives here, none in the
package.  They deliberately use different algorithms from the library
(edge-based girth instead of vertex-based, quadratic conflict predicate
instead of neighbor rows, a scan of every low vertex instead of a walk of
one ball, plain enumeration instead of the decision search, per-vertex
counts instead of edge windows) so cross-checks are meaningful.  The trace
replay and the graph consistency check re-derive what the generator and
the graph type keep up to date incrementally.  The reference build runs
the generator's levels on those scans, with the package's draws or with
the earlier ones that older golden digests pin.
"""

from __future__ import annotations

import gc
import math
import os
import random
import time
import tracemalloc
from collections import deque
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import strongedge
from strongedge import (
    AddStep,
    AugmentState,
    BipartiteGraph,
    ConstructionFailedError,
    GeneratorTrace,
    InternalInvariantError,
    SimpleGraph,
    StrongColoring,
    SwapStep,
    apply_swap,
    base_cycle,
    distances_from,
    girth,
    verify,
)
from strongedge.generator import _edge_keeps_girth
from strongedge.solver import EXHAUSTED, FOUND, TIMEOUT, SearchResult

BRUTE_FORCE_EDGE_CAP = 14


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


def traced(fn: Callable, *args):
    """``fn(*args)``, the bytes it held once it returned and the most it held
    at once, by tracemalloc.  ``gc.collect()`` on either side also empties
    the interpreter's free lists, so every object the call makes counts
    toward the peak and none that died counts as held."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held, peak


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


def has_edge(graph: SimpleGraph, u: int, v: int) -> bool:
    """True iff ``graph`` stores the edge {u, v}, looked up under the
    graph's key for it, its endpoints low first."""
    return ((u, v) if u < v else (v, u)) in graph._edges


def check_consistent(g: SimpleGraph) -> None:
    """Raise :class:`InternalInvariantError` naming the first mismatch
    unless the adjacency lists hold exactly the edges."""
    for u, v in g._edges.values():
        if v not in g._adj[u] or u not in g._adj[v]:
            raise InternalInvariantError(f"edge ({u}, {v}) missing from the adjacency lists")
    if sum(len(a) for a in g._adj) != 2 * len(g._edges):
        raise InternalInvariantError("adjacency lists and edge count disagree")


def window_hits(g: SimpleGraph, colors: list[int], color: int) -> list[int]:
    """For each edge, in ``g.edges()`` order, how many edges of its window
    (the edges sharing an endpoint with it, and itself) carry ``color``.

    In a k-regular graph each edge lies in 2k-1 windows, so the hits sum to
    (2k-1) times the class size (the window identity); a strong coloring
    has at most one hit per window, since each window is a clique of the
    conflict graph.
    """
    at = [0] * g.n_vertices
    for (u, v), c in zip(g.edges(), colors):
        if c == color:
            at[u] += 1
            at[v] += 1
    return [at[u] + at[v] - (c == color) for (u, v), c in zip(g.edges(), colors)]


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


def below(rng: random.Random, n: int) -> int:
    """Reference draw of a uniform integer in [0, n): take n's bit length of
    random bits, and take them again while the value is n or more.  Raises
    ``ValueError`` for n < 1, where no value could be accepted."""
    if n < 1:
        raise ValueError(f"cannot draw below {n}")
    while True:
        value = rng.getrandbits(n.bit_length())
        if value < n:
            return value


def front_run(rng: random.Random, items) -> Iterator:
    """Reference lazy shuffle: a Fisher-Yates shuffle of a copy of ``items``
    run from the front, with one :func:`below` draw for each item asked for."""
    pool = list(items)
    for i in range(len(pool)):
        j = i + below(rng, len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
        yield pool[i]


def _library_order(rng: random.Random, items) -> list:
    pool = list(items)
    rng.shuffle(pool)
    return pool


class Draws(NamedTuple):
    """How a build turns the generator into choices: ``order(rng, items)``
    gives the order in which to try items, ``pick(rng, seq)`` one item."""

    order: Callable
    pick: Callable


# the draws of the package's generator
FRONT_RUN = Draws(front_run, lambda rng, seq: seq[below(rng, len(seq))])
# the draws the generator made before it drew each item only when tried:
# a library shuffle of every sequence it tries, a library choice for a pick
LEGACY = Draws(_library_order, random.Random.choice)


def scan_distant_low_pair(state, rng: random.Random, draws: Draws = FRONT_RUN) -> tuple[int, int] | None:
    """Reference low-pair step that scans every low y for each tried x.

    The same step as ``strongedge.generator.find_distant_low_pair`` (the low
    xs in ``draws.order``, for each the ys at distance above (g-3) | 1, one
    ``draws.pick`` among them), but with a full distance list per x and the
    candidate list built by testing every low y.  Tests compare the
    production step's pair and generator state against it.
    """
    cutoff = (state.girth_target - 3) | 1
    for x in draws.order(rng, state.x_low):
        dist = distances_from(state.graph, [x], cutoff)
        candidates = [y for y in state.y_low if dist[y] < 0]
        if candidates:
            return x, draws.pick(rng, candidates)
    return None


def scan_swap_edge(state, x_l: int, y_l: int, rng: random.Random, draws: Draws) -> tuple[int, int]:
    """Reference swap-edge step: the first added edge in ``draws.order``
    whose endpoints are both at distance >= g-1 from the low pair."""
    dist = distances_from(state.graph, [x_l, y_l], state.girth_target - 2)
    for x_h, y_h in draws.order(rng, state.added):
        if dist[x_h] < 0 and dist[y_h] < 0:
            return x_h, y_h
    raise InternalInvariantError(f"no added edge is distant from ({x_l}, {y_l})")


def reference_generate(
    k: int, g: int, n: int, seed: int = 0, *, force: bool = False, draws: Draws = FRONT_RUN
) -> tuple[BipartiteGraph, GeneratorTrace]:
    """Reference build: the levels 3..k of ``strongedge.generate`` from the
    base cycle with the reference steps above, the package's
    :class:`AugmentState` (edges go in through its ``link``) and
    :func:`apply_swap`, and one final girth check.
    Takes no input checks; give it parameters ``generate`` accepts."""
    rng = random.Random(seed)
    graph = base_cycle(n)
    steps: list = []
    try:
        for level in range(3, k + 1):
            state = AugmentState.from_graph(graph, level, g)
            while state.x_low:
                pair = scan_distant_low_pair(state, rng, draws)
                if pair is not None:
                    x_l, y_l = pair
                    state.link(x_l, y_l)
                    steps.append(AddStep(x_l, y_l))
                else:
                    x_l = draws.pick(rng, state.x_low)
                    y_l = draws.pick(rng, state.y_low)
                    x_h, y_h = scan_swap_edge(state, x_l, y_l, rng, draws)
                    apply_swap(state, x_l, y_l, x_h, y_h)
                    steps.append(SwapStep(x_h, y_h, x_l, y_l))
        if k >= 3 and girth(graph) < g:
            raise InternalInvariantError("final girth check failed")
    except InternalInvariantError as exc:
        if force:
            raise ConstructionFailedError(f"reference build failed for n={n}") from exc
        raise
    return graph, GeneratorTrace(k=k, g=g, n=n, seed=seed, steps=tuple(steps))


def legacy_generate(k: int, g: int, n: int, seed: int = 0, *, force: bool = False):
    """The build with the draws ``generate`` made before it drew each low x
    only when tried: the reference the older golden digests pin."""
    return reference_generate(k, g, n, seed, force=force, draws=LEGACY)


def replay_trace(trace: GeneratorTrace) -> BipartiteGraph:
    """Re-apply a trace from the base cycle, re-checking every step.

    Checks after each step that the maximum degree stays at most k and
    that every newly added edge lies on no cycle shorter than g, raising
    :class:`InternalInvariantError` on the first violation; combined with
    the base cycle's girth this certifies girth >= g at every intermediate
    state.  Returns the reconstructed graph.
    """
    graph = base_cycle(trace.n)
    if 2 * trace.n < trace.g:
        raise InternalInvariantError("base cycle shorter than the girth target")
    for idx, step in enumerate(trace.steps):
        if isinstance(step, AddStep):
            new_edges = ((step.x, step.y),)
        else:
            if not has_edge(graph, step.x_high, step.y_high):
                raise InternalInvariantError(
                    f"step {idx}: swap removes missing edge "
                    f"({step.x_high}, {step.y_high})"
                )
            graph.remove_edge(step.x_high, step.y_high)
            new_edges = step.added
        for u, v in new_edges:
            graph.add_edge(u, v)
        for u, v in new_edges:
            if not _edge_keeps_girth(graph, u, v, trace.g):
                raise InternalInvariantError(
                    f"step {idx}: girth dropped below {trace.g}"
                )
            if graph.degree(u) > trace.k or graph.degree(v) > trace.k:
                raise InternalInvariantError(f"step {idx}: degree exceeds {trace.k}")
    if not graph.is_regular(trace.k):
        raise InternalInvariantError("replayed graph is not k-regular")
    if girth(graph) < trace.g:
        raise InternalInvariantError("replayed graph has girth below the target")
    return graph


def brute_force_chi_s(cg) -> int:
    """Reference oracle: exact chi'_s by exhaustive search.

    Enumerates canonical colorings (color labels in first-occurrence order)
    over the nodes in static index order, deepening the color budget one at
    a time.  No branching heuristics, bounds, or cliques are shared with
    :func:`strongedge.exact_chi_s`.  Capped at |E| <= 14.
    """
    m = cg.n_nodes
    if m > BRUTE_FORCE_EDGE_CAP:
        raise ValueError(
            f"brute force is capped at {BRUTE_FORCE_EDGE_CAP} edges, got {m}"
        )
    if m == 0:
        return 0
    adj = cg.adj
    colors = [0] * m

    def feasible(i: int, used: int, cap: int) -> bool:
        if i == m:
            return True
        banned = {colors[w] for w in adj[i]}
        for c in range(1, min(used + 1, cap) + 1):
            if c in banned:
                continue
            colors[i] = c
            if feasible(i + 1, max(used, c), cap):
                colors[i] = 0
                return True
            colors[i] = 0
        return False

    for cap in range(1, m + 1):
        if feasible(0, 0, cap):
            return cap
    raise InternalInvariantError("m distinct colors always suffice")
