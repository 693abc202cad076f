"""Exact and heuristic strong edge-coloring on conflict graphs.

Everything here operates on a :class:`ConflictGraph`, so arbitrary simple
graphs are in scope, not only bipartite ones.  The decision engine is a
backtracking search that always branches on the uncolored node with the
fewest available colors (ties broken by conflict degree, then index) and
breaks color symmetry canonically: a fresh color may only be introduced as
the next unused id.  It keeps the uncolored nodes in saturation buckets
(DSATUR, Brélaz 1979), so a step costs time in proportion to the neighbors
it touches, not to the edge count.  It runs on an explicit stack, so its
depth is bounded by memory, not by the interpreter's recursion limit.  The
saturation greedy is its first descent with a palette of one color per
edge.  All searches are deterministic; budgets are wall-clock with a
node-count alternative for reproducible CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InternalInvariantError
from .graphs import ConflictGraph, edge_windows, iter_bits

FOUND = "found"
EXHAUSTED = "none"
TIMEOUT = "timeout"

BRUTE_FORCE_EDGE_CAP = 14

_CLOCK_CHECK_INTERVAL = 256


@dataclass
class StrongColoring:
    """Assignment of 1-based color ids to edges, in conflict-node order.

    ``verified`` is only ever set by :func:`verify`.
    """

    colors: list[int]
    verified: bool = False

    @property
    def n_colors(self) -> int:
        return max(self.colors, default=0)

    def usage(self, color: int) -> int:
        return sum(1 for c in self.colors if c == color)

    def class_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for c in self.colors:
            sizes[c] = sizes.get(c, 0) + 1
        return sizes


@dataclass
class SearchResult:
    """Outcome of one coloring decision problem."""

    status: str  # FOUND | EXHAUSTED | TIMEOUT
    coloring: StrongColoring | None
    nodes: int


@dataclass
class SolveOutcome:
    status: str  # "exact" | "upper-bound-only"
    chi_s: int | None
    coloring: StrongColoring | None
    lower_bound: int
    upper_bound: int
    nodes: int


@dataclass
class MinLastUsageResult:
    status: str  # "exact" | "best-found" | "infeasible"
    usage: int | None
    coloring: StrongColoring | None
    nodes: int


class _Budget:
    """Shared node/wall-clock budget threaded through nested searches.

    A negative budget is invalid (``ValueError``).  A budget of 0 runs out
    at once: a node budget before the first node, a wall-clock budget at the
    first clock check.
    """

    def __init__(self, budget_ms: int | None = None, node_budget: int | None = None):
        for name, value in (("budget_ms", budget_ms), ("node_budget", node_budget)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.node_limit = node_budget
        self.nodes = 0

    def spend(self) -> bool:
        """Charge one search node; True when the budget is exhausted."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            return True
        if (
            self.deadline is not None
            and self.nodes % _CLOCK_CHECK_INTERVAL == 0
            and time.monotonic() > self.deadline
        ):
            return True
        return False


def verify(cg: ConflictGraph, phi: StrongColoring) -> bool:
    """True iff ``phi`` assigns distinct colors to every conflicting pair.

    Every edge must carry a positive color; a length mismatch raises
    ``ValueError``.  Sets ``phi.verified`` to the outcome.
    """
    if len(phi.colors) != cg.n_nodes:
        raise ValueError(
            f"coloring covers {len(phi.colors)} edges, graph has {cg.n_nodes}"
        )
    if any(c < 1 for c in phi.colors):
        raise ValueError("every edge must be assigned a color >= 1")
    by_color: dict[int, int] = {}
    for i, c in enumerate(phi.colors):
        by_color[c] = by_color.get(c, 0) | (1 << i)
    ok = True
    for i, c in enumerate(phi.colors):
        if cg.adj[i] & by_color[c] & ~(1 << i):
            ok = False
            break
    phi.verified = ok
    return ok


def greedy_color(cg: ConflictGraph) -> StrongColoring:
    """Saturation greedy first-fit coloring; always valid, an upper bound on
    chi'_s.

    Colors next the node with the most distinct neighbor colors, ties by
    conflict degree then lowest index, giving it the lowest free color.
    This is the decision search's first descent with one color per edge
    available: a fresh color is always free, so it never backtracks, and
    fewest available colors means most distinct neighbor colors.
    """
    return _decision_search(cg, cg.n_nodes, None, _Budget()).coloring


def _decision_search(
    cg: ConflictGraph,
    palette: int,
    special_cap: int | None,
    budget: _Budget,
) -> SearchResult:
    """Find a proper coloring with colors 1..palette, or prove none exists.

    When ``special_cap`` is given, the highest color id ``palette`` is
    exempt from canonical introduction but may be used on at most
    ``special_cap`` nodes; colors 1..palette-1 stay interchangeable and are
    introduced in first-use order.  The special color occupies the highest
    bit, so ascending-bit enumeration tries it last.

    Each step picks the node to color from saturation buckets kept up to
    date as colors are set and undone, so a step costs time in proportion
    to the neighbors it touches and to the size of the highest bucket, not
    to m.  Only the special color running out or coming back on undo
    re-keys in one pass over the nodes.
    """
    m = cg.n_nodes
    start_nodes = budget.nodes
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
    # Saturation buckets: each uncolored node v off the stack sits in
    # buckets[key[v]], key[v] = |forbid[v] & legal|, so the fewest available
    # colors is the highest key.  forbid[v] holds only colors in use, and
    # legal grows only by the next fresh color, which no node forbids, so
    # keys move only when a forbid bit is set or cleared, or when the
    # special color leaves or rejoins legal.  `top` is at least the highest
    # non-empty key.
    key = [0] * m
    buckets: list[set[int]] = [set() for _ in range(min(palette, max(degrees)) + 1)]
    buckets[0].update(range(m))
    top = 0

    def rekey(w: int) -> None:
        nonlocal top
        k = (forbid[w] & ~special_bit if special_left == 0 else forbid[w]).bit_count()
        buckets[key[w]].discard(w)
        buckets[k].add(w)
        key[w] = k
        top = max(top, k)

    def rekey_special_neighbors() -> None:
        # The special color just left or rejoined legal.
        for w in range(m):
            if not colors[w] and forbid[w] & special_bit:
                rekey(w)

    # One frame per colored node: [node, untried colors, neighbors whose
    # forbid bit it newly set, used and special_left before its color].
    stack: list[list] = []
    status = FOUND

    while len(stack) < m:
        if budget.spend():  # one node per descent
            status = TIMEOUT
            break
        legal = (1 << min(used + 1, regular)) - 1
        if special_left > 0:
            legal |= special_bit
        # Most-constrained node first, ties by conflict degree, then index.
        # A key equal to |legal| (no color left) is a sound dead end: the
        # next fresh color is never forbidden, so it only happens once the
        # palette is truly exhausted for that node.
        while not buckets[top]:
            top -= 1
        if top < legal.bit_count():
            v = max(buckets[top], key=lambda w: (degrees[w], -w))
            buckets[top].remove(v)
            stack.append([v, legal & ~forbid[v], [], used, special_left])

        # Back up to the deepest frame with an untried color, uncoloring the
        # frames above it; a frame just pushed stops this at once.
        while stack:
            v, untried, touched, used, left_before = frame = stack[-1]
            if colors[v]:
                bit = 1 << (colors[v] - 1)
                counted = bit != special_bit or special_left > 0
                for w in touched:
                    forbid[w] ^= bit
                    if counted:
                        k = key[w]
                        buckets[k].remove(w)
                        buckets[k - 1].add(w)
                        key[w] = k - 1
                special_left = left_before
                if not counted:
                    rekey_special_neighbors()
                colors[v] = 0
            if untried:
                break
            stack.pop()
            rekey(v)
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
        counted = bit != special_bit or special_left > 0
        touched = []
        for w in iter_bits(adj[v]):
            if not colors[w] and not forbid[w] & bit:
                forbid[w] |= bit
                touched.append(w)
                if counted:
                    k = key[w] + 1
                    buckets[k - 1].remove(w)
                    buckets[k].add(w)
                    key[w] = k
                    if k > top:
                        top = k
        if not counted:
            rekey_special_neighbors()
        frame[1] = untried ^ bit
        frame[2] = touched

    spent = budget.nodes - start_nodes
    if status == FOUND:
        phi = StrongColoring(colors)
        if not verify(cg, phi):
            raise InternalInvariantError("search produced an invalid coloring")
        return SearchResult(FOUND, phi, spent)
    return SearchResult(status, None, spent)


def find_coloring(
    cg: ConflictGraph,
    c: int,
    *,
    budget_ms: int | None = None,
    node_budget: int | None = None,
) -> SearchResult:
    """Decision problem: a valid coloring with at most ``c`` colors, a proof
    that none exists (status ``none``), or a timeout signal."""
    if c < 0:
        raise ValueError(f"color budget must be >= 0, got {c}")
    budget = _Budget(budget_ms, node_budget)
    return _decision_search(cg, c, None, budget)


def _clique_lower_bound(cg: ConflictGraph) -> int:
    """Size of a large clique found greedily.

    Each node's window, its closed edge neighborhood, is a clique (size
    2k-1 in a k-regular graph); every one is used as a seed and extended
    greedily by common neighbors, highest conflict degree first.
    """
    best = 0
    for clique in edge_windows(cg.endpoints):
        cand = ~0
        for j in iter_bits(clique):
            cand &= cg.adj[j]
        cand &= ~clique
        while cand:
            pick = max(iter_bits(cand), key=lambda j: (cg.degrees[j], -j))
            clique |= 1 << pick
            cand &= cg.adj[pick]
        best = max(best, clique.bit_count())
    return best


def exact_chi_s(
    cg: ConflictGraph,
    *,
    budget_ms: int | None = None,
    node_budget: int | None = None,
) -> SolveOutcome:
    """Exact strong chromatic index by branch and bound.

    Seeds the lower bound with a greedy clique extension of the best closed
    edge neighborhood, takes the saturation-greedy coloring as the upper
    bound, then settles each color count in between by exhaustive decision
    search, ascending.  On budget exhaustion the outcome carries the
    best-known bounds instead of an exact value.
    """
    budget = _Budget(budget_ms, node_budget)
    lower = _clique_lower_bound(cg)
    best = greedy_color(cg)
    upper = best.n_colors
    chi: int | None = upper if upper == lower else None

    if chi is None:
        for c in range(lower, upper):
            res = _decision_search(cg, c, None, budget)
            if res.status == FOUND:
                chi, best = c, res.coloring
                break
            if res.status == TIMEOUT:
                break
            lower = c + 1  # exhausted search: c colors proven infeasible
        else:
            chi = upper  # every count below the greedy bound was refuted

    if chi is not None:
        return SolveOutcome("exact", chi, best, chi, chi, budget.nodes)
    return SolveOutcome("upper-bound-only", None, best, lower, upper, budget.nodes)


def brute_force_chi_s(cg: ConflictGraph) -> int:
    """Reference oracle: exact chi'_s by exhaustive search.

    Enumerates canonical colorings (color labels in first-occurrence order)
    over the nodes in static index order, deepening the color budget one at
    a time.  No branching heuristics, bounds, or cliques are shared with
    :func:`exact_chi_s`.  Capped at |E| <= 14.
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
        banned = 0
        for w in iter_bits(adj[i]):
            if colors[w]:
                banned |= 1 << (colors[w] - 1)
        for c in range(1, min(used + 1, cap) + 1):
            if banned >> (c - 1) & 1:
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


def min_last_color_usage(
    cg: ConflictGraph,
    k: int,
    *,
    budget_ms: int | None = None,
    node_budget: int | None = None,
) -> MinLastUsageResult:
    """Minimize how often color 2k appears among strong colorings with
    colors 1..2k.

    Solved as a sequence of decision problems with the usage cap t = 0, 1,
    2, ... ascending, so the first feasible cap is exact by construction.
    ``infeasible`` means no 2k-coloring exists at all, which is reported
    distinctly.  On budget exhaustion the best coloring found so far is
    returned with status ``best-found``.
    """
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    palette = 2 * k
    budget = _Budget(budget_ms, node_budget)
    probe = _decision_search(cg, palette, None, budget)
    if probe.status == EXHAUSTED:
        return MinLastUsageResult("infeasible", None, None, budget.nodes)
    if probe.status == TIMEOUT:
        return MinLastUsageResult("best-found", None, None, budget.nodes)

    best = _relabel_minimizing_last(probe.coloring, palette)
    best_usage = best.usage(palette)
    if best_usage == 0:
        return MinLastUsageResult("exact", 0, best, budget.nodes)

    for t in range(best_usage):
        res = _decision_search(cg, palette, t, budget)
        if res.status == FOUND:
            usage = res.coloring.usage(palette)
            if usage != t:
                raise InternalInvariantError(
                    f"usage {usage} found under cap {t}; caps below {t} were already refuted"
                )
            return MinLastUsageResult("exact", usage, res.coloring, budget.nodes)
        if res.status == TIMEOUT:
            return MinLastUsageResult("best-found", best_usage, best, budget.nodes)
    # Every cap below the probe's usage was refuted, so the probe is optimal.
    return MinLastUsageResult("exact", best_usage, best, budget.nodes)


def _relabel_minimizing_last(phi: StrongColoring, palette: int) -> StrongColoring:
    """Swap color labels so the least-used class sits on ``palette``."""
    sizes = phi.class_sizes()
    if palette not in sizes:
        return phi
    smallest = min(sizes, key=lambda c: (sizes[c], -c))
    if smallest == palette:
        return phi
    swapped = [
        smallest if c == palette else palette if c == smallest else c
        for c in phi.colors
    ]
    return StrongColoring(swapped, verified=phi.verified)
