"""Exact and heuristic strong edge-coloring on conflict graphs.

Everything here operates on a :class:`ConflictGraph`, so arbitrary simple
graphs are in scope, not only bipartite ones.  The decision engine is a
backtracking search that always branches on the uncolored node with the
fewest available colors (ties broken by most conflicts, then lowest index)
and breaks color symmetry canonically: a fresh color may only be introduced
as the next unused id (DSATUR, Brélaz 1979).  Two kernels walk that same
tree.  The bucket kernel keeps the uncolored nodes in saturation buckets,
each node stored as a number that sorts it by most conflicts and then by
lowest index, so the pick is ``min`` of the highest non-empty bucket; a
step costs time in proportion to the neighbors it touches, not to the edge
count.  The mask kernel keeps each saturation level as an m-bit mask over
the nodes in pick order (bit-set DSATUR, as in San Segundo's PASS, 2012),
so the pick is the lowest bit of the highest non-empty level and a step
costs a few mask operations per level.  The search runs on masks when an
m-bit mask spans no more 64-bit words than the largest conflict degree, and
on buckets otherwise.  Both run on an explicit stack, so the depth is
bounded by memory, not by the interpreter's recursion limit.  The
saturation greedy is that tree's first descent with one color per edge,
run by its own loop on the bucket layout.  All searches are deterministic;
budgets are wall-clock with a node-count alternative for reproducible CI.
"""

from __future__ import annotations

import math
import sys
import time
from typing import NamedTuple

from .errors import InternalInvariantError
from .graphs import ConflictGraph, edge_windows

FOUND = "found"
EXHAUSTED = "none"
TIMEOUT = "timeout"

_CLOCK_CHECK_INTERVAL = 256


class StrongColoring:
    """Assignment of 1-based color ids to edges, in conflict-node order.

    ``verified`` is only ever set by :func:`verify`.
    """

    def __init__(self, colors: list[int], verified: bool = False) -> None:
        self.colors = colors
        self.verified = verified

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.colors, self.verified) == (other.colors, other.verified)

    def __repr__(self) -> str:
        return f"StrongColoring(colors={self.colors!r}, verified={self.verified!r})"

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


class SearchResult(NamedTuple):
    """Outcome of one coloring decision problem."""

    status: str  # FOUND | EXHAUSTED | TIMEOUT
    coloring: StrongColoring | None
    nodes: int


class SolveOutcome(NamedTuple):
    status: str  # "exact" | "upper-bound-only"
    chi_s: int | None
    coloring: StrongColoring | None
    lower_bound: int
    upper_bound: int
    nodes: int


class MinLastUsageResult(NamedTuple):
    status: str  # "exact" | "best-found" | "infeasible"
    usage: int | None
    coloring: StrongColoring | None
    nodes: int


def budget_limits(budget_ms: int | None, node_budget: int | None) -> tuple[float | None, float]:
    """The deadline and the node limit a search budget sets from now.

    A negative budget is invalid (``ValueError``).  An unset node budget is
    no limit, ``math.inf``.  An unset wall-clock budget, or one above the
    largest float, whose deadline a float cannot hold, is no deadline,
    ``None``: no clock check could reach it.
    """
    for name, value in (("budget_ms", budget_ms), ("node_budget", node_budget)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    no_deadline = budget_ms is None or budget_ms > sys.float_info.max
    deadline = None if no_deadline else time.monotonic() + budget_ms / 1000.0
    return deadline, math.inf if node_budget is None else node_budget


class _Budget:
    """Shared node/wall-clock budget threaded through nested searches.

    ``nodes`` counts the search nodes of every search that shares the
    budget.  A search charges one node per descent and runs out when
    ``nodes`` passes ``node_limit``, or when the clock is past ``deadline``
    at a clock check, made every 256 nodes of that count.

    :func:`budget_limits` sets both limits: ``node_limit`` is ``math.inf``
    with no node budget, and ``deadline`` is ``None`` with no wall-clock
    budget or one too large for a float deadline.  A budget of 0 runs out
    at once: a node budget before the first node, a wall-clock budget at the
    first clock check.
    """

    def __init__(self, budget_ms: int | None = None, node_budget: int | None = None):
        self.deadline, self.node_limit = budget_limits(budget_ms, node_budget)
        self.nodes = 0


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
    colors = phi.colors
    phi.verified = False
    for c, row in zip(colors, cg.adj):
        for w in row:
            if colors[w] == c:
                return False
    phi.verified = True
    return True


def greedy_color(cg: ConflictGraph) -> StrongColoring:
    """Saturation greedy first-fit coloring; always valid, an upper bound on
    chi'_s.

    Colors next the node with the most distinct neighbor colors, ties by
    conflict degree then lowest index, giving it the lowest free color: the
    search's first descent with one color per edge, which never backs up,
    run on the bucket kernel's layout with no stack, undo state or budget.
    """
    m, adj = cg.n_nodes, cg.adj
    entry, key, buckets = _saturation_buckets(cg.degrees, m)
    forbid = [0] * m  # -1 once colored, so every bit test passes over it
    colors = [0] * m
    top = 0  # after a pick's touches, at most one above the highest key
    for _ in range(m):
        while not buckets[top]:
            top -= 1
        buckets[top].remove(e := min(buckets[top]))
        v = e % m
        f = forbid[v]
        bit = ~f & (f + 1)  # the lowest zero bit
        colors[v] = bit.bit_length()
        forbid[v] = -1
        for w in adj[v]:
            if not forbid[w] & bit:
                forbid[w] |= bit
                k = key[w]
                buckets[k].remove(e := entry[w])
                key[w] = k = k + 1
                buckets[k].add(e)
        top += 1
    phi = StrongColoring(colors)
    if not verify(cg, phi):
        raise InternalInvariantError("greedy produced an invalid coloring")
    return phi


def _saturation_buckets(degrees, palette: int) -> tuple[list[int], list[int], list[set[int]]]:
    """:func:`_bucket_kernel`'s entries, keys and buckets before a pick."""
    m, max_degree = len(degrees), max(degrees, default=0)
    entry = [(max_degree - d) * m + v for v, d in enumerate(degrees)]
    buckets = [set(entry)] + [set() for _ in range(min(palette, max_degree) + 1)]
    return entry, [0] * m, buckets


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

    Two kernels walk the same tree, with the same picks, dead ends, node
    count and clock reads, so the outcome does not depend on which runs.
    The mask kernel runs when an m-bit mask spans no more 64-bit words than
    the largest conflict degree, so that an operation on a mask handles no
    more words than a bucket step has neighbors to touch; otherwise the
    bucket kernel runs.
    """
    narrow = -(-cg.n_nodes // 64) <= max(cg.degrees, default=0)
    kernel = _mask_kernel if narrow else _bucket_kernel
    return _search_with(kernel, cg, palette, special_cap, budget)


def _search_with(kernel, cg: ConflictGraph, palette: int, special_cap: int | None,
                 budget: _Budget) -> SearchResult:
    """Run ``kernel`` unless the graph or the palette is empty, and verify
    any coloring it finds."""
    start_nodes = budget.nodes
    if cg.n_nodes == 0:
        return SearchResult(FOUND, StrongColoring([], verified=True), 0)
    if palette <= 0:
        return SearchResult(EXHAUSTED, None, 0)
    if special_cap is None:
        # m nodes take at most m colors, so a larger palette is the same
        # search.  A capped search keeps its palette: the public API runs
        # one only when the probe used color 2k, so 2k <= m already.
        palette = min(palette, cg.n_nodes)
    status, colors = kernel(cg, palette, special_cap, budget)
    spent = budget.nodes - start_nodes
    if status == FOUND:
        phi = StrongColoring(colors)
        if not verify(cg, phi):
            raise InternalInvariantError("search produced an invalid coloring")
        return SearchResult(FOUND, phi, spent)
    return SearchResult(status, None, spent)


def _bucket_kernel(cg: ConflictGraph, palette: int, special_cap: int | None,
                   budget: _Budget) -> tuple[str, list[int]]:
    """The decision search on saturation buckets; returns the status and
    the colors, read only when the status is ``found``.

    Each step picks the node to color from saturation buckets kept up to
    date as colors are set and undone.  A bucket holds each node as the
    entry (highest conflict degree - its conflict degree) * m + index, so
    ``min`` of the highest non-empty bucket is the node with the fewest
    colors left, then the most conflicts, then the lowest index.  A node on
    the stack carries the forbid mask -1, so a single bit test passes over
    it; its frame keeps the real mask until it is popped.  A step costs
    time in proportion to the neighbors it touches and to the size of that
    bucket, not to m or the palette.  Only the special color running out or
    coming back on undo re-keys in one pass over the nodes.  Nodes are
    counted in a local and written back to ``budget.nodes`` when the search
    stops.
    """
    m = cg.n_nodes
    nodes, node_limit, deadline = budget.nodes, budget.node_limit, budget.deadline
    regular = palette if special_cap is None else palette - 1
    full = (1 << regular) - 1
    special_bit = 0 if special_cap is None else 1 << (palette - 1)
    adj = cg.adj
    colors = [0] * m
    forbid = [0] * m
    used = 0
    special_left = special_cap or 0
    # Saturation buckets: each uncolored node v off the stack sits in
    # buckets[key[v]] as entry[v], key[v] = |forbid[v] & legal|, so the
    # fewest available colors is the highest key.  forbid[v] holds only
    # colors in use, and legal grows only by the next fresh color, which no
    # node forbids, so keys move only when a forbid bit is set or cleared,
    # or when the special color leaves or rejoins legal.  A node on the
    # stack keeps the key it had when picked, valid again once it is popped.
    # `top` is an upper bound on the highest non-empty key: a touch raises
    # keys by one, so `top` rises by one after a touch that moved a node,
    # into the spare empty level on top, and the pick's walk-down lowers
    # it.  A back-up never lowers `top` and starts at a dead end, where
    # `top` is at least the legal count.  A node it pops goes back under
    # the key it had at its pick, which was below its legal count then;
    # below that pick `used` only grew and the special color left legal at
    # most once, so the key is at most the dead end's legal count and a pop
    # never needs to raise `top`.  When all conflict degrees are equal,
    # entry[v] == v.
    entry, key, buckets = _saturation_buckets(cg.degrees, palette)
    top = 0

    def rekey_special_neighbors() -> None:
        # The special color just left or rejoined legal.
        nonlocal top
        mask = ~special_bit if special_left == 0 else -1
        for w in range(m):
            f = forbid[w]
            if f & special_bit and f != -1:
                k = (f & mask).bit_count()
                buckets[key[w]].remove(entry[w])
                buckets[k].add(entry[w])
                key[w] = k
                if k > top:
                    top = k

    # One frame per node on the stack, colored at the top of the loop:
    # [node, untried colors, neighbors whose forbid bit its color newly
    # set, used and special_left before its color, its forbid mask].
    stack: list[list] = []
    status = FOUND

    while len(stack) < m:
        # One node per loop; the clock is read every 256 nodes.
        nodes += 1
        if nodes > node_limit or (
            deadline is not None
            and nodes % _CLOCK_CHECK_INTERVAL == 0
            and time.monotonic() > deadline
        ):
            status = TIMEOUT
            break
        legal = (2 << used) - 1 if used < regular else full
        if special_left > 0:
            legal |= special_bit
        # A node with no color left is a sound dead end: the next fresh
        # color is never forbidden, so it only happens once the palette is
        # truly exhausted for that node.
        while not buckets[top]:
            top -= 1
        if top < legal.bit_count():
            bucket = buckets[top]
            e = min(bucket)
            bucket.remove(e)
            v = e % m
            untried = legal & ~forbid[v]
            stack.append(frame := [v, untried, None, used, special_left, forbid[v]])
            forbid[v] = -1
        else:
            # Back up to the deepest frame with an untried color, popping
            # the frames above it; a popped node's stale color is unread.
            while stack:
                v, untried, touched, used, left_before, saved = frame = stack[-1]
                bit = 1 << (colors[v] - 1)
                if bit == special_bit and not special_left:
                    # the special color comes back: re-key with it counted,
                    # then undo this frame's touches as for any color
                    special_left = left_before
                    rekey_special_neighbors()
                for w in touched:
                    forbid[w] ^= bit
                    e = entry[w]
                    k = key[w]
                    buckets[k].remove(e)
                    k -= 1
                    buckets[k].add(e)
                    key[w] = k
                special_left = left_before
                if untried:
                    break
                stack.pop()
                forbid[v] = saved
                buckets[key[v]].add(entry[v])
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
            if not forbid[w] & bit:
                forbid[w] |= bit
                touched.append(w)
                e = entry[w]
                k = key[w]
                buckets[k].remove(e)
                k += 1
                buckets[k].add(e)
                key[w] = k
        if touched:
            top += 1
        if bit == special_bit and not special_left:
            # the special color ran out: the keys counted it, so re-key
            rekey_special_neighbors()
        frame[1] = untried ^ bit
        frame[2] = touched

    budget.nodes = nodes
    return status, colors


def _mask_kernel(cg: ConflictGraph, palette: int, special_cap: int | None,
                 budget: _Budget) -> tuple[str, list[int]]:
    """The decision search on m-bit masks (bit-set DSATUR); the same tree
    and return value as :func:`_bucket_kernel`.

    Nodes are renumbered in pick order (most conflicts, then lowest index),
    so bit p stands for the p-th node of that order.  F[i] holds the nodes
    next to a node of color i + 1.  R[0] holds the uncolored nodes, and
    R[j] the nodes with at least j regular colors forbidden; a node keeps
    the levels it had when it was picked, and every read masks it out with
    R[0].  Coloring a node with a regular color costs one mask operation
    per level its new constraints nv reach, R[j] |= R[j-1] & nv, whatever
    its degree.  The special color is counted at pick time: with
    it legal, R[j] | (R[j-1] & F[special]) holds the nodes with at least j
    colors forbidden, so nothing re-keys when it runs out or comes back.
    The pick is the lowest set bit of the highest non-empty level, so
    exactly `top` of its legal colors are forbidden.  A pick scans from
    color 0 to its first free color: a regular color in use, else the fresh
    color `used` while one is left, else the special color, whose index is
    `regular`.  Its frame keeps the color's index and the count of free
    colors left untried, and a back-up resumes the scan one color on, or at
    the special color after the fresh one.  A frame also keeps R as it was
    before its node's color, the mask that color's F held, and the
    counters, so undo restores them without touching a node.
    """
    m = cg.n_nodes
    nodes, node_limit, deadline = budget.nodes, budget.node_limit, budget.deadline
    special = regular = palette if special_cap is None else palette - 1
    degrees = cg.degrees
    order = sorted(range(m), key=lambda v: (-degrees[v], v))
    position = [0] * m
    for p, v in enumerate(order):
        position[v] = p
    nbr = [sum([1 << position[w] for w in cg.adj[v]]) for v in order]
    F = [0] * palette
    # A key is at most min(palette, max degree) = L and `top` at most L + 1
    # after a touch, so R[L + 1] is always empty: it is what R[top - 1]
    # reads at top = 0.
    R = [(1 << m) - 1] + [0] * (min(palette, max(degrees)) + 1)
    used = 0
    special_left = special_cap or 0
    top = 0  # an upper bound on the highest non-empty level
    # One frame per colored node: (its bit, its color index, the free colors
    # after it left untried, R before its color, used, special_left and top
    # before it, the mask F held for that color before it).
    stack: list[tuple] = []
    status = FOUND

    while len(stack) < m:
        # One node per loop; the clock is read every 256 nodes.
        nodes += 1
        if nodes > node_limit or (
            deadline is not None
            and nodes % _CLOCK_CHECK_INTERVAL == 0
            and time.monotonic() > deadline
        ):
            status = TIMEOUT
            break
        legal = used + 1 if used < regular else regular  # how many colors are legal
        if special_left > 0:
            legal += 1
            f = F[special]
            while not (level := (R[top] | R[top - 1] & f) & R[0]):
                top -= 1
        else:
            while not (level := R[top] & R[0]):
                top -= 1
        if top < legal:
            b = level & -level
            left = legal - top  # free colors from i on
            i = 0
            R[0] ^= b
        else:
            # Back up to the deepest frame with an untried color; each pop
            # puts back the state from before that frame's color.
            while stack:
                b, i, left, R, used, special_left, top, old = stack.pop()
                F[i] = old
                if left:
                    i = special if i == used else i + 1
                    break
            else:
                status = EXHAUSTED
                break

        # Stops at the next free color: one is left, and F[used] == 0 if fresh.
        while F[i] & b:
            i += 1
        old = F[i]
        stack.append((b, i, left - 1, R, used, special_left, top, old))
        R = R[:]
        F[i] = new = old | nbr[b.bit_length() - 1]
        nv = (new ^ old) & R[0]
        if i == special:
            special_left -= 1
            if nv and special_left > 0:
                top += 1
        else:
            if i == used:
                used += 1
            if nv:
                j = 1
                lift = nv
                while lift:  # the nodes of nv at level j - 1 or above
                    above = R[j]
                    R[j] = above | lift
                    lift = above & nv
                    j += 1
                top += 1

    budget.nodes = nodes
    colors = [0] * m
    if status == FOUND:
        for frame in stack:
            colors[order[frame[0].bit_length() - 1]] = frame[1] + 1
    return status, colors


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
    adj, degrees = cg.adj, cg.degrees
    best = 0
    for i, window in enumerate(edge_windows(cg.endpoints)):
        # adj[i] holds the rest of the window, and each row leaves out its
        # own node, so no window node survives the intersection.
        cand = set(adj[i]).intersection(*[adj[j] for j in window if j != i])
        size = len(window)
        while cand:
            pick = max(cand, key=lambda j: (degrees[j], -j))
            size += 1
            cand.intersection_update(adj[pick])
        best = max(best, size)
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
    best-known bounds instead of an exact value.  ``lower_bound`` comes from
    the clique bound and the search alone, never from the counting
    certificate, so it can sit below what the certificate proves: on a cubic
    counterexample, where the certificate proves 6, a search that runs out of
    budget reports ``lower_bound`` 5.
    """
    budget = _Budget(budget_ms, node_budget)
    lower = _clique_lower_bound(cg)
    best = greedy_color(cg)
    upper = best.n_colors
    # every count below c lies under the clique bound or was refuted
    for c in range(lower, upper):
        res = _decision_search(cg, c, None, budget)
        if res.status == FOUND:
            return SolveOutcome("exact", c, res.coloring, c, c, budget.nodes)
        if res.status == TIMEOUT:
            return SolveOutcome("upper-bound-only", None, best, c, upper, budget.nodes)
    return SolveOutcome("exact", upper, best, upper, upper, budget.nodes)


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
    """Swap color labels so the least-used class sits on ``palette``; when
    it already does, the swap maps every color to itself."""
    sizes = phi.class_sizes()
    if palette not in sizes:
        return phi
    smallest = min(sizes, key=lambda c: (sizes[c], -c))
    swapped = [
        smallest if c == palette else palette if c == smallest else c
        for c in phi.colors
    ]
    return StrongColoring(swapped, verified=phi.verified)
