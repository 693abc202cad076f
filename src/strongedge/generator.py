"""Construction of k-regular bipartite graphs with girth at least g.

The build is inductive on the degree.  The base is a Hamiltonian cycle
x0 y0 x1 y1 ... x_{n-1} y_{n-1} on 2n vertices.  Each level lifts a
(k-1)-regular graph to a k-regular one by growing a set A of cross edges,
one unit per iteration: either add an edge between low-degree vertices at
distance >= g-1, or, when no such pair exists, remove one previously added
edge x_h y_h whose endpoints are far from the chosen low pair and add the
two edges x_l y_h and y_l x_h instead.  Both moves preserve girth >= g, and
above a parameter floor (:func:`min_n`) the swap edge is guaranteed to
exist by a counting argument, so construction cannot get stuck.

The distant pair is found from a ball around each low x tried.  Where
the balls are dense next to the graph (:func:`_dense_balls`, from n, k and
g alone), a level keeps per left vertex a mask of the right vertices
within 3 hops, so the step walks 2 layers less and ORs machine words;
elsewhere it walks the whole ball.  Both ways give the same pair and the
same draws.  The left vertices of the part walked are read straight from
the adjacency lists when they lie within 2 hops of x (always at g = 5 and
6, and at g = 7 and 8 on masks); otherwise a layered BFS finds them.

:func:`_build` validates its input once and owns the graph; each level
lifts it in place.  The girth is measured once per build, on the final
graph: by :func:`generate`, or by the counterexample pipeline's checks.
That bounds every level's girth too: a level swaps out only edges it added
itself, so each level's graph is a subgraph of the final one.

Every accepted step is recorded in a :class:`GeneratorTrace`, so the
output graph can be rebuilt from the base cycle one step at a time.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator, Sequence
from functools import reduce
from itertools import chain
from operator import or_
from typing import NamedTuple

from .errors import ConstructionFailedError, InternalInvariantError
from .graphs import MAX_VERTICES, BipartiteGraph, distances_from, girth


def min_n(k: int, g: int) -> int:
    """Smallest side size with a construction guarantee for degree k and
    girth target g: max(g, ceil(3 * (k-1)^(g-1) / (k-2))) when k >= 3, and
    g itself when k = 2.  Exact in integers at every size."""
    _check_params(k, g)
    if k == 2:
        return g
    return max(g, -(-3 * (k - 1) ** (g - 1) // (k - 2)))


def choose_n(k: int, g: int) -> int:
    """Smallest guaranteed side size n with 2k-1 not dividing n.

    Since gcd(k, 2k-1) = 1, this makes 2k-1 not divide the edge count kn
    either, which is what the counting certificate needs.
    """
    n = min_n(k, g)
    window = 2 * k - 1
    while n % window == 0:
        n += 1
    return n


def _check_params(k: int, g: int) -> None:
    if k < 2:
        raise ValueError(f"degree must be >= 2, got {k}")
    if g < 3:
        raise ValueError(f"girth target must be >= 3, got {g}")
    # a cycle of length g has g vertices, a k-regular graph more than k
    if k > MAX_VERTICES or g > MAX_VERTICES:
        raise ValueError(
            f"degree {k} and girth target {g} must not exceed the vertex cap {MAX_VERTICES}"
        )


def check_floor_fits(k: int, g: int) -> None:
    """Raise ``ValueError`` when min_n(k, g) is above the vertex cap, as told
    by bit lengths alone.

    For k >= 3, min_n(k, g) > (k-1)^(g-2) >= 2^(b * (g-2)) with b the index
    of the top bit of k-1.  Callers that build a graph at the floor call
    this first, so the floor's power, millions of digits long at the largest
    parameters, is computed only when it is small.  :func:`min_n` and
    :func:`choose_n` stay exact at every size.
    """
    if k >= 3 and ((k - 1).bit_length() - 1) * (g - 2) >= MAX_VERTICES.bit_length() - 1:
        raise ValueError(
            f"the guaranteed floor min_n({k}, {g}) exceeds the vertex cap {MAX_VERTICES}"
        )


def base_cycle(n: int) -> BipartiteGraph:
    """Hamiltonian cycle on 2n vertices, alternating sides; girth 2n.

    The edges go in through ``_insert``, which skips ``add_edge``'s range
    and side checks but still rejects a duplicate: each edge joins a left
    vertex below n to a right vertex n + i, so both ends are in range, on
    opposite sides, and stored left first."""
    if n < 2:
        raise ValueError(f"cycle half-length must be >= 2, got {n}")
    g = BipartiteGraph(n, n)
    for i in range(n):
        g._insert(i, n + i)
        g._insert((i + 1) % n, n + i)
    return g


class AddStep(NamedTuple):
    """Edge x_l y_l added between a distant low pair (global vertex ids)."""

    x: int
    y: int


class SwapStep(NamedTuple):
    """Removed x_h y_h and added x_l y_h plus y_l x_h (global vertex ids)."""

    x_high: int
    y_high: int
    x_low: int
    y_low: int

    @property
    def added(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.x_low, self.y_high), (self.y_low, self.x_high))


class GeneratorTrace(NamedTuple):
    """Reproducible log of one construction run.

    The line format is ``ADD x y`` / ``SWAP xh yh xl yl`` with 1-based
    vertex ids matching the DIMACS numbering, after a header recording the
    run parameters.
    """

    k: int
    g: int
    n: int
    seed: int
    steps: tuple = ()

    def to_text(self) -> str:
        lines = [f"# k={self.k} g={self.g} n={self.n} seed={self.seed}"]
        for s in self.steps:
            if isinstance(s, AddStep):
                lines.append(f"ADD {s.x + 1} {s.y + 1}")
            else:
                lines.append(
                    f"SWAP {s.x_high + 1} {s.y_high + 1} {s.x_low + 1} {s.y_low + 1}"
                )
        return "\n".join(lines) + "\n"


# Most left vertices a level keeps 3-hop masks for.  The masks of a level
# hold about n^2 / 4 bytes (two masks of n bits per left vertex), 4.3 MB
# here; the cubic girth-12 build (n = 6144) stays on the plain walk.
MASK_CAP = 4096


def _dense_balls(n: int, k: int, g: int) -> bool:
    """True when the low-pair step of a degree-k level on n left vertices
    runs on 3-hop masks.  A mask operation costs O(n/64) words, so masks
    pay where the ball, of radius r = (g-3) | 1, is large next to n: r >= 5
    and n <= 64 (k-1)^(r-1), the point past which a plain walk was measured
    faster at k = 3, r = 5.  At r = 3 the walk is as short as the mask
    step.  Above :data:`MASK_CAP` the masks would take too much memory."""
    r = (g - 3) | 1
    return r >= 5 and n <= MASK_CAP and n <= 64 * (k - 1) ** (r - 1)


def _mask(vertices, offset: int) -> int:
    """The integer with bit v - offset set for each v in ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - offset)
    return mask


class AugmentState:
    """Bookkeeping for one degree-raising level.

    ``added`` holds the edges of A as (left, right) pairs in a dict used
    as an ordered set; its order, the graph's edge order, is the sequence
    the seeded swap draw permutes.  ``x_low`` and ``y_low`` are sorted
    lists of the vertices of each side still at degree k-1 and satisfy
    |x_low| == |y_low| throughout.  Being sorted, they are the sequences
    the seeded draws run on, with no sort per step.  The set ``low_ys``
    mirrors ``y_low``.

    Where :func:`_dense_balls` holds, the level also keeps masks over the
    right side, bit y - n_left for right vertex y: ``rows[x]`` holds the
    neighbors of left vertex x, ``near3[x]`` the right vertices within 3
    hops of it, and ``low_mask`` mirrors ``y_low``; elsewhere ``near3`` is
    None.  Every query masks ``rows`` and ``near3`` with ``low_mask``, so
    only their bits of low ys are kept exact.  ``rows`` never change: a
    step's edges meet only y_l, which leaves the low set, and the high y_h.
    After set-up, every edge of the level goes in or out through
    :meth:`link`, which keeps ``low_mask`` exact and ``near3`` exact on the
    low ys.
    """

    def __init__(self, graph: BipartiteGraph, k: int, girth_target: int) -> None:
        self.graph, self.k, self.girth_target = graph, k, girth_target
        self.added: dict[tuple[int, int], None] = {}
        self.x_low: list[int] = []
        self.y_low: list[int] = []
        self.low_ys: set[int] = set()
        self.rows: list[int] = []
        self.near3: list[int] | None = None
        self.low_mask = 0

    @classmethod
    def from_graph(cls, graph: BipartiteGraph, k: int, girth_target: int) -> "AugmentState":
        state = cls(graph=graph, k=k, girth_target=girth_target)
        adj, n_left = graph._adj, graph.n_left
        for v in range(graph.n_vertices):
            d = len(adj[v])
            if d == k - 1:
                (state.x_low if v < n_left else state.y_low).append(v)
            elif d != k:
                raise ValueError(
                    f"vertex {v} has degree {d}; expected {k - 1} or {k}"
                )
        if len(state.x_low) != len(state.y_low):
            raise ValueError(
                f"unbalanced low sets: |x_low|={len(state.x_low)} "
                f"|y_low|={len(state.y_low)}"
            )
        state.low_ys.update(state.y_low)
        if _dense_balls(n_left, k, girth_target):
            state.rows = [_mask(adj[x], n_left) for x in range(n_left)]
            state.near3 = [state._near3_of(x) for x in range(n_left)]
            state.low_mask = _mask(state.y_low, n_left)
        return state

    def link(self, x_l: int, y_l: int, high: tuple[int, int] | None = None) -> None:
        """Raise the low pair (x_l, y_l) to degree k: add the edge x_l y_l,
        or, given an added edge ``high`` = (x_h, y_h), replace it by x_l y_h
        and x_h y_l.  Updates the graph, ``added``, the low sets and
        ``near3``, which :class:`AugmentState` keeps exact on the low ys;
        checks neither girth nor distance."""
        graph, added = self.graph, self.added
        if high is None:
            graph.add_edge(x_l, y_l)
            added[x_l, y_l] = None
        else:
            x_h, y_h = high
            graph.remove_edge(x_h, y_h)
            del added[x_h, y_h]
            graph.add_edge(x_l, y_h)
            graph.add_edge(y_l, x_h)
            added[x_l, y_h] = None
            added[x_h, y_l] = None
        self._raise_low(x_l, y_l)
        if self.near3 is None:
            return
        adj, rows, near3 = graph._adj, self.rows, self.near3
        if high is None:
            # a path of at most 3 hops from a left to a low y over the new
            # edge does not end at y_l, which is no longer low: it is
            # x_l y_l a y or a y_l x_l y, with a next to y_l
            for a in adj[y_l]:
                near3[x_l] |= rows[a]
                near3[a] |= rows[x_l]
        else:
            # a left whose path to a low y, of at most 3 hops, gains or loses
            # one of the swap's edges is next to y_h or y_l after the swap
            for a in {*adj[y_l], *adj[y_h]}:
                near3[a] = self._near3_of(a)

    def _near3_of(self, x: int) -> int:
        adj, rows = self.graph._adj, self.rows
        near = 0
        for b in adj[x]:
            for a in adj[b]:
                near |= rows[a]
        return near

    def _raise_low(self, x: int, y: int) -> None:
        xs, ys = self.x_low, self.y_low
        i, j = bisect_left(xs, x), bisect_left(ys, y)
        if i == len(xs) or j == len(ys) or xs[i] != x or ys[j] != y:
            raise InternalInvariantError(f"({x}, {y}) is not a pair of low vertices")
        del xs[i], ys[j]
        self.low_ys.remove(y)
        if self.near3 is not None:
            self.low_mask ^= 1 << (y - self.graph.n_left)


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from range(n): ``getrandbits`` of n's bit length, drawn
    again while the value is n or more.  ``ValueError`` for n < 1."""
    if n < 1:
        raise ValueError(f"cannot draw below {n}")
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


def _shuffled(rng: random.Random, items: Sequence) -> Iterator:
    """Yield ``items`` in uniformly random order, drawing each one only when
    it is asked for: a Fisher-Yates shuffle of a copy, run from the front.
    A caller that stops after t items has made t draws, not one per item,
    and one that stops after the first has not copied ``items`` either."""
    if items:
        j = _below(rng, len(items))
        yield items[j]
        pool = list(items)
        pool[0], pool[j] = pool[j], pool[0]
        for i in range(1, len(pool)):
            j = i + _below(rng, len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
            yield pool[i]


def _edge_keeps_girth(graph: BipartiteGraph, u: int, v: int, girth_target: int) -> bool:
    """True iff every cycle through edge ``{u, v}`` has length >= girth_target.

    A cycle through the edge closes a path between its endpoints avoiding
    it, so a single BFS from one endpoint that skips the edge and stops at
    depth girth_target - 2 decides the question exactly.
    """
    cutoff = girth_target - 2
    dist = {u: 0}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        da = dist[a]
        if da >= cutoff:
            continue
        for b in graph._adj[a]:
            if b in dist or (a == u and b == v):
                continue
            if b == v:
                return False
            dist[b] = da + 1
            queue.append(b)
    return True


def _ball_lefts(graph: BipartiteGraph, x: int, depth: int) -> list[int]:
    """The left vertices within ``depth`` hops of left vertex x, x first,
    by a layered BFS."""
    adj = graph._adj
    seen = bytearray(graph.n_vertices)
    seen[x] = 1
    layer = [x]
    lefts = [x]
    for d in range(1, depth + 1):
        reached = []
        for u in layer:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    reached.append(w)
        if not d & 1:
            lefts += reached
        layer = reached
    return lefts


def _far_y(ys: list[int], near: int, n_left: int, i: int) -> int:
    """The i-th y of the sorted ``ys`` (from 0) whose bit y - n_left is not
    set in ``near``, where ``near`` holds bits of ys only.  A binary search
    on the index j, by the count of near ys up to ys[j]: the answer lies
    between ys[i] and ys[i + |near|]."""
    lo, hi = i, i + near.bit_count()
    while lo < hi:
        mid = (lo + hi) >> 1
        if mid - (near & ((2 << (ys[mid] - n_left)) - 1)).bit_count() >= i:
            hi = mid
        else:
            lo = mid + 1
    return ys[lo]


def find_distant_low_pair(state: AugmentState, rng: random.Random) -> tuple[int, int] | None:
    """Some low pair (x_l, y_l) at distance >= g-1, or None if none exists.

    Low xs are tried in a seeded random order, each drawn only when it is
    tried, so a step whose first x hits draws no other x.  For each x_l the
    near low ys are those within its ball of radius r = (g-3) | 1, and a
    uniformly random low y outside the ball is taken with one draw below
    their number, in the sorted order of ``y_low``.  Any vertex not reached
    within g-2 hops is at distance >= g-1, which is exactly the admission
    threshold.  r is the largest odd depth <= g-2: the graph is bipartite,
    so every y lies at odd distance from x, and when g-2 is even no y lies
    at depth g-2.

    The ball is found one of two ways, with the same pair and the same
    draws.  Without masks, the near low ys are ``state.low_ys`` met with
    the neighbors of the left vertices within r-1 hops of x, in one C-level
    pass; the drawn index is mapped to a y by walking the sorted near ones.
    With masks (``state.near3``), the ball is the union of the ``near3``
    masks of the left vertices within r-3 hops: a y at distance d <= r lies
    within 3 hops of the left vertex at distance max(0, d-3) on a shortest
    path.  The near low ys are that union met with ``low_mask``, and the
    drawn index is mapped to a y by a binary search on their bit counts.

    Left vertices within 2 hops, at r = 3 without masks and r = 5 with
    them, are read straight from the adjacency lists: they are the ends a
    of the 2-paths x b a.  Every b leads back to x, so x is among them, and
    ends repeat; a set intersection and an OR do not change with repeats.
    At girth >= 5 the 2-hop ball is a tree, so x is the only repeat.  At
    any other depth the lefts come from :func:`_ball_lefts`, a layered BFS
    that reaches each vertex once.
    """
    graph = state.graph
    adj, near3, ys = graph._adj, state.near3, state.y_low
    radius = (state.girth_target - 3) | 1
    depth = radius - 1 if near3 is None else radius - 3
    for x in _shuffled(rng, state.x_low):
        if near3 is None:
            if depth == 2:
                # the right neighbors of the ends a of the 2-paths x b a
                reached = [y for b in adj[x] for a in adj[b] for y in adj[a]]
            else:
                reached = chain.from_iterable(map(adj.__getitem__, _ball_lefts(graph, x, depth)))
            near = sorted(state.low_ys.intersection(reached))
            free = len(ys) - len(near)
        else:
            if depth == 2:
                near = 0
                for b in adj[x]:
                    for a in adj[b]:
                        near |= near3[a]
            else:
                near = reduce(or_, map(near3.__getitem__, _ball_lefts(graph, x, depth)))
            near &= state.low_mask
            free = len(ys) - near.bit_count()
        if free:
            i = _below(rng, free)
            if near3 is not None:
                return x, _far_y(ys, near, graph.n_left, i)
            # the i-th low y outside the ball: each near y at or below the
            # current guess pushes it one place up the sorted ys
            for y in near:
                if y > ys[i]:
                    break
                i += 1
            return x, ys[i]
    return None


def find_swap_edge(
    state: AugmentState, x_l: int, y_l: int, rng: random.Random
) -> tuple[int, int]:
    """An added edge (x_h, y_h) with all four distances to {x_l, y_l} at
    least g-1: the first one in a seeded random order of ``state.added``,
    each edge drawn only when it is tried.

    Above the parameter floor such an edge always exists once no distant
    low pair does (the added edges outnumber the ones close to the low
    pair), so failure to find one raises
    :class:`InternalInvariantError`.
    """
    if not state.added:
        raise InternalInvariantError("swap requested with no added edges")
    dist = distances_from(state.graph, [x_l, y_l], state.girth_target - 2)
    for x_h, y_h in _shuffled(rng, tuple(state.added)):
        if dist[x_h] < 0 and dist[y_h] < 0:
            return x_h, y_h
    raise InternalInvariantError(
        f"no swap edge among {len(state.added)} added edges is distant from "
        f"({x_l}, {y_l}); the counting guarantee was violated"
    )


def apply_swap(state: AugmentState, x_l: int, y_l: int, x_h: int, y_h: int) -> None:
    """Replace edge x_h y_h by x_l y_h and y_l x_h.

    Grows the added set by one net edge, raises the degrees of x_l and y_l
    to k while leaving x_h and y_h untouched, and re-checks that both new
    edges keep the girth at the target.
    """
    graph = state.graph
    if (x_h, y_h) not in state.added:
        raise ValueError(f"({x_h}, {y_h}) is not a currently added edge")
    state.link(x_l, y_l, (x_h, y_h))
    if not _edge_keeps_girth(graph, x_l, y_h, state.girth_target) or not _edge_keeps_girth(
        graph, x_h, y_l, state.girth_target
    ):
        raise InternalInvariantError(
            f"girth dropped below {state.girth_target} after swapping out "
            f"({x_h}, {y_h}) for ({x_l}, {y_h}) and ({y_l}, {x_h})"
        )
    if graph.degree(x_h) != state.k or graph.degree(y_h) != state.k:
        raise InternalInvariantError(f"swap changed the degree of ({x_h}, {y_h})")


def _raise_degree(graph: BipartiteGraph, k: int, girth_target: int, rng: random.Random) -> list:
    """Lift the (k-1)-regular ``graph`` in place to k-regular, and return
    the steps.  Each step re-checks the girth around the edges it adds; the
    level measures no girth itself.  Its input has girth >= girth_target
    (the base cycle has 2n >= g, and later inputs are subgraphs of the
    final graph, whose girth the caller of :func:`_build` measures)."""
    state = AugmentState.from_graph(graph, k, girth_target)
    steps: list = []
    while state.x_low:
        pair = find_distant_low_pair(state, rng)
        if pair is not None:
            x_l, y_l = pair
            state.link(x_l, y_l)
            steps.append(AddStep(x_l, y_l))
        else:
            x_l = state.x_low[_below(rng, len(state.x_low))]
            y_l = state.y_low[_below(rng, len(state.y_low))]
            x_h, y_h = find_swap_edge(state, x_l, y_l, rng)
            apply_swap(state, x_l, y_l, x_h, y_h)
            steps.append(SwapStep(x_h, y_h, x_l, y_l))

    if len(state.added) != graph.n_left:
        raise InternalInvariantError(
            f"level finished with {len(state.added)} added edges, expected {graph.n_left}"
        )
    return steps


def _build(
    k: int, g: int, n: int, seed: int = 0, *, force: bool = False
) -> tuple[BipartiteGraph, GeneratorTrace]:
    """:func:`generate` without its girth check, which is left to the
    caller, and without its mapping of failures under ``force``."""
    _check_params(k, g)
    if not force:
        check_floor_fits(k, g)
        floor = min_n(k, g)
        if n < floor:
            raise ValueError(
                f"n={n} is below the guaranteed floor min_n({k}, {g})={floor}; "
                f"pass force to try anyway"
            )
    if n < 2 or k > n or 2 * n < g:
        raise ValueError(f"no simple {k}-regular bipartite graph of girth {g} fits n={n}")

    rng = random.Random(seed)
    graph = base_cycle(n)
    steps: list = []
    for level in range(3, k + 1):
        steps.extend(_raise_degree(graph, level, g, rng))
    return graph, GeneratorTrace(k=k, g=g, n=n, seed=seed, steps=tuple(steps))


def generate(
    k: int, g: int, n: int, seed: int = 0, *, force: bool = False
) -> tuple[BipartiteGraph, GeneratorTrace]:
    """Build a k-regular bipartite graph on 2n vertices with girth >= g.

    A pure function of its arguments: the same inputs give an identical
    graph and trace on every run.  ``n`` below :func:`min_n` is rejected
    unless ``force`` is set, in which case an unlucky construction raises
    :class:`ConstructionFailedError` instead of being guaranteed.  The
    girth of the finished graph is measured once, here.
    """
    try:
        graph, trace = _build(k, g, n, seed, force=force)
        if k >= 3 and girth(graph) < g:
            raise InternalInvariantError("final girth check failed after augmentation")
    except InternalInvariantError as exc:
        if force:
            raise ConstructionFailedError(
                f"construction failed for n={n} below the guaranteed floor "
                f"min_n({k}, {g}); retry with a different seed"
            ) from exc
        raise
    return graph, trace
