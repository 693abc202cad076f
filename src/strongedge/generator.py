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

:func:`generate` validates its input once and owns the graph; each level
lifts it in place, and the girth is measured once per build, on the final
graph.  That bounds every level's girth too: a level swaps out only edges
it added itself, so each level's graph is a subgraph of the final one.

Every accepted step is recorded in a :class:`GeneratorTrace`; replaying a
trace from the base cycle reproduces the output graph exactly and re-checks
the girth invariant after every step.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

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


def base_cycle(n: int) -> BipartiteGraph:
    """Hamiltonian cycle on 2n vertices, alternating sides; girth 2n."""
    if n < 2:
        raise ValueError(f"cycle half-length must be >= 2, got {n}")
    g = BipartiteGraph(n, n)
    for i in range(n):
        g.add_edge(i, n + i)
        g.add_edge((i + 1) % n, n + i)
    return g


@dataclass(frozen=True)
class AddStep:
    """Edge x_l y_l added between a distant low pair (global vertex ids)."""

    x: int
    y: int


@dataclass(frozen=True)
class SwapStep:
    """Removed x_h y_h and added x_l y_h plus y_l x_h (global vertex ids)."""

    x_high: int
    y_high: int
    x_low: int
    y_low: int

    @property
    def added(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.x_low, self.y_high), (self.y_low, self.x_high))


@dataclass(frozen=True)
class GeneratorTrace:
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


@dataclass
class AugmentState:
    """Bookkeeping for one degree-raising level.

    ``added`` holds the edges of A as (left, right) pairs in a dict used
    as an ordered set; its order, the graph's edge order, is the sequence
    the seeded swap draw shuffles.  ``x_low`` and ``y_low`` are sorted
    lists of the vertices of each side still at degree k-1 and satisfy
    |x_low| == |y_low| throughout.  Being sorted, they are the sequences
    the seeded draws run on, with no sort per step.
    """

    graph: BipartiteGraph
    k: int
    girth_target: int
    added: dict[tuple[int, int], None] = field(default_factory=dict)
    x_low: list[int] = field(default_factory=list)
    y_low: list[int] = field(default_factory=list)

    @classmethod
    def from_graph(cls, graph: BipartiteGraph, k: int, girth_target: int) -> "AugmentState":
        state = cls(graph=graph, k=k, girth_target=girth_target)
        for v in range(graph.n_vertices):
            d = graph.degree(v)
            if d == k - 1:
                (state.x_low if graph.is_left(v) else state.y_low).append(v)
            elif d != k:
                raise ValueError(
                    f"vertex {v} has degree {d}; expected {k - 1} or {k}"
                )
        if len(state.x_low) != len(state.y_low):
            raise ValueError(
                f"unbalanced low sets: |x_low|={len(state.x_low)} "
                f"|y_low|={len(state.y_low)}"
            )
        return state

    def _raise_low(self, x: int, y: int) -> None:
        i, j = bisect_left(self.x_low, x), bisect_left(self.y_low, y)
        if self.x_low[i : i + 1] != [x] or self.y_low[j : j + 1] != [y]:
            raise InternalInvariantError(f"({x}, {y}) is not a pair of low vertices")
        del self.x_low[i], self.y_low[j]


def _shuffle(rng: random.Random, xs: list) -> None:
    """Shuffle ``xs`` in place with exactly the draws and swaps of
    ``random.Random.shuffle``.

    That is a Fisher-Yates shuffle (Knuth's Algorithm P) whose draw below n
    takes ``getrandbits(n.bit_length())`` until the value is below n.  Here
    the draw is inlined and the bit count is set once per power-of-two band
    of n, so the generator state after the call is the same as after the
    library shuffle; a test holds the two to the same lists and states.
    """
    getrandbits = rng.getrandbits
    top = len(xs) - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            xs[i], xs[j] = xs[j], xs[i]
        top = bottom - 1


def _edge_keeps_girth(graph: BipartiteGraph, u: int, v: int, girth_target: int) -> bool:
    """True iff every cycle through edge ``{u, v}`` has length >= girth_target.

    A cycle through the edge closes a path between its endpoints avoiding
    it, so a single BFS from one endpoint that skips the edge and stops at
    depth girth_target - 2 decides the question exactly.
    """
    cutoff = girth_target - 2
    if cutoff < 1:
        return True
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


def find_distant_low_pair(state: AugmentState, rng: random.Random) -> tuple[int, int] | None:
    """Some low pair (x_l, y_l) at distance >= g-1, or None if none exists.

    Low vertices are tried in seeded-random order.  For each x_l a layered
    BFS walks its ball, of radius (g-3) | 1, and collects the low ys it
    reaches; a uniformly random low y outside the ball is then taken with
    one draw below their number, mapped to the y by walking the sorted near
    ones.  The step touches the ball, not every low y.  Any vertex not
    reached within g-2 hops is at distance >= g-1, which is exactly the
    admission threshold.  The radius is the largest odd depth <= g-2: the
    graph is bipartite, so every y lies at odd distance from x, and when
    g-2 is even the last layer holds only left vertices and keeps no y out.
    Within a level a vertex is low exactly when its degree is below k.
    """
    adj = state.graph._adj
    n_vertices = state.graph.n_vertices
    k = state.k
    xs = state.x_low.copy()
    _shuffle(rng, xs)
    ys = state.y_low
    radius = (state.girth_target - 3) | 1
    for x in xs:
        seen = bytearray(n_vertices)
        seen[x] = 1
        layer = [x]
        near: list[int] = []
        for depth in range(1, radius + 1):
            reached = []
            for u in layer:
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = 1
                        reached.append(w)
            if depth & 1:
                near += [y for y in reached if len(adj[y]) < k]
            layer = reached
        free = len(ys) - len(near)
        if free:
            # the i-th low y outside the ball: each near y at or below the
            # current guess pushes it one place up the sorted ys
            i = rng.choice(range(free))
            near.sort()
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
    least g-1, drawn by shuffling ``state.added`` in its order.

    Above the parameter floor such an edge always exists once no distant
    low pair does (the added edges outnumber the ones close to the low
    pair), so failure to find one raises
    :class:`InternalInvariantError`.
    """
    if not state.added:
        raise InternalInvariantError("swap requested with no added edges")
    dist = distances_from(state.graph, [x_l, y_l], state.girth_target - 2)
    candidates = list(state.added)
    _shuffle(rng, candidates)
    for x_h, y_h in candidates:
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
    graph.remove_edge(x_h, y_h)
    del state.added[x_h, y_h]
    graph.add_edge(x_l, y_h)
    graph.add_edge(y_l, x_h)
    state.added[x_l, y_h] = None
    state.added[x_h, y_l] = None
    if not _edge_keeps_girth(graph, x_l, y_h, state.girth_target) or not _edge_keeps_girth(
        graph, x_h, y_l, state.girth_target
    ):
        raise InternalInvariantError(
            f"girth dropped below {state.girth_target} after swapping out "
            f"({x_h}, {y_h}) for ({x_l}, {y_h}) and ({y_l}, {x_h})"
        )
    state._raise_low(x_l, y_l)
    if graph.degree(x_h) != state.k or graph.degree(y_h) != state.k:
        raise InternalInvariantError(f"swap changed the degree of ({x_h}, {y_h})")


def _raise_degree(graph: BipartiteGraph, k: int, girth_target: int, rng: random.Random) -> list:
    """Lift the (k-1)-regular ``graph`` in place to k-regular, and return
    the steps.  Each step re-checks the girth around the edges it adds; the
    level measures no girth itself.  Its input has girth >= girth_target
    (the base cycle has 2n >= g, and later inputs are subgraphs of the
    final graph, whose girth :func:`generate` measures)."""
    state = AugmentState.from_graph(graph, k, girth_target)
    steps: list = []
    while state.x_low:
        pair = find_distant_low_pair(state, rng)
        if pair is not None:
            x_l, y_l = pair
            graph.add_edge(x_l, y_l)
            state.added[x_l, y_l] = None
            state._raise_low(x_l, y_l)
            steps.append(AddStep(x_l, y_l))
        else:
            x_l = rng.choice(state.x_low)
            y_l = rng.choice(state.y_low)
            x_h, y_h = find_swap_edge(state, x_l, y_l, rng)
            apply_swap(state, x_l, y_l, x_h, y_h)
            steps.append(SwapStep(x_h, y_h, x_l, y_l))

    if len(state.added) != graph.n_left:
        raise InternalInvariantError(
            f"level finished with {len(state.added)} added edges, expected {graph.n_left}"
        )
    return steps


def generate(
    k: int, g: int, n: int, seed: int = 0, *, force: bool = False
) -> tuple[BipartiteGraph, GeneratorTrace]:
    """Build a k-regular bipartite graph on 2n vertices with girth >= g.

    A pure function of its arguments: the same inputs give an identical
    graph and trace on every run.  ``n`` below :func:`min_n` is rejected
    unless ``force`` is set, in which case an unlucky construction raises
    :class:`ConstructionFailedError` instead of being guaranteed.  The
    arguments are validated here, once; the levels 3..k then lift the base
    cycle in place, and the girth of the finished graph is measured once.
    """
    _check_params(k, g)
    floor = min_n(k, g)
    if not force and n < floor:
        raise ValueError(
            f"n={n} is below the guaranteed floor min_n({k}, {g})={floor}; "
            f"pass force to try anyway"
        )
    if n < 2 or k > n or 2 * n < g:
        raise ValueError(f"no simple {k}-regular bipartite graph of girth {g} fits n={n}")

    rng = random.Random(seed)
    graph = base_cycle(n)
    steps: list = []
    try:
        for level in range(3, k + 1):
            steps.extend(_raise_degree(graph, level, g, rng))
        if k >= 3 and girth(graph) < g:
            raise InternalInvariantError("final girth check failed after augmentation")
    except InternalInvariantError as exc:
        if force:
            raise ConstructionFailedError(
                f"construction failed for n={n} below the guaranteed floor "
                f"{floor}; retry with a different seed"
            ) from exc
        raise
    return graph, GeneratorTrace(k=k, g=g, n=n, seed=seed, steps=tuple(steps))


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
            if not graph.has_edge(step.x_high, step.y_high):
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
