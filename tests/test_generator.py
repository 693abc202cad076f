import ast
import gc
import inspect
import itertools
import random
import re
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import compress
from operator import or_

import pytest

from strongedge import (
    AddStep,
    AugmentState,
    BipartiteGraph,
    ConstructionFailedError,
    GeneratorTrace,
    InternalInvariantError,
    SwapStep,
    apply_swap,
    base_cycle,
    choose_n,
    distances_from,
    find_distant_low_pair,
    find_swap_edge,
    generate,
    girth,
    min_n,
    serialize_dimacs,
)
import strongedge.generator
from strongedge.generator import MASK_CAP, _below, _dense_balls, _far_y, _raise_degree, _shuffled
from strongedge.graphs import MAX_VERTICES
from _helpers import (
    below,
    front_run,
    has_edge,
    reference_generate,
    replay_trace,
    scan_distant_low_pair,
    swap_added,
)


def apply_prefix(trace, t):
    """Re-apply the first t steps of a trace to a fresh base cycle."""
    graph = base_cycle(trace.n)
    for step in trace.steps[:t]:
        if isinstance(step, AddStep):
            pairs = [(step.x, step.y)]
        else:
            graph.remove_edge(step.x_high, step.y_high)
            pairs = list(swap_added(step))
        for u, v in pairs:
            graph.add_edge(u, v)
    return graph


class TestParameterFloors:
    def test_min_n_values(self):
        assert min_n(3, 5) == 48  # max(5, ceil(3*16/1))
        assert min_n(2, 7) == 7
        assert min_n(4, 4) == 41  # max(4, ceil(3*27/2))

    def test_min_n_g_floor_dominates_for_small_cases(self):
        assert min_n(3, 3) == max(3, 12)
        assert min_n(2, 3) == 3

    def test_min_n_invalid_arguments(self):
        with pytest.raises(ValueError):
            min_n(1, 5)
        with pytest.raises(ValueError):
            min_n(3, 2)

    def test_min_n_is_exact_beyond_float_range(self):
        # float division returned one less from here on, and overflowed
        # from min_n(3, 1024)
        assert min_n(4, 34) == (3**34 + 1) // 2
        assert min_n(6, 25) == 44703483581542969
        assert min_n(3, 2000) == 3 * 2**1999

    @pytest.mark.parametrize("k, g", [(3, MAX_VERTICES + 1), (MAX_VERTICES + 1, 5), (3, 10**12)])
    def test_degree_or_girth_above_the_vertex_cap_rejected(self, k, g):
        with pytest.raises(ValueError, match="vertex cap"):
            min_n(k, g)
        with pytest.raises(ValueError, match="vertex cap"):
            generate(k, g, 10, force=True)

    def test_choose_n_values(self):
        assert choose_n(3, 5) == 48  # 48 mod 5 = 3
        assert choose_n(2, 6) == 7  # skips 6, divisible by 3
        assert choose_n(3, 7) == 192  # 192 mod 5 = 2

    def test_choose_n_avoids_window_divisibility_of_edge_count(self):
        for k in (2, 3, 4):
            for g in (3, 4, 5, 6):
                n = choose_n(k, g)
                window = 2 * k - 1
                assert n >= min_n(k, g)
                assert n % window != 0
                assert (k * n) % window != 0  # gcd(k, 2k-1) = 1


class TestBaseCycle:
    def test_c8(self):
        g = base_cycle(4)
        assert g.n_vertices == 8
        assert girth(g) == 8

    def test_c10_degrees(self):
        g = base_cycle(5)
        assert g.degrees() == [2] * 10

    def test_large_base_girth(self):
        assert girth(base_cycle(48)) == 96

    def test_too_small(self):
        with pytest.raises(ValueError):
            base_cycle(1)

    def test_above_the_vertex_cap_rejected_before_allocating(self):
        with pytest.raises(ValueError, match="cap"):
            base_cycle(MAX_VERTICES // 2 + 1)
        with pytest.raises(ValueError, match="cap"):
            generate(3, 40, choose_n(3, 40))


class TestFindDistantLowPair:
    def test_c10_towards_cubic(self):
        graph = base_cycle(5)
        state = AugmentState.from_graph(graph, 3, 4)
        pair = find_distant_low_pair(state, random.Random(0))
        assert pair is not None
        x, y = pair
        assert x in state.x_low and y in state.y_low
        assert distances_from(graph, [x], graph.n_vertices)[y] >= 3  # threshold g - 1

    def test_none_when_every_low_vertex_is_near(self):
        # girth target 10 on C8: the depth-8 ball covers the whole cycle
        graph = base_cycle(4)
        state = AugmentState.from_graph(graph, 3, 10)
        assert find_distant_low_pair(state, random.Random(0)) is None

    def test_girth_three_means_nonadjacent(self):
        graph = base_cycle(4)
        state = AugmentState.from_graph(graph, 3, 3)
        x, y = find_distant_low_pair(state, random.Random(1))
        assert not has_edge(graph, x, y)


class TestLowPairEquivalence:
    """The ball walk against the scan of every low y in ``_helpers``: on each
    state a build passes through, the same pair and the same generator state
    after the step, misses included."""

    @pytest.fixture
    def outcomes(self, monkeypatch):
        """Check every low-pair step of the builds a test runs against the
        reference; record (level, hit) for each."""
        seen = []

        def checked(state, rng):
            assert state.low_ys == set(state.y_low)
            reference = random.Random()
            reference.setstate(rng.getstate())
            expected = scan_distant_low_pair(state, reference)
            pair = find_distant_low_pair(state, rng)
            assert pair == expected
            assert rng.getstate() == reference.getstate()
            seen.append((state.k, pair is not None, state.near3 is not None))
            return pair

        monkeypatch.setattr("strongedge.generator.find_distant_low_pair", checked)
        return seen

    @staticmethod
    def forced_builds(k, g):
        """Builds below the floor, where balls cover many low ys and some
        cover all of them; a failed build has checked every step it took."""
        smallest = max(k, (g + 1) // 2)
        for n in (smallest, smallest + 1, smallest + 3, 2 * max(k, g)):
            for seed in range(8):
                try:
                    generate(k, g, n, seed, force=True)
                except ConstructionFailedError:
                    pass

    @pytest.mark.parametrize("g", range(3, 10))
    def test_cubic(self, outcomes, g):
        generate(3, g, choose_n(3, g), seed=g)
        self.forced_builds(3, g)
        assert {hit for _, hit, _ in outcomes} == {True, False}
        # both ways of finding the ball are held to the scan
        assert {masks for *_, masks in outcomes} == {g >= 7}

    @pytest.mark.parametrize("g", range(3, 10))
    def test_quartic(self, outcomes, g):
        # a level-4 step from a cubic girth-5 graph at every girth target,
        # whether or not the level can finish
        for seed in range(2):
            cubic, _ = generate(3, 5, 48, seed)
            try:
                _raise_degree(cubic, 4, g, random.Random(seed))
            except InternalInvariantError:
                pass
        self.forced_builds(4, g)
        assert {hit for k, hit, _ in outcomes if k == 4} == {True, False}
        assert {masks for k, _, masks in outcomes if k == 4} == {g >= 7}

    def test_both_paths_build_the_same(self, monkeypatch):
        # every build of the grid run once on the walk and once on masks
        # wherever r >= 3 and n <= MASK_CAP: the same graph and trace, or
        # the same failure
        grid = [(4, 7, n, seed) for n in (130, 200) for seed in range(6)]
        # degree 4 on a ball of radius 3; the forced sizes mix swaps and failures
        grid += [
            (4, g, n, seed)
            for g, forced in ((5, 24), (6, 30))
            for n in (forced, choose_n(4, g))
            for seed in range(3)
        ]
        grid += [
            (3, g, n, seed)
            for g in range(5, 10)
            for n in (min_n(3, g) // 4, min_n(3, g) // 2, choose_n(3, g))
            for seed in range(3)
        ]
        grid += [(5, 7, n, seed) for n in (60, 150) for seed in range(2)]

        def outcome(k, g, n, seed):
            try:
                graph, trace = generate(k, g, n, seed, force=True)
            except ConstructionFailedError as exc:
                return "failed", str(exc), str(exc.__cause__)
            return serialize_dimacs(graph), trace.to_text()

        outcomes = {}
        rules = {
            "walk": lambda n, k, g: False,
            "masks": lambda n, k, g: (g - 3) | 1 >= 3 and n <= MASK_CAP,
        }
        for name, rule in rules.items():
            monkeypatch.setattr(strongedge.generator, "_dense_balls", rule)
            # the rule overrides the real one both ways: walk at g = 9, masks at g = 5
            for g in (5, 9):
                assert (AugmentState.from_graph(base_cycle(100), 3, g).near3 is None) == (name == "walk")
            outcomes[name] = [outcome(*case) for case in grid]
        assert outcomes["walk"] == outcomes["masks"]
        failed = sum(first == "failed" for first, *_ in outcomes["walk"])
        swapped = sum("SWAP" in text for _, text, *_ in outcomes["walk"])
        assert 0 < failed < len(grid) and swapped > 0

    @pytest.mark.parametrize("n, g", [(3, 3), (8, 5), (4, 5), (6, 7), (5, 9), (8, 20)])
    def test_base_cycle(self, n, g):
        # every x of a cycle sees the same ball: all hit, or all miss and
        # the step returns None after drawing every x
        for seed in range(3):
            state = AugmentState.from_graph(base_cycle(n), 3, g)
            rng = random.Random(seed)
            pair = find_distant_low_pair(state, rng)
            reference = random.Random(seed)
            assert pair == scan_distant_low_pair(state, reference)
            assert rng.getstate() == reference.getstate()
            # the farthest y from x lies (n - 1) | 1 hops away
            assert (pair is None) == ((g - 3) | 1 >= (n - 1) | 1)

    def test_miss_then_hit(self):
        # C12 plus x0 y3: low x3 sees every low y within 3 hops, the other
        # low xs do not
        graph = base_cycle(6)
        graph.add_edge(0, 6 + 3)
        state = AugmentState.from_graph(graph, 3, 5)
        dist = {x: distances_from(graph, [x], 3) for x in state.x_low}
        covering = [x for x in state.x_low if all(dist[x][y] >= 0 for y in state.y_low)]
        assert covering == [3]
        first_tried = [next(front_run(random.Random(seed), state.x_low)) for seed in range(10)]
        assert 3 in first_tried  # some seed misses at x3 before it hits
        for seed in range(10):
            rng, reference = random.Random(seed), random.Random(seed)
            assert find_distant_low_pair(state, rng) == scan_distant_low_pair(state, reference)
            assert rng.getstate() == reference.getstate()


def masks_from_graph(graph, k):
    """The rows, 3-hop and low masks of a level raising ``graph`` to degree
    k, recomputed from its adjacency: the right vertices within 2 hops of
    each right one first, then their union over a left vertex's
    neighbors."""
    adj, n_left = graph._adj, graph.n_left
    bit = [0] * n_left + [1 << i for i in range(graph.n_right)]  # bit[y] for right y
    rows = [sum(map(bit.__getitem__, adj[x])) for x in range(n_left)]
    two = [0] * n_left + [reduce(or_, map(rows.__getitem__, adj[y])) for y in range(n_left, graph.n_vertices)]
    near3 = [reduce(or_, map(two.__getitem__, adj[x])) for x in range(n_left)]
    low = sum(compress(bit[n_left:], [len(a) == k - 1 for a in adj[n_left:]]))
    return rows, near3, low


class TestMasks:
    """The masks a level keeps where its balls are dense stay exact on the
    low right vertices, which is all a query reads, after every step, adds
    and swaps alike: the low mask equals one recomputed from the graph, and
    so do the rows and 3-hop masks once both are masked with it.  The rows
    keep their set-up values."""

    @pytest.fixture
    def checked_steps(self, monkeypatch):
        """Compare a masked state with masks recomputed from its graph after
        set-up and after every step, and count the steps checked by kind.
        Every mask is compared at set-up, after the last step of a level and
        after every ``every["full"]``-th step; after the other steps, the
        low mask and the masks of the left vertices within 4 hops of the
        step's vertices, a superset of those its edges can change.  The rows
        are compared with their set-up values after every step."""
        counts = Counter()
        every = {"full": 1}
        set_up_rows = {}
        from_graph, link = AugmentState.from_graph.__func__, AugmentState.link

        def check(state, touched=None):
            if state.near3 is None:
                return
            if touched is None:
                set_up_rows[id(state)] = list(state.rows)
            assert state.rows == set_up_rows[id(state)]
            low = state.low_mask
            if touched is None or not state.x_low or counts["steps"] % every["full"] == 0:
                rows, near3, low_now = masks_from_graph(state.graph, state.k)
                assert low == low_now
                assert [r & low for r in state.rows] == [r & low for r in rows]
                assert [a & low for a in state.near3] == [a & low for a in near3]
                return
            adj, n_left = state.graph._adj, state.graph.n_left
            assert low == sum(1 << (y - n_left) for y in state.y_low)
            dist = distances_from(state.graph, touched, 4)
            for x in range(n_left):
                if dist[x] >= 0:
                    within3 = {y for b in adj[x] for a in adj[b] for y in adj[a]}
                    assert state.rows[x] & low == sum(1 << (y - n_left) for y in adj[x]) & low, x
                    assert state.near3[x] & low == sum(1 << (y - n_left) for y in within3) & low, x

        def checked_from_graph(cls, graph, k, girth_target):
            state = from_graph(cls, graph, k, girth_target)
            check(state)
            counts["levels", state.near3 is not None] += 1
            return state

        def checked_link(state, x_l, y_l, high=None):
            link(state, x_l, y_l, high)
            counts["steps"] += 1
            check(state, [x_l, y_l, *(high or ())])
            counts["swap" if high else "add", state.near3 is not None] += 1

        monkeypatch.setattr(AugmentState, "from_graph", classmethod(checked_from_graph))
        monkeypatch.setattr(AugmentState, "link", checked_link)
        counts.every = every
        return counts

    def test_forced_quartic_builds(self, checked_steps):
        failed = 0
        for n in (130, 200):
            for seed in range(12):
                try:
                    generate(4, 7, n, seed, force=True)
                except ConstructionFailedError:
                    failed += 1
        assert 0 < failed < 24
        assert checked_steps["swap", True] > 0 and checked_steps["add", True] > 0
        assert checked_steps["levels", True] > 24 and not checked_steps["levels", False]

    def test_swaps_with_low_vertices_left(self, checked_steps):
        # a build swaps only once few low vertices are left, so its swaps
        # seldom change a mask on a low y; here half a level is added, then
        # random added edges are swapped for random low pairs (the masks do
        # not depend on distances) while many low vertices are left
        rng = random.Random(3)
        state = AugmentState.from_graph(base_cycle(130), 3, 7)
        adj = state.graph._adj
        while len(state.x_low) > 65:
            state.link(*find_distant_low_pair(state, rng))
        while len(state.x_low) > 5:
            x_l, y_l = rng.choice(state.x_low), rng.choice(state.y_low)
            x_h, y_h = rng.choice(list(state.added))
            if y_h not in adj[x_l] and x_h not in adj[y_l]:
                state.link(x_l, y_l, (x_h, y_h))
        assert checked_steps["swap", True] == 60

    @pytest.mark.parametrize("g", range(7, 11))
    def test_cubic_floor_builds(self, checked_steps, g):
        # every mask after every step up to n = 384; above that, in full
        # after every 32nd step
        checked_steps.every["full"] = 1 if g <= 8 else 32
        generate(3, g, choose_n(3, g), seed=1)
        assert checked_steps["add", True] > 0
        assert not checked_steps["levels", False]

    @pytest.mark.parametrize(
        "k, g, n, masks",
        [
            # ladder: counterexample(g) at choose_n(3, g)
            *((3, g, choose_n(3, g), g >= 7) for g in range(5, 11)),
            # quartic: counterexamples at g = 5, 6 (both levels), forced builds
            *((level, g, choose_n(4, g), False) for level in (3, 4) for g in (5, 6)),
            *((level, 7, n, True) for level in (3, 4) for n in (130, 200)),
            # search: the girth-4 sweeps, from the floor and forced from n = 10
            *((3, 4, n, False) for n in (10, 13, 24, 27)),
            # the g = 11 build keeps masks; the g = 12 one is above the cap
            (3, 11, choose_n(3, 11), True),
            (3, 12, choose_n(3, 12), False),
        ],
    )
    def test_paths_of_benchmark_builds(self, k, g, n, masks):
        assert _dense_balls(n, k, g) is masks

    def test_rule_reads_the_cap_and_the_radius(self):
        assert _dense_balls(MASK_CAP, 3, 11) and not _dense_balls(MASK_CAP + 1, 3, 11)
        assert not _dense_balls(MASK_CAP + 1, 6, 20)
        # r = 3: g = 5 and 6 walk at every size
        assert not any(_dense_balls(n, k, g) for n in (10, 100, 1000) for k in (3, 6) for g in (5, 6))
        # k = 3, r = 5 (g = 7, 8): masks up to 64 * 2^4 left vertices
        assert _dense_balls(1024, 3, 8) and not _dense_balls(1025, 3, 7)
        # k = 3, r = 7 and k = 4, r = 5: the cap binds first
        assert _dense_balls(MASK_CAP, 3, 9) and _dense_balls(MASK_CAP, 4, 7)
        # the largest power the rule meets: k and g as large as n = cap allows
        assert _dense_balls(MASK_CAP, MASK_CAP, 2 * MASK_CAP)

    def test_far_y_matches_a_scan(self):
        rng = random.Random(7)
        for _ in range(3000):
            n_left = rng.randrange(1, 200)
            ys = sorted(rng.sample(range(n_left, 2 * n_left), rng.randrange(1, n_left + 1)))
            near_ys = [y for y in ys if rng.random() < rng.random()]
            far = [y for y in ys if y not in near_ys]
            if not far:
                continue
            near = sum(1 << (y - n_left) for y in near_ys)
            i = rng.randrange(len(far))
            assert _far_y(ys, near, n_left, i) == far[i]


class TestBuildMemory:
    """A build's traced peak per vertex, against what the build takes without
    masks: no structure quadratic in n may reach sizes above the mask cap,
    and at the cap the masks add at most n/8 bytes a vertex (two masks of n
    bits per left vertex)."""

    @staticmethod
    def peak_per_vertex(k, g, n, force):
        gc.collect()
        tracemalloc.start()
        try:
            generate(k, g, n, 1, force=force)
            return tracemalloc.get_traced_memory()[1] / (2 * n)
        finally:
            tracemalloc.stop()

    def test_far_above_the_floor_on_the_walk(self):
        # 457 B a vertex before the masks existed; masks would add 1,500
        assert not _dense_balls(12_000, 3, 5)
        assert self.peak_per_vertex(3, 5, 12_000, True) < 480

    def test_at_the_mask_cap(self):
        # 458 B a vertex on the walk alone
        assert _dense_balls(MASK_CAP, 3, 9)
        assert self.peak_per_vertex(3, 9, MASK_CAP, False) < 480 + MASK_CAP / 8


class TestReferenceBuild:
    def test_forced_builds_match_the_reference(self):
        # the swap branch too: the swap pair and the swap-edge order drawn
        # as the scan-based reference draws them, or both builds fail; at
        # n = 200, seeds 3..5 swap with two low pairs left to pick from
        seen = set()
        for k, g, n in [(3, 6, 14), (4, 6, 40), (4, 7, 200)]:
            for seed in range(6):
                builds = []
                for build in (generate, reference_generate):
                    try:
                        graph, trace = build(k, g, n, seed, force=True)
                        builds.append((graph.edges(), trace))
                    except ConstructionFailedError:
                        builds.append(None)
                assert builds[0] == builds[1], (k, g, n, seed)
                seen.add("failed" if builds[0] is None else
                         any(isinstance(s, SwapStep) for s in builds[0][1].steps))
        assert seen == {"failed", True, False}


class TestShuffle:
    LENGTHS = sorted(
        set(range(71))
        | {2**j + d for j in range(12) for d in (-1, 0, 1)}
        | {1536}
    )

    def test_stdlib_draws_below_n_with_getrandbits(self):
        # the older goldens are checked against a build with the library's
        # shuffle and choice; a CPython that draws differently moves them,
        # and this names the cause
        assert random.Random._randbelow is random.Random._randbelow_with_getrandbits, (
            "random.Random._randbelow no longer draws with getrandbits; "
            "the library draws no longer match _below"
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_same_list_and_state_as_stdlib_shuffle(self, seed):
        # _below is the library's draw below n: a shuffle run from the back
        # on it, as the library runs its own, gives the library's list and
        # state, across every power-of-two band of n
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in self.LENGTHS:
            xs, ys = list(range(n)), list(range(n))
            for i in range(n - 1, 0, -1):
                j = _below(ours, i + 1)
                xs[i], xs[j] = xs[j], xs[i]
            theirs.shuffle(ys)
            assert xs == ys, n
            assert ours.getstate() == theirs.getstate(), n


class TestShuffled:
    LENGTHS = list(range(71)) + [1536]

    @pytest.mark.parametrize("seed", range(20))
    def test_same_items_and_state_as_reference(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in self.LENGTHS:
            items = list(_shuffled(ours, range(n)))
            assert items == list(front_run(theirs, range(n))), n
            assert sorted(items) == list(range(n)), n
            assert ours.getstate() == theirs.getstate(), n

    @pytest.mark.parametrize("n", range(13))
    def test_every_stop_point_matches_reference(self, n):
        # t = 1 reads the first item from the sequence itself, t = 2 makes
        # the copy and its first swap; each stop leaves the generator where
        # the reference leaves it
        items = tuple(f"item{i}" for i in range(n))
        for seed in range(5):
            for t in range(n + 1):
                ours, theirs = random.Random(seed), random.Random(seed)
                taken = list(itertools.islice(_shuffled(ours, items), t))
                assert taken == list(itertools.islice(front_run(theirs, items), t)), (seed, t)
                assert ours.getstate() == theirs.getstate(), (seed, t)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1536])
    def test_draws_only_for_the_items_taken(self, n):
        # one draw below n - i for item i, and none before the first item
        for t in sorted({0, 1, min(2, n), n // 2, n}):
            rng, reference = random.Random(n), random.Random(n)
            taken = list(itertools.islice(_shuffled(rng, range(n)), t))
            for i in range(t):
                below(reference, n - i)
            assert len(taken) == t
            assert rng.getstate() == reference.getstate(), t

    @pytest.mark.parametrize("draw", [_below, below], ids=["package", "reference"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_draw_below_one(self, draw, n):
        # no value is below n < 1, so the rejection loop would never end
        rng = random.Random(n)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"below {n}"):
            draw(rng, n)
        assert rng.getstate() == state

    def test_every_order_of_three_about_equally_often(self):
        counts = Counter(tuple(_shuffled(random.Random(seed), "abc")) for seed in range(6000))
        assert len(counts) == 6
        # 1000 expected each; the binomial spread is about 29
        assert all(850 < c < 1150 for c in counts.values()), counts

    def test_generator_makes_no_library_draws(self):
        # the draws rest on getrandbits alone, so no library method whose
        # draws may change between Python versions moves the graphs
        tree = ast.parse(inspect.getsource(strongedge.generator))
        library = {"choice", "choices", "shuffle", "randrange", "randint", "sample", "_randbelow"}
        called = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert "getrandbits" in called
        assert not called & library


class TestRaiseLow:
    def test_removes_exactly_the_pair(self):
        graph = base_cycle(6)
        state = AugmentState.from_graph(graph, 3, 4)
        state._raise_low(2, 6 + 4)
        assert state.x_low == [0, 1, 3, 4, 5]
        assert state.y_low == [6, 7, 8, 9, 11]
        assert state.low_ys == {6, 7, 8, 9, 11}

    @pytest.mark.parametrize("pair", [(2, 6 + 4), (3, 6 + 4), (2, 6 + 5), (6, 6 + 4)])
    def test_vertex_that_is_not_low_is_loud(self, pair):
        graph = base_cycle(6)
        state = AugmentState.from_graph(graph, 3, 4)
        state._raise_low(2, 6 + 4)
        before = (state.x_low.copy(), state.y_low.copy())
        with pytest.raises(InternalInvariantError):
            state._raise_low(*pair)
        assert (state.x_low, state.y_low) == before
        assert state.low_ys == set(before[1])


class TestSwap:
    def build_scripted_state(self):
        # C24 with two added edges; exactly one of them is far from the
        # low pair chosen below.
        graph = base_cycle(12)
        state = AugmentState.from_graph(graph, 3, 4)
        near = (2, 12 + 5)  # both endpoints near (3, 16)
        far = (8, 12 + 11)
        for u, v in (near, far):
            state.link(u, v)
        return graph, state, near, far

    def test_exactly_one_far_edge_is_found(self):
        graph, state, _near, far = self.build_scripted_state()
        x_l, y_l = 3, 12 + 4
        for seed in range(5):  # any scan order must reject the near edge
            x_h, y_h = find_swap_edge(state, x_l, y_l, random.Random(seed))
            assert (x_h, y_h) == far
        # exhaustive distance recheck of the returned edge
        dist = distances_from(graph, [x_l, y_l], graph.n_vertices)
        assert min(dist[x_h], dist[y_h]) >= 3

    def test_empty_added_set_violates_precondition(self):
        graph = base_cycle(6)
        state = AugmentState.from_graph(graph, 3, 4)
        with pytest.raises(InternalInvariantError):
            find_swap_edge(state, 0, 6 + 3, random.Random(0))

    def test_apply_swap_bookkeeping(self):
        graph, state, near, far = self.build_scripted_state()
        x_l, y_l = 3, 12 + 4
        size_before = len(state.added)
        x_h, y_h = find_swap_edge(state, x_l, y_l, random.Random(0))
        deg_h = (graph.degree(x_h), graph.degree(y_h))
        apply_swap(state, x_l, y_l, x_h, y_h)
        assert len(state.added) == size_before + 1
        # the swap draw permutes `added` in its order, which must stay the
        # graph's edge order
        assert list(state.added) == [near, (x_l, y_h), (x_h, y_l)]
        assert list(state.added) == [e for e in graph.edges() if e in state.added]
        assert graph.degree(x_l) == 3 and graph.degree(y_l) == 3
        assert (graph.degree(x_h), graph.degree(y_h)) == deg_h
        assert x_l not in state.x_low and y_l not in state.y_low
        assert girth(graph) >= 4
        assert len(state.x_low) == len(state.y_low)

    def test_apply_swap_requires_added_edge(self):
        graph, state, *_ = self.build_scripted_state()
        with pytest.raises(ValueError):
            apply_swap(state, 3, 12 + 4, 0, 12 + 0)  # base edge


class TestAugment:
    def test_c48_to_cubic_girth4(self):
        graph = base_cycle(24)
        steps = _raise_degree(graph, 3, 4, random.Random(9))
        assert graph.is_regular(3)
        assert graph.n_edges == 72
        assert girth(graph) >= 4
        assert len(steps) == 24

    def test_wrong_degree_rejected(self):
        cubic, _ = generate(3, 4, 24, seed=0)
        with pytest.raises(ValueError):
            AugmentState.from_graph(cubic, 5, 4)

    def test_unbalanced_low_sets_rejected(self):
        # the path x0 - y - x1: both left vertices are low for k = 2, no right one
        path = BipartiteGraph(2, 1)
        path.add_edge(0, 2)
        path.add_edge(1, 2)
        with pytest.raises(ValueError, match="unbalanced low sets"):
            AugmentState.from_graph(path, 2, 4)


class TestGenerate:
    def test_degree_two_is_the_base_cycle(self):
        graph, trace = generate(2, 7, 7, seed=123)
        assert graph.n_vertices == 14
        assert graph.degrees() == [2] * 14
        assert girth(graph) == 14
        assert trace.steps == ()

    def test_cubic_girth5(self):
        graph, trace = generate(3, 5, 48, seed=2)
        assert graph.n_vertices == 96
        assert graph.n_edges == 144
        assert graph.is_regular(3)
        assert girth(graph) >= 5
        assert len(trace.steps) == 48

    def test_quartic_girth4(self):
        graph, trace = generate(4, 4, 41, seed=3)
        assert graph.is_regular(4)
        assert girth(graph) >= 4
        assert graph.n_vertices == 82
        assert len(trace.steps) == 82  # n per level, two levels

    def test_n_below_floor_rejected(self):
        with pytest.raises(ValueError):
            generate(3, 5, 47, seed=0)

    def test_impossible_even_with_force(self):
        with pytest.raises(ValueError):
            generate(3, 5, 2, seed=0, force=True)  # k > n

    def test_base_cycle_shorter_than_girth_rejected_even_with_force(self):
        # The levels never measure their input's girth, so this check is
        # what makes the base cycle's girth 2n meet the target.
        with pytest.raises(ValueError):
            generate(3, 12, 5, force=True)

    @pytest.mark.parametrize("k, g, calls", [(3, 6, 1), (4, 5, 1), (2, 7, 0)])
    def test_girth_measured_once_per_build(self, monkeypatch, k, g, calls):
        measured = []

        def counting_girth(graph):
            measured.append(graph.n_vertices)
            return girth(graph)

        monkeypatch.setattr("strongedge.generator.girth", counting_girth)
        generate(k, g, choose_n(k, g), 0)
        assert len(measured) == calls

    @staticmethod
    def assert_level_three_is_a_subgraph(graph, trace, n):
        # why one girth check bounds every level's girth: a level swaps out
        # only edges it added itself
        level_three = apply_prefix(trace, n)
        assert level_three.is_regular(3)
        assert set(level_three.edges()) <= set(graph.edges())

    @pytest.mark.parametrize("n, seed, force", [(122, 0, False), (60, 1, True)])
    def test_level_three_graph_is_a_subgraph_of_the_final_one(self, n, seed, force):
        graph, trace = generate(4, 5, n, seed, force=force)
        self.assert_level_three_is_a_subgraph(graph, trace, n)

    def test_level_three_graph_is_a_subgraph_when_both_levels_swap(self):
        n = 60
        for seed in range(20):  # the first forced build that swaps in both levels
            try:
                graph, trace = generate(4, 5, n, seed, force=True)
            except ConstructionFailedError:
                continue
            swapped = [isinstance(s, SwapStep) for s in trace.steps]
            if any(swapped[:n]) and any(swapped[n:]):
                break
        else:
            pytest.fail("no seed below 20 builds with swaps in both levels")
        self.assert_level_three_is_a_subgraph(graph, trace, n)

    @pytest.mark.parametrize("k", [3, 4])
    def test_failing_final_girth_check(self, monkeypatch, k):
        monkeypatch.setattr("strongedge.generator.girth", lambda graph: 4)
        n = choose_n(k, 5)
        with pytest.raises(InternalInvariantError, match="final girth check"):
            generate(k, 5, n, 0)
        with pytest.raises(ConstructionFailedError) as exc:
            generate(k, 5, n, 0, force=True)
        assert isinstance(exc.value.__cause__, InternalInvariantError)

    def test_force_succeeds_or_fails_cleanly(self):
        outcomes = set()
        for seed in range(6):
            try:
                graph, _ = generate(3, 6, 14, seed=seed, force=True)
                assert graph.is_regular(3) and girth(graph) >= 6
                outcomes.add("ok")
            except ConstructionFailedError:
                outcomes.add("failed")
        assert "ok" in outcomes

    def test_trace_determinism(self):
        a_graph, a_trace = generate(3, 5, 48, seed=77)
        b_graph, b_trace = generate(3, 5, 48, seed=77)
        assert a_trace == b_trace
        assert a_trace.to_text() == b_trace.to_text()
        assert a_graph.edges() == b_graph.edges()

    def test_different_seeds_differ(self):
        a, _ = generate(3, 5, 48, seed=1)
        b, _ = generate(3, 5, 48, seed=2)
        assert sorted(a.edges()) != sorted(b.edges())


class TestInvariantRaises:
    """Each check inside a level raises when its invariant is broken, and a
    forced build maps that to :class:`ConstructionFailedError` with the
    check's error as its cause.  Forced k = 3, g = 6, n = 14 builds swap
    once at seed 7 and never at seed 0."""

    def assert_raised_in_the_build(self, seed, match):
        with pytest.raises(InternalInvariantError, match=match):
            strongedge.generator._build(3, 6, 14, seed, force=True)
        with pytest.raises(ConstructionFailedError) as exc:
            generate(3, 6, 14, seed, force=True)
        assert isinstance(exc.value.__cause__, InternalInvariantError)
        assert re.search(match, str(exc.value.__cause__))

    def test_swap_that_lowers_the_girth(self, monkeypatch):
        monkeypatch.setattr(strongedge.generator, "_edge_keeps_girth", lambda *args: False)
        _, state, _, far = TestSwap().build_scripted_state()
        with pytest.raises(InternalInvariantError,
                           match=r"girth dropped below 4 after swapping out \(8, 23\) "
                                 r"for \(3, 23\) and \(16, 8\)"):
            apply_swap(state, 3, 12 + 4, *far)
        self.assert_raised_in_the_build(7, "girth dropped below 6 after swapping out")

    def test_swap_that_changes_a_degree(self, monkeypatch):
        monkeypatch.setattr(BipartiteGraph, "degree", lambda self, v: 0)
        _, state, _, far = TestSwap().build_scripted_state()
        with pytest.raises(InternalInvariantError, match=r"swap changed the degree of \(8, 23\)"):
            apply_swap(state, 3, 12 + 4, *far)
        self.assert_raised_in_the_build(7, "swap changed the degree of")

    def test_level_that_adds_too_few_edges(self, monkeypatch):
        link = AugmentState.link

        def link_forgetting_adds(state, x_l, y_l, high=None):
            link(state, x_l, y_l, high)
            if high is None:
                del state.added[x_l, y_l]

        monkeypatch.setattr(AugmentState, "link", link_forgetting_adds)
        self.assert_raised_in_the_build(0, "level finished with 0 added edges, expected 14")


class TestTrace:
    def test_text_format(self):
        _, trace = generate(3, 4, 24, seed=4)
        lines = trace.to_text().splitlines()
        assert lines[0] == "# k=3 g=4 n=24 seed=4"
        pattern = re.compile(r"^(ADD \d+ \d+|SWAP \d+ \d+ \d+ \d+)$")
        assert all(pattern.match(line) for line in lines[1:])
        assert len(lines) == 1 + len(trace.steps)

    def test_replay_reproduces_graph(self):
        graph, trace = generate(3, 5, 48, seed=5)
        replayed = replay_trace(trace)
        assert replayed.edges() == graph.edges()

    def test_replay_reproduces_swapful_run(self):
        for seed in range(20):  # the first forced build that swaps
            try:
                graph, trace = generate(3, 6, 14, seed=seed, force=True)
            except ConstructionFailedError:
                continue
            if any(isinstance(s, SwapStep) for s in trace.steps):
                break
        else:
            pytest.fail("no seed below 20 builds with a swap")
        replayed = replay_trace(trace)
        assert replayed.edges() == graph.edges()

    def test_replay_rejects_girth_violation(self):
        # x0 to y1 is at distance 3 in the base cycle: a 4-cycle appears,
        # below the girth target 6
        bad = GeneratorTrace(k=3, g=6, n=48, seed=0, steps=(AddStep(0, 49),))
        with pytest.raises(InternalInvariantError):
            replay_trace(bad)

    def test_replay_rejects_degree_violation(self):
        bad = GeneratorTrace(k=2, g=4, n=4, seed=0, steps=(AddStep(0, 6),))
        with pytest.raises(InternalInvariantError):
            replay_trace(bad)


class TestIntermediateInvariants:
    def test_low_sets_balanced_and_ball_size_bounded(self):
        graph, trace = generate(3, 5, 48, seed=6)
        cap = 1 + 2 + 4 + 8  # sum of (k-1)^i for i = 0..g-2
        for t in (1, 10, 25, 40):
            prefix = apply_prefix(trace, t)
            state = AugmentState.from_graph(prefix, 3, 5)
            assert len(state.x_low) == len(state.y_low) == 48 - t
            for x in sorted(state.x_low)[:4]:
                dist = distances_from(prefix, [x], 3)
                assert sum(d >= 0 for d in dist) <= cap

    def test_per_step_girth_holds_in_prefixes(self):
        _, trace = generate(3, 5, 48, seed=8)
        for t in (5, 20, 48):
            assert girth(apply_prefix(trace, t)) >= 5
