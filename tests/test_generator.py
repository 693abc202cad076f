import random
import re

import pytest

from strongedge import (
    AddStep,
    AugmentState,
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
    replay_trace,
)
from strongedge.generator import _raise_degree, _shuffle
from strongedge.graphs import MAX_VERTICES
from _helpers import scan_distant_low_pair


def apply_prefix(trace, t):
    """Re-apply the first t steps of a trace to a fresh base cycle."""
    graph = base_cycle(trace.n)
    for step in trace.steps[:t]:
        if isinstance(step, AddStep):
            pairs = [(step.x, step.y)]
        else:
            graph.remove_edge(step.x_high, step.y_high)
            pairs = list(step.added)
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
        assert not graph.has_edge(x, y)


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
            reference = random.Random()
            reference.setstate(rng.getstate())
            expected = scan_distant_low_pair(state, reference)
            pair = find_distant_low_pair(state, rng)
            assert pair == expected
            assert rng.getstate() == reference.getstate()
            seen.append((state.k, pair is not None))
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
        assert {hit for _, hit in outcomes} == {True, False}

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
        assert {hit for k, hit in outcomes if k == 4} == {True, False}

    @pytest.mark.parametrize("n, g", [(3, 3), (8, 5), (4, 5), (6, 7), (5, 9), (8, 20)])
    def test_base_cycle(self, n, g):
        # every x of a cycle sees the same ball: all hit, or all miss and
        # the step returns None after the shuffle alone
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
        for seed in range(10):  # seeds 0, 1 and 2 try x3 first
            rng, reference = random.Random(seed), random.Random(seed)
            assert find_distant_low_pair(state, rng) == scan_distant_low_pair(state, reference)
            assert rng.getstate() == reference.getstate()


class TestShuffle:
    LENGTHS = sorted(
        set(range(71))
        | {2**j + d for j in range(12) for d in (-1, 0, 1)}
        | {1536}
    )

    def test_stdlib_draws_below_n_with_getrandbits(self):
        # _shuffle inlines this method; a CPython that draws differently
        # moves every generator golden, and this names the cause
        assert random.Random._randbelow is random.Random._randbelow_with_getrandbits, (
            "random.Random._randbelow no longer draws with getrandbits; "
            "_shuffle no longer reproduces random.Random.shuffle"
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_same_list_and_state_as_stdlib_shuffle(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in self.LENGTHS:
            xs, ys = list(range(n)), list(range(n))
            _shuffle(ours, xs)
            theirs.shuffle(ys)
            assert xs == ys, n
            assert ours.getstate() == theirs.getstate(), n


class TestRaiseLow:
    def test_removes_exactly_the_pair(self):
        graph = base_cycle(6)
        state = AugmentState.from_graph(graph, 3, 4)
        state._raise_low(2, 6 + 4)
        assert state.x_low == [0, 1, 3, 4, 5]
        assert state.y_low == [6, 7, 8, 9, 11]

    @pytest.mark.parametrize("pair", [(2, 6 + 4), (3, 6 + 4), (2, 6 + 5), (6, 6 + 4)])
    def test_vertex_that_is_not_low_is_loud(self, pair):
        graph = base_cycle(6)
        state = AugmentState.from_graph(graph, 3, 4)
        state._raise_low(2, 6 + 4)
        before = (state.x_low.copy(), state.y_low.copy())
        with pytest.raises(InternalInvariantError):
            state._raise_low(*pair)
        assert (state.x_low, state.y_low) == before


class TestSwap:
    def build_scripted_state(self):
        # C24 with two added edges; exactly one of them is far from the
        # low pair chosen below.
        graph = base_cycle(12)
        state = AugmentState.from_graph(graph, 3, 4)
        near = (2, 12 + 5)  # both endpoints near (3, 16)
        far = (8, 12 + 11)
        for u, v in (near, far):
            graph.add_edge(u, v)
            state.added[u, v] = None
            state._raise_low(u, v)
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
        # the swap draw shuffles `added` in its order, which must stay the
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

    @pytest.mark.parametrize("n, seed, force", [(122, 0, False), (60, 1, True)])
    def test_level_three_graph_is_a_subgraph_of_the_final_one(self, n, seed, force):
        # why one girth check bounds every level's girth: a level swaps out
        # only edges it added itself
        graph, trace = generate(4, 5, n, seed, force=force)
        level_three = apply_prefix(trace, n)
        assert level_three.is_regular(3)
        assert set(level_three.edges()) <= set(graph.edges())
        if force:  # swaps in both levels
            assert any(isinstance(s, SwapStep) for s in trace.steps[:n])
            assert any(isinstance(s, SwapStep) for s in trace.steps[n:])

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
        graph, trace = generate(3, 6, 14, seed=1, force=True)
        assert any(isinstance(s, SwapStep) for s in trace.steps)
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
