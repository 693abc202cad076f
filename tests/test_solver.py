import itertools
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from strongedge import (
    ConflictGraph,
    InternalInvariantError,
    SearchResult,
    StrongColoring,
    choose_n,
    conflict_graph,
    exact_chi_s,
    find_coloring,
    generate,
    greedy_color,
    min_last_color_usage,
    verify,
)
from strongedge import solver
from strongedge.solver import (
    _Budget,
    _bucket_kernel,
    _clique_lower_bound,
    _mask_kernel,
    _search_with,
)
from _helpers import (
    brute_force_chi_s,
    complete_bipartite,
    cycle_graph,
    heawood_graph,
    legacy_generate,
    path_graph,
    petersen_graph,
    random_simple_graph,
    scan_decision_search,
    star_graph,
    traced,
)


def min_usage_oracle(cg, palette):
    """Exhaustive reference: minimal usage of the highest color over all
    proper colorings with ``palette`` colors, or None if infeasible."""
    m = cg.n_nodes
    best = None
    for assign in itertools.product(range(1, palette + 1), repeat=m):
        ok = all(
            assign[i] != assign[j]
            for i in range(m)
            for j in range(i + 1, m)
            if j in cg.adj[i]
        )
        if ok:
            usage = sum(1 for c in assign if c == palette)
            best = usage if best is None else min(best, usage)
            if best == 0:
                return 0
    return best


class TestVerify:
    def test_c6_three_coloring_valid(self):
        cg = conflict_graph(cycle_graph(6))
        assert verify(cg, StrongColoring([1, 2, 3, 1, 2, 3]))

    def test_c8_wraparound_conflict(self):
        cg = conflict_graph(cycle_graph(8))
        phi = StrongColoring([1, 2, 3, 1, 2, 3, 1, 2])
        assert not verify(cg, phi)
        assert not phi.verified

    def test_all_distinct_always_valid(self):
        g = complete_bipartite(3, 3)
        phi = StrongColoring(list(range(1, 10)))
        assert verify(conflict_graph(g), phi)
        assert phi.verified

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            verify(conflict_graph(cycle_graph(6)), StrongColoring([1, 2]))

    def test_unassigned_edge_rejected(self):
        with pytest.raises(ValueError):
            verify(conflict_graph(cycle_graph(3)), StrongColoring([1, 0, 2]))


class TestStrongColoring:
    # README: equal to another with the same colors and verified
    def test_equal_on_colors_and_verified(self):
        cg = conflict_graph(cycle_graph(6))
        phi = StrongColoring([1, 2, 3, 1, 2, 3])
        assert verify(cg, phi)
        assert phi == StrongColoring([1, 2, 3, 1, 2, 3], verified=True)
        assert phi != StrongColoring([1, 2, 3, 1, 2, 3])
        assert phi != StrongColoring([1, 2, 3, 1, 3, 2], verified=True)

    def test_not_equal_to_a_plain_list(self):
        phi = StrongColoring([1, 2, 3])
        assert phi != [1, 2, 3]
        assert [1, 2, 3] != phi
        assert phi.__eq__([1, 2, 3]) is NotImplemented

    def test_repr_names_both_fields(self):
        phi = StrongColoring([2, 1], verified=True)
        assert repr(phi) == "StrongColoring(colors=[2, 1], verified=True)"


class TestGreedy:
    def test_complete_conflict_graph_needs_all_colors(self):
        cg = conflict_graph(complete_bipartite(3, 3))
        assert greedy_color(cg).n_colors == 9

    def test_c8_saturation_at_most_five(self):
        cg = conflict_graph(cycle_graph(8))
        phi = greedy_color(cg)
        assert phi.verified
        assert phi.n_colors <= 5

    def test_empty_graph_zero_colors(self):
        from strongedge import SimpleGraph

        cg = conflict_graph(SimpleGraph(3))
        phi = greedy_color(cg)
        assert phi.n_colors == 0
        assert phi.colors == []

    def test_always_valid(self):
        for g in [cycle_graph(9), heawood_graph(), star_graph(5)]:
            cg = conflict_graph(g)
            phi = greedy_color(cg)
            assert verify(cg, phi)

    @staticmethod
    def assert_first_descent(cg):
        # the greedy is the bucket kernel's first descent with one color
        # per edge: the same coloring, pick for pick
        descent = _search_with(_bucket_kernel, cg, cg.n_nodes, None, _Budget())
        assert greedy_color(cg).colors == descent.coloring.colors

    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_first_descent_on_random_graphs(self, rng):
        # irregular conflict degrees, so the degree rank in each entry
        # decides picks that the index alone would decide otherwise
        self.assert_first_descent(conflict_graph(random_simple_graph(rng, 16, 40)))

    def test_first_descent_on_the_empty_graph(self):
        from strongedge import SimpleGraph

        self.assert_first_descent(conflict_graph(SimpleGraph(0)))

    @pytest.mark.parametrize("k, g", [(3, 5), (3, 6), (3, 7), (3, 8), (4, 5)])
    def test_first_descent_on_counterexamples(self, k, g):
        self.assert_first_descent(conflict_graph(generate(k, g, choose_n(k, g), 1)[0]))

    def test_peak_per_node_stays_small(self):
        # No stack, undo lists or saved masks: at k = 3, g = 9 (m = 2304)
        # the greedy peaks near 170 bytes a node, the bucket kernel's first
        # descent near 420.
        cg = conflict_graph(generate(3, 9, choose_n(3, 9), 1)[0])
        assert cg.n_nodes == 2304
        phi, _held, peak = traced(greedy_color, cg)
        assert phi.verified
        assert peak <= 250 * cg.n_nodes


class TestBruteForce:
    def test_two_edge_path(self):
        assert brute_force_chi_s(conflict_graph(path_graph(3))) == 2

    def test_c6(self):
        assert brute_force_chi_s(conflict_graph(cycle_graph(6))) == 3

    def test_c5_complete_conflicts(self):
        cg = conflict_graph(cycle_graph(5))
        assert all(d == 4 for d in cg.degrees)
        assert brute_force_chi_s(cg) == 5

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_force_chi_s(conflict_graph(cycle_graph(15)))

    def test_empty(self):
        from strongedge import SimpleGraph

        assert brute_force_chi_s(conflict_graph(SimpleGraph(2))) == 0


class TestExact:
    def test_matches_brute_on_families(self):
        graphs = (
            [cycle_graph(n) for n in range(3, 10)]
            + [path_graph(n) for n in range(2, 10)]
            + [star_graph(q) for q in range(1, 8)]
            + [complete_bipartite(3, 3)]
        )
        for g in graphs:
            cg = conflict_graph(g)
            out = exact_chi_s(cg)
            assert out.status == "exact"
            assert out.chi_s == brute_force_chi_s(cg)
            assert verify(cg, out.coloring)
            assert out.coloring.n_colors == out.chi_s == out.lower_bound

    def test_matches_brute_on_seeded_random(self):
        rng = random.Random(42)
        for _ in range(25):
            cg = conflict_graph(random_simple_graph(rng))
            assert exact_chi_s(cg).chi_s == brute_force_chi_s(cg)

    def test_deterministic(self):
        cg = conflict_graph(heawood_graph())
        a = exact_chi_s(cg)
        b = exact_chi_s(cg)
        assert (a.chi_s, a.nodes, a.coloring.colors) == (b.chi_s, b.nodes, b.coloring.colors)

    def test_budget_exhaustion_reports_bounds(self):
        cg = conflict_graph(heawood_graph())
        out = exact_chi_s(cg, node_budget=3)
        assert out.status == "upper-bound-only"
        assert out.chi_s is None
        assert out.lower_bound <= out.upper_bound
        assert verify(cg, out.coloring)  # greedy fallback still valid

    def test_clique_seed_at_least_window(self):
        for g, k in [(cycle_graph(8), 2), (heawood_graph(), 3), (complete_bipartite(4, 4), 4)]:
            assert _clique_lower_bound(conflict_graph(g)) >= 2 * k - 1


class TestFindColoring:
    def test_k33_infeasible_below_nine(self):
        cg = conflict_graph(complete_bipartite(3, 3))
        assert find_coloring(cg, 8).status == "none"

    def test_c6_at_three(self):
        cg = conflict_graph(cycle_graph(6))
        res = find_coloring(cg, 3)
        assert res.status == "found"
        assert verify(cg, res.coloring)
        assert res.coloring.n_colors <= 3

    def test_trivial_at_edge_count(self):
        for g in [cycle_graph(7), star_graph(4)]:
            cg = conflict_graph(g)
            assert find_coloring(cg, cg.n_nodes).status == "found"

    def test_zero_colors(self):
        cg = conflict_graph(cycle_graph(4))
        assert find_coloring(cg, 0).status == "none"
        with pytest.raises(ValueError):
            find_coloring(cg, -1)

    @pytest.mark.parametrize("name", ["node_budget", "budget_ms"])
    def test_negative_budget_rejected(self, name):
        cg = conflict_graph(cycle_graph(6))
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
            find_coloring(cg, 3, **{name: -1})

    def test_timeout_distinct_from_none(self):
        cg = conflict_graph(heawood_graph())
        res = find_coloring(cg, 6, node_budget=2)
        assert res.status == "timeout"

    def test_monotone_in_color_budget(self):
        for g in [cycle_graph(8), heawood_graph()]:
            cg = conflict_graph(g)
            chi = exact_chi_s(cg).chi_s
            for c in range(chi, min(chi + 4, cg.n_nodes) + 1):
                assert find_coloring(cg, c).status == "found"

    def test_descent_deeper_than_recursion_limit(self):
        # m = 1152 nodes on one descent, past Python's default limit of 1000
        graph, _ = generate(3, 8, choose_n(3, 8), 0)
        cg = conflict_graph(graph)
        res = find_coloring(cg, 8, node_budget=5000)
        assert res.status == "found"
        assert res.coloring.n_colors <= 8
        assert verify(cg, res.coloring)


class TestWallClockBudget:
    """A wall-clock budget of 0 runs out at the first clock check, which
    the search makes every 256 nodes of its cumulative count."""

    def test_find_coloring_times_out_at_first_clock_check(self):
        # The g = 6 graph (m = 288) takes the mask kernel; the g = 8 graph
        # (m = 1152, 18 words against conflict degree 12) takes buckets.
        # The node budget only ends a search whose clock check is broken.
        for g, palette in [(6, 6), (8, 7)]:
            cg = conflict_graph(generate(3, g, choose_n(3, g), 1)[0])
            res = find_coloring(cg, palette, budget_ms=0, node_budget=5000)
            assert (g, res.status, res.nodes) == (g, "timeout", 256)

    def test_exact_keeps_greedy_bound_at_first_clock_check(self):
        cg = conflict_graph(generate(3, 6, choose_n(3, 6), 1)[0])
        out = exact_chi_s(cg, budget_ms=0)
        assert (out.status, out.nodes) == ("upper-bound-only", 256)
        assert verify(cg, out.coloring)

    def test_search_shorter_than_a_clock_interval_finishes(self):
        cg = conflict_graph(cycle_graph(6))
        res = find_coloring(cg, 3, budget_ms=0)
        assert res.status == "found"
        assert verify(cg, res.coloring)

    def test_budget_past_every_float_deadline_sets_none(self):
        budget = _Budget(budget_ms=10**400)
        assert (budget.deadline, budget.node_limit) == (None, math.inf)
        cg = conflict_graph(generate(3, 5, choose_n(3, 5), 1)[0])
        assert find_coloring(cg, 6, budget_ms=10**400, node_budget=50) == find_coloring(
            cg, 6, node_budget=50
        )


class TestMinLastColorUsage:
    def test_c8_against_exhaustive_oracle(self):
        cg = conflict_graph(cycle_graph(8))
        expected = min_usage_oracle(cg, 4)
        assert expected == 2  # frozen: 8 mod 3 = 2
        res = min_last_color_usage(cg, 2)
        assert res.status == "exact"
        assert res.usage == expected
        assert verify(cg, res.coloring)
        assert res.coloring.usage(4) == expected

    def test_c6_and_c7_against_exhaustive_oracle(self):
        for n, expected in [(6, 0), (7, 1)]:
            cg = conflict_graph(cycle_graph(n))
            assert min_usage_oracle(cg, 4) == expected
            res = min_last_color_usage(cg, 2)
            assert res.status == "exact"
            assert res.usage == expected

    def test_divisible_case_unused_last_color(self):
        cg = conflict_graph(cycle_graph(12))
        res = min_last_color_usage(cg, 2)
        assert res.status == "exact"
        assert res.usage == 0

    def test_infeasible_reported_distinctly(self):
        # C5 needs 5 colors; 2k = 4 cannot work
        cg = conflict_graph(cycle_graph(5))
        res = min_last_color_usage(cg, 2)
        assert res.status == "infeasible"
        assert res.usage is None

    def test_heawood_cap_one(self):
        g = heawood_graph()
        assert g.n_edges % 5 == 1  # cap = 1
        res = min_last_color_usage(conflict_graph(g), 3)
        # chi_s(heawood) = 7, so the 6-color problem is infeasible; either
        # outcome is evidence, but it must be decided, not timed out.
        assert res.status in ("exact", "infeasible")

    def test_relabel_swap_moves_the_least_used_class_to_the_last_color(self, monkeypatch):
        # The probe 6-coloring uses color 6 twice and colors 1..5 once each,
        # so the relabel swaps 5 and 6; cap 0 is refuted, and the swapped
        # probe is the exact answer.
        cg = conflict_graph(random_simple_graph(random.Random(63), 10, 12))
        assert cg.n_nodes == 7
        relabel, relabeled = solver._relabel_minimizing_last, []

        def spy(phi, palette):
            relabeled.append((phi, relabel(phi, palette)))
            return relabeled[-1][1]

        monkeypatch.setattr(solver, "_relabel_minimizing_last", spy)
        res = min_last_color_usage(cg, 3)
        ((probe, swapped),) = relabeled
        assert probe.class_sizes() == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2}
        assert swapped.colors == [{5: 6, 6: 5}.get(c, c) for c in probe.colors]
        assert (res.status, res.coloring) == ("exact", swapped)
        assert res.usage == min_usage_oracle(cg, 6) == 1
        assert verify(cg, res.coloring)

    def test_budget_exhaustion_best_found(self):
        cg = conflict_graph(cycle_graph(20))
        res = min_last_color_usage(cg, 2, node_budget=1)
        assert res.status == "best-found"

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            min_last_color_usage(conflict_graph(cycle_graph(6)), 0)


class TestInvariantRaises:
    """A coloring the solver returns is checked, not trusted: each check
    raises when what it guards is broken."""

    def test_greedy_coloring_that_fails_verify(self, monkeypatch):
        monkeypatch.setattr(solver, "verify", lambda cg, phi: False)
        with pytest.raises(InternalInvariantError, match="greedy produced an invalid coloring"):
            greedy_color(conflict_graph(cycle_graph(6)))

    def test_search_coloring_that_fails_verify(self, monkeypatch):
        monkeypatch.setattr(solver, "verify", lambda cg, phi: False)
        with pytest.raises(InternalInvariantError, match="search produced an invalid coloring"):
            find_coloring(conflict_graph(cycle_graph(6)), 3)

    def test_capped_search_answer_off_its_cap(self, monkeypatch):
        # C7 needs color 4 at least once (7 mod 3 = 1), so the capped search
        # runs at t = 0; an answer using color 4 once is not usage 0
        search = solver._decision_search

        def off_by_one(cg, palette, special_cap, budget):
            if special_cap is None:
                return search(cg, palette, special_cap, budget)
            colors = [palette] * (special_cap + 1) + [1] * (cg.n_nodes - special_cap - 1)
            return SearchResult("found", StrongColoring(colors), 0)

        monkeypatch.setattr(solver, "_decision_search", off_by_one)
        with pytest.raises(InternalInvariantError,
                           match="usage 1 found under cap 0; caps below 0 were already refuted"):
            min_last_color_usage(conflict_graph(cycle_graph(7)), 2)


def equivalence_family():
    """Seeded graphs for the scan-equivalence check: random simple graphs
    (uneven conflict degrees, so degree ties decide picks), forced k = 3 and
    k = 4 builds, the Petersen graph and the cycles C5..C12.  The forced
    builds use the reference build with the generator's earlier draws, so
    the family stays the same whatever draws the package makes."""
    rng = random.Random(2024)
    family = {f"random-{i}": random_simple_graph(rng, 12, 20) for i in range(24)}
    for k, g, n, seed in [(3, 4, 7, 0), (3, 4, 11, 0), (3, 6, 7, 1), (4, 4, 9, 0)]:
        family[f"forced-k{k}-g{g}-n{n}"] = legacy_generate(k, g, n, seed, force=True)[0]
    family["petersen"] = petersen_graph()
    for n in range(5, 13):
        family[f"C{n}"] = cycle_graph(n)
    return family


EQUIVALENCE_FAMILY = equivalence_family()
KERNELS = {"buckets": _bucket_kernel, "masks": _mask_kernel}


class TestScanEquivalence:
    """Each kernel, run directly rather than by the width rule, explores
    the same tree as a full rescan of the uncolored nodes: same status,
    coloring and node count.  So buckets keep their coverage on narrow
    graphs, and masks are held to irregular and wide ones."""

    @staticmethod
    def assert_same_as_scan(cg, palette, special_cap, node_budget):
        ref = scan_decision_search(cg, palette, special_cap, _Budget(node_budget=node_budget))
        for name, kernel in KERNELS.items():
            res = _search_with(kernel, cg, palette, special_cap, _Budget(node_budget=node_budget))
            case = (name, palette, special_cap, node_budget)
            assert res.status == ref.status, case
            assert res.nodes == ref.nodes, case
            assert (res.coloring and res.coloring.colors) == (
                ref.coloring and ref.coloring.colors
            ), case

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_FAMILY))
    def test_same_outcome_as_scan(self, name):
        cg = conflict_graph(EQUIVALENCE_FAMILY[name])
        out = exact_chi_s(cg, node_budget=20000)
        chi = out.chi_s if out.chi_s is not None else out.upper_bound
        for palette in (chi - 1, chi, chi + 1):
            for special_cap in (None, 0, 1, 3):
                for node_budget in (1, 7, 60, 2000, None if cg.n_nodes <= 15 else 5000):
                    self.assert_same_as_scan(cg, palette, special_cap, node_budget)

    @given(
        rng=st.randoms(use_true_random=False),
        palette=st.integers(0, 8),
        special_cap=st.none() | st.integers(0, 3),
        node_budget=st.integers(1, 3000),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_scan_on_random_questions(self, rng, palette, special_cap,
                                                      node_budget):
        # Both kernels, run directly, on a random simple graph on at most 14
        # vertices, with any palette, cap and node budget in these ranges.
        cg = conflict_graph(random_simple_graph(rng, 14, 24))
        self.assert_same_as_scan(cg, palette, special_cap, node_budget)

    @given(
        rng=st.randoms(use_true_random=False),
        over=st.sampled_from([(1, 1), (1, 7), (10, 3)]),
        node_budget=st.sampled_from([50, 2000]),
    )
    @settings(max_examples=200, deadline=None)
    def test_palette_above_edge_count_runs_as_edge_count(self, rng, over, node_budget):
        # An uncapped search runs a palette p = a * m + b above m as m, and
        # each kernel, run directly on p, walks the same tree as on m.
        cg = conflict_graph(random_simple_graph(rng, 12, 20))
        m = cg.n_nodes
        assume(m > 0)  # a kernel runs only on a non-empty graph
        palette = over[0] * m + over[1]

        def outcome(kernel, palette):
            budget = _Budget(node_budget=node_budget)
            status, colors = kernel(cg, palette, None, budget)
            return status, colors if status == "found" else None, budget.nodes

        for kernel in KERNELS.values():
            at_m = outcome(kernel, m)
            assert outcome(kernel, palette) == at_m
            res = _search_with(kernel, cg, palette, None, _Budget(node_budget=node_budget))
            assert (res.status, res.coloring and res.coloring.colors, res.nodes) == at_m

    @pytest.mark.parametrize("g", [5, 6, 7])
    def test_same_outcome_as_scan_on_counterexamples(self, g):
        # The k = 3, seed-1 counterexamples (m = 144 / 288 / 576): deep
        # trees on regular graphs, where every conflict degree ties and the
        # index alone breaks ties among equally saturated nodes.  Palette 7
        # finds a coloring at g = 5 and 6 well inside the budget.
        cg = conflict_graph(generate(3, g, choose_n(3, g), 1)[0])
        for palette in (6, 7):
            for special_cap in (None, 1, 3):
                self.assert_same_as_scan(cg, palette, special_cap, 2000)

    def test_same_outcome_as_scan_on_quartic_build(self):
        # The k = 4, seed-1 counterexample at girth 5 (m = 488): conflict
        # degree 24, so a mask of 8 words is narrow for it.
        cg = conflict_graph(generate(4, 5, choose_n(4, 5), 1)[0])
        for palette in (8, 9):
            for special_cap in (None, 1):
                self.assert_same_as_scan(cg, palette, special_cap, 1000)

    def test_family_reaches_every_outcome(self):
        # For each kernel the family must make the search find, refute and
        # run out of budget, and must use up a capped special color and get
        # it back on undo, also on a graph with at least 3 distinct conflict
        # degrees, where the picks after either must keep each node's degree
        # rank; or the comparison above could pass on paths a kernel never
        # takes.  A refutation under cap 1 has given the root the special
        # color and taken it back, so it used it up and regained it.
        seen = set()
        for name, kernel in KERNELS.items():
            for graph in EQUIVALENCE_FAMILY.values():
                cg = conflict_graph(graph)
                degrees = "3+ degrees" if len(set(cg.degrees)) >= 3 else "fewer degrees"
                for palette in range(2, 8):
                    res = _search_with(kernel, cg, palette, 1, _Budget(node_budget=60))
                    seen.add((name, res.status))
                    if res.status == "found" and res.coloring.usage(palette) == 1:
                        seen.add((name, "special used up", degrees))
                    if res.status == "none":
                        seen.add((name, "special used up and regained", degrees))
        assert seen == {
            (name, *outcome)
            for name in KERNELS
            for outcome in [("found",), ("none",), ("timeout",)] + [
                (spent, degrees)
                for spent in ("special used up", "special used up and regained")
                for degrees in ("3+ degrees", "fewer degrees")
            ]
        }

    def test_greedy_on_large_irregular_graph(self):
        # One color per edge: the greedy descent, with many distinct
        # conflict degrees, so the degree rank decides most picks.
        cg = conflict_graph(random_simple_graph(random.Random(9), 80, 240))
        assert cg.n_nodes >= 200
        assert len(set(cg.degrees)) >= 50
        ref = scan_decision_search(cg, cg.n_nodes, None, _Budget())
        for kernel in KERNELS.values():
            res = _search_with(kernel, cg, cg.n_nodes, None, _Budget())
            assert (res.status, res.nodes) == (ref.status, ref.nodes) == ("found", cg.n_nodes)
            assert res.coloring.colors == ref.coloring.colors == greedy_color(cg).colors


def shuffled_rows(cg, seed):
    """``cg`` with every conflict row in a seeded random order."""
    rng = random.Random(seed)
    adj = tuple(tuple(rng.sample(row, len(row))) for row in cg.adj)
    return ConflictGraph(cg.endpoints, adj, cg.degrees)


def with_called_names(fn):
    """``fn()`` and the names of the Python functions it called."""
    names = set()

    def on_call(frame, event, arg):
        names.add(frame.f_code.co_name)  # no local tracer: calls only

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(before)
    return result, names


class TestRowOrderIsFree:
    """A conflict row promises no order, so every reader must use it as a
    set: a graph whose rows are shuffled gives the same greedy coloring,
    clique bound, verify answer, search tree on either kernel, exact
    outcome and usage outcome as the graph as built."""

    @staticmethod
    def assert_same_answers(cg, seed, palettes, node_budget):
        """Compare ``cg`` with a shuffle of it; returns whether the bucket
        kernel re-keyed for the special color on the shuffled graph."""
        other = shuffled_rows(cg, seed)
        greedy = greedy_color(cg)
        assert greedy_color(other).colors == greedy.colors
        assert _clique_lower_bound(other) == _clique_lower_bound(cg)
        top = max(greedy.colors, default=0)
        for colors in (greedy.colors, [1] * cg.n_nodes, [top + 1 - c for c in greedy.colors]):
            assert verify(other, StrongColoring(colors)) == verify(cg, StrongColoring(colors))
        rekeyed = False
        for name, kernel in KERNELS.items():
            for palette in palettes:
                for special_cap in (None, 0, 1, 2):
                    def ask(graph):
                        res = _search_with(kernel, graph, palette, special_cap,
                                           _Budget(node_budget=node_budget))
                        return res.status, res.coloring and res.coloring.colors, res.nodes
                    answer, called = with_called_names(lambda: ask(other))
                    assert answer == ask(cg), (name, palette, special_cap)
                    rekeyed |= "rekey_special_neighbors" in called
        assert exact_chi_s(other, node_budget=node_budget) == exact_chi_s(cg, node_budget=node_budget)
        for k in (2, 3):
            assert (min_last_color_usage(other, k, node_budget=node_budget)
                    == min_last_color_usage(cg, k, node_budget=node_budget))
        return rekeyed

    @given(rng=st.randoms(use_true_random=False), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_rows_give_the_same_answers(self, rng, seed):
        cg = conflict_graph(random_simple_graph(rng, 12, 20))
        out = exact_chi_s(cg, node_budget=20000)
        chi = out.chi_s if out.chi_s is not None else out.upper_bound
        self.assert_same_answers(cg, seed, (chi - 1, chi, chi + 1), 2000)

    def test_shuffled_rows_give_the_same_answers_on_a_counterexample(self):
        # The k = 3, girth-7 seed-1 build: m = 576, so rows as built are
        # set orders of indices up to 575, not ascending.  Its index is 6
        # (the counting certificate, and a 6-coloring found by local
        # search), so palettes 5..8 run below, at and above it.
        cg = conflict_graph(generate(3, 7, choose_n(3, 7), 1)[0])
        assert cg.n_nodes == 576
        other = shuffled_rows(cg, 1)
        assert other.adj != cg.adj
        assert self.assert_same_answers(cg, 1, (5, 6, 7, 8), 2000)


class TestKernelChoice:
    """The search runs on masks exactly when an m-bit mask spans no more
    64-bit words than the largest conflict degree; the greedy runs on
    neither kernel."""

    @pytest.fixture
    def ran(self, monkeypatch):
        ran = []
        for name, kernel in KERNELS.items():
            def spy(*args, name=name, kernel=kernel):
                ran.append(name)
                return kernel(*args)
            monkeypatch.setattr(solver, kernel.__name__, spy)
        return ran

    @pytest.mark.parametrize("n, kernel", [(256, "masks"), (257, "buckets")])
    def test_width_rule_at_the_bound(self, ran, n, kernel):
        # Every conflict degree of C_n is 4: 256 nodes fill 4 words, 257
        # spill into a fifth.
        cg = conflict_graph(cycle_graph(n))
        assert set(cg.degrees) == {4}
        assert find_coloring(cg, 5, node_budget=2000).status == "found"
        assert ran == [kernel]

    def test_greedy_runs_on_neither_kernel(self, ran):
        # The greedy is its own loop, so it never runs on masks, even on a
        # narrow graph; exact_chi_s takes its upper bound from the greedy,
        # then decides the counts below it by the search, which runs on
        # masks here.
        cg = conflict_graph(cycle_graph(256))
        assert verify(cg, greedy_color(cg))
        assert ran == []
        exact_chi_s(cg, node_budget=2000)
        assert ran and set(ran) == {"masks"}

    def test_wide_search_peak_stays_small(self):
        # The k = 3, girth-10 seed-1 graph (m = 4608, 72 words against
        # degree 12) stays on buckets, which peak near 1.7 MB here; masks
        # would hold m-bit copies in every frame.  This is what keeps the
        # bucket kernel: masks break the bound within 2000 nodes (12.6 MB;
        # their neighbor masks alone take m^2 / 8 bytes), so this test fails
        # if buckets are dropped or the width rule is widened to this graph.
        cg = conflict_graph(generate(3, 10, choose_n(3, 10), 1)[0])
        assert cg.n_nodes == 4608
        res, _held, peak = traced(lambda: find_coloring(cg, 7, node_budget=6000))
        assert (res.status, res.nodes) == ("timeout", 6001)
        assert peak < 3_000_000
        on_masks = lambda: _search_with(_mask_kernel, cg, 7, None, _Budget(node_budget=2000))
        res, _held, peak = traced(on_masks)
        assert (res.status, res.nodes) == ("timeout", 2001)
        assert peak > 3_000_000
