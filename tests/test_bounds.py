import pytest

from strongedge import (
    NotRegularError,
    SimpleGraph,
    StrongColoring,
    check_class_sizes,
    conflict_graph,
    counting_certificate,
    exact_chi_s,
    greedy_color,
    verify,
)
from _helpers import (
    bipartite_cycle,
    brute_force_chi_s,
    complete_bipartite,
    cycle_graph,
    heawood_graph,
    star_graph,
    window_hits,
)


class TestCertificate:
    def test_heawood(self):
        cert = counting_certificate(heawood_graph(), 3)
        assert cert.window == 5
        assert cert.m == 21
        assert not cert.divisible  # 21 mod 5 = 1
        assert cert.chi_s_lower == 6
        assert cert.max_class_size == 4
        assert cert.regularity_checked

    def test_k33(self):
        cert = counting_certificate(complete_bipartite(3, 3), 3)
        assert cert.m == 9
        assert not cert.divisible  # 9 mod 5 = 4
        assert cert.chi_s_lower == 6
        assert cert.max_class_size == 1

    def test_c9_divisible_case(self):
        # not bipartite, but 2-regular: the certificate still applies
        cert = counting_certificate(cycle_graph(9), 2)
        assert cert.window == 3
        assert cert.divisible
        assert cert.chi_s_lower == 3
        assert cert.max_class_size == 3

    def test_not_regular_rejected(self):
        with pytest.raises(NotRegularError):
            counting_certificate(star_graph(3), 3)
        with pytest.raises(NotRegularError):
            counting_certificate(heawood_graph(), 2)

    def test_empty_graph_rejected(self):
        # no edge, so no window clique: chi_s is 0 and no bound may be claimed
        with pytest.raises(NotRegularError):
            counting_certificate(SimpleGraph(0), 3)

    def test_json_fields_exact(self):
        cert = counting_certificate(heawood_graph(), 3)
        assert cert._asdict() == {
            "k": 3,
            "m": 21,
            "window": 5,
            "max_class_size": 4,
            "divisible": False,
            "chi_s_lower": 6,
            "regularity_checked": True,
        }

    def test_cap_times_window_never_exceeds_m(self):
        for g, k in [(heawood_graph(), 3), (cycle_graph(9), 2), (complete_bipartite(4, 4), 4)]:
            cert = counting_certificate(g, k)
            assert cert.max_class_size * cert.window <= cert.m
            if not cert.divisible:
                assert cert.max_class_size * cert.window < cert.m


class TestAveragingIdentity:
    """The window identity (2k-1)|C| = sum over windows of |C in window|
    holds for every class of a k-regular graph by double counting.  At most
    one hit per window is what ``verify`` decides, since each window is a
    clique of the conflict graph, and the cap that follows is what
    ``check_class_sizes`` holds a coloring to."""

    def test_valid_coloring_of_c8_every_color(self):
        g = bipartite_cycle(4)
        phi = greedy_color(conflict_graph(g))
        for color in range(1, phi.n_colors + 1):
            hits = window_hits(g, phi.colors, color)
            assert sum(hits) == 3 * phi.usage(color)
            assert max(hits) <= 1
        assert check_class_sizes(g, 2, phi).ok

    def test_singleton_class_in_k33(self):
        g = complete_bipartite(3, 3)
        phi = StrongColoring(list(range(1, 10)))  # all distinct
        assert verify(conflict_graph(g), phi)
        assert sum(window_hits(g, phi.colors, 1)) == 5
        assert check_class_sizes(g, 3, phi).counts[1] == 1

    def test_empty_class(self):
        g = bipartite_cycle(4)
        phi = greedy_color(conflict_graph(g))
        assert sum(window_hits(g, phi.colors, phi.n_colors + 7)) == 0
        assert phi.n_colors + 7 not in check_class_sizes(g, 2, phi).counts

    def test_corrupted_coloring_flagged(self):
        g = complete_bipartite(3, 3)
        colors = list(range(1, 10))
        colors[1] = 1  # two edges of the complete conflict graph share a color
        assert max(window_hits(g, colors, 1)) == 2
        assert not verify(conflict_graph(g), StrongColoring(colors))
        assert check_class_sizes(g, 3, StrongColoring(colors)).offenders == (1,)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify(conflict_graph(bipartite_cycle(4)), StrongColoring([1, 2]))

    def test_not_regular_rejected(self):
        with pytest.raises(NotRegularError):
            check_class_sizes(star_graph(3), 3, StrongColoring([1, 2, 3]))


class TestClassSizes:
    def test_heawood_solver_coloring_within_cap(self):
        g = heawood_graph()
        outcome = exact_chi_s(conflict_graph(g))
        report = check_class_sizes(g, 3, outcome.coloring)
        assert report.ok
        assert report.cap == 4
        assert sum(report.counts.values()) == 21

    def test_k33_all_singletons(self):
        g = complete_bipartite(3, 3)
        outcome = exact_chi_s(conflict_graph(g))
        report = check_class_sizes(g, 3, outcome.coloring)
        assert report.ok
        assert set(report.counts.values()) == {1}

    def test_deliberately_corrupted_coloring_flagged(self):
        g = complete_bipartite(3, 3)
        report = check_class_sizes(g, 3, StrongColoring([1, 1, 2, 2, 3, 3, 4, 4, 5]))
        assert not report.ok
        assert report.offenders == (1, 2, 3, 4)


class TestBoundSandwich:
    def test_lower_at_most_exact_at_most_greedy(self):
        instances = [
            (bipartite_cycle(4), 2),
            (bipartite_cycle(5), 2),
            (cycle_graph(9), 2),
            (complete_bipartite(3, 3), 3),
            (heawood_graph(), 3),
        ]
        for g, k in instances:
            cg = conflict_graph(g)
            cert = counting_certificate(g, k)
            exact = exact_chi_s(cg)
            assert exact.status == "exact"
            assert cert.chi_s_lower <= exact.chi_s <= greedy_color(cg).n_colors

    def test_certificate_lower_bounds_brute_force(self):
        for g, k in [(bipartite_cycle(4), 2), (cycle_graph(7), 2), (complete_bipartite(3, 3), 3)]:
            cert = counting_certificate(g, k)
            assert cert.chi_s_lower <= brute_force_chi_s(conflict_graph(g))
