import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from strongedge.graphs import MAX_VERTICES, two_coloring

from strongedge import (
    INFINITE_GIRTH,
    BipartiteGraph,
    ConstructionFailedError,
    DuplicateEdgeError,
    InvalidEdgeError,
    SimpleGraph,
    choose_n,
    conflict_graph,
    distances_from,
    edge_windows,
    generate,
    girth,
)
from _helpers import (
    bipartite_cycle,
    brute_girth,
    check_consistent,
    complete_bipartite,
    conflicts_by_definition,
    cycle_graph,
    has_edge,
    heawood_graph,
    path_graph,
    petersen_graph,
    random_simple_graph,
    star_graph,
    traced,
)


def relabeled(graph: SimpleGraph, perm: list[int]) -> SimpleGraph:
    """A copy of ``graph`` with vertex v renamed ``perm[v]``."""
    out = SimpleGraph(graph.n_vertices)
    for u, v in graph.edges():
        out.add_edge(perm[u], perm[v])
    return out


def disjoint_union(*graphs: SimpleGraph) -> SimpleGraph:
    """The graphs side by side, each on the next block of vertex ids."""
    union = SimpleGraph(sum(graph.n_vertices for graph in graphs))
    start = 0
    for graph in graphs:
        for u, v in graph.edges():
            union.add_edge(start + u, start + v)
        start += graph.n_vertices
    return union


def built_cubic(g: int) -> SimpleGraph:
    """The first forced cubic build of girth target g on 15 g vertices a side
    that completes; small enough for the brute-force oracle."""
    for seed in range(50):
        try:
            return generate(3, g, 15 * g, seed, force=True)[0]
        except ConstructionFailedError:
            continue
    raise AssertionError(f"no forced cubic build of girth {g} completed")


def adjacent(cg, i, j):
    return j in cg.adj[i]


@st.composite
def simple_graphs(draw, max_vertices=9, max_edges=16):
    n = draw(st.integers(2, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=min(max_edges, len(pairs)))
    )
    g = SimpleGraph(n)
    for u, v in chosen:
        g.add_edge(u, v)
    return g


@st.composite
def forests(draw, max_vertices=14):
    """Each vertex after the first joins an earlier one, or starts a tree."""
    n = draw(st.integers(1, max_vertices))
    g = SimpleGraph(n)
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            g.add_edge(parent, v)
    return g


@st.composite
def bipartite_graphs(draw, max_side=6):
    a = draw(st.integers(1, max_side))
    b = draw(st.integers(1, max_side))
    pairs = [(x, y) for x in range(a) for y in range(b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = BipartiteGraph(a, b)
    for x, y in chosen:
        g.add_edge(x, a + y)
    return g


class TestConstruction:
    def test_empty_bipartite(self):
        g = BipartiteGraph(3, 3)
        assert g.n_vertices == 6
        assert g.n_edges == 0
        check_consistent(g)

    def test_single_edge_capable(self):
        g = BipartiteGraph(1, 1)
        g.add_edge(0, 1)
        assert g.n_edges == 1
        assert has_edge(g, 1, 0)

    def test_shell_for_girth5_cubic(self):
        g = BipartiteGraph(48, 48)
        assert g.n_vertices == 96

    @pytest.mark.parametrize("sides", [(0, 3), (3, 0), (0, 0)])
    def test_zero_side_rejected(self, sides):
        with pytest.raises(ValueError):
            BipartiteGraph(*sides)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match=r"vertex count must be >= 0, got -1"):
            SimpleGraph(-1)

    def test_vertex_cap_checked_before_allocating(self):
        with pytest.raises(ValueError, match="cap"):
            SimpleGraph(MAX_VERTICES + 1)
        with pytest.raises(ValueError, match="cap"):
            BipartiteGraph(MAX_VERTICES // 2, MAX_VERTICES // 2 + 1)

    def test_duplicate_edge_rejected(self):
        g = BipartiteGraph(2, 2)
        g.add_edge(0, 2)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(2, 0)

    def test_c8_degrees_by_direct_count(self):
        g = bipartite_cycle(4)
        assert g.n_edges == 8
        assert g.degrees() == [2] * 8

    def test_self_loop_rejected_on_simple(self):
        g = SimpleGraph(3)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_out_of_range_indices(self):
        # the first endpoint out of range is named, whatever the other is
        g = BipartiteGraph(2, 2)
        for pair, bad in [((4, 0), 4), ((0, 4), 4), ((-1, 2), -1), ((5, -1), 5)]:
            with pytest.raises(ValueError, match=re.escape(f"vertex {bad} out of range [0, 4)")):
                g.add_edge(*pair)
        assert g.n_edges == 0

    @pytest.mark.parametrize("pair", [(0, 1), (2, 3), (3, 2), (1, 1)])
    def test_same_side_pair_rejected(self, pair):
        g = BipartiteGraph(2, 2)
        message = f"^vertices {pair[0]} and {pair[1]} are on the same side$"
        with pytest.raises(ValueError, match=message):
            g.add_edge(*pair)
        assert g.n_edges == 0

    def test_endpoints_stored_left_first(self):
        g = BipartiteGraph(2, 3)
        g.add_edge(4, 1)
        assert g.edges() == [(1, 4)]
        assert has_edge(g, 4, 1) and has_edge(g, 1, 4)
        assert g.neighbors(4) == [1] and g.neighbors(1) == [4]

    def test_high_first_edge_keeps_its_orientation(self):
        g = SimpleGraph(4)
        g.add_edge(3, 1)
        g.add_edge(0, 2)
        assert g.edges() == [(3, 1), (0, 2)]
        assert conflict_graph(g).endpoints == ((3, 1), (0, 2))
        assert has_edge(g, 1, 3) and has_edge(g, 3, 1)
        g.remove_edge(1, 3)
        assert g.edges() == [(0, 2)]

    def test_low_first_pair_is_its_own_key(self):
        # one tuple per edge; a high-first pair keeps a second, as inserted
        g = SimpleGraph(3)
        g.add_edge(0, 2)
        g.add_edge(2, 1)
        (low_key, low_pair), (high_key, high_pair) = g._edges.items()
        assert low_pair is low_key == (0, 2)
        assert high_key == (1, 2) and high_pair == (2, 1)


class TestRemoval:
    def test_remove_only_edge(self):
        g = BipartiteGraph(1, 1)
        g.add_edge(0, 1)
        g.remove_edge(1, 0)
        assert g.n_edges == 0
        assert not has_edge(g, 0, 1)
        check_consistent(g)

    def test_readd_moves_to_the_end(self):
        g = bipartite_cycle(3)
        first, *rest = g.edges()
        g.remove_edge(*first)
        g.add_edge(*first)
        assert g.edges() == rest + [first]
        assert g.n_edges == 6
        check_consistent(g)

    def test_scripted_swap_on_six_cycle(self):
        # remove one edge, add two: 6 -> 7 edges
        g = bipartite_cycle(3)
        assert g.n_edges == 6
        g.remove_edge(*g.edges()[0])
        g.add_edge(0, 4)
        g.add_edge(2, 3)
        assert g.n_edges == 7
        check_consistent(g)

    def test_absent_edge_removal_rejected(self):
        g = BipartiteGraph(2, 2)
        g.add_edge(0, 2)
        g.remove_edge(0, 2)
        for pair in [(0, 2), (2, 0), (1, 3), (0, 99)]:
            with pytest.raises(InvalidEdgeError):
                g.remove_edge(*pair)
        assert g.n_edges == 0
        check_consistent(g)

    def test_removal_keeps_order_of_the_rest(self):
        g = bipartite_cycle(3)
        edges = g.edges()
        g.remove_edge(*edges[2])
        assert g.edges() == edges[:2] + edges[3:]
        check_consistent(g)


class TestDistances:
    def test_cycle_antipode(self):
        g = cycle_graph(10)
        assert distances_from(g, [0], 10)[5] == 5

    def test_set_distance_is_min_over_sources(self):
        g = cycle_graph(10)
        both = distances_from(g, [0, 1], 10)
        from_0 = distances_from(g, [0], 10)
        from_1 = distances_from(g, [1], 10)
        for v in range(10):
            assert both[v] == min(from_0[v], from_1[v])

    def test_heawood_eccentricity_at_most_3(self):
        g = heawood_graph()
        for v in range(g.n_vertices):
            dist = distances_from(g, [v], 3)
            assert all(d >= 0 for d in dist)

    def test_cutoff_semantics(self):
        g = cycle_graph(10)
        dist = distances_from(g, [0], 2)
        assert dist[2] == 2
        assert dist[3] == -1  # beyond the cutoff

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            distances_from(cycle_graph(4), [], 1)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            distances_from(cycle_graph(4), [0], -1)


class TestGirth:
    def test_c8(self):
        assert girth(bipartite_cycle(4)) == 8

    def test_k33_via_oracle(self):
        g = complete_bipartite(3, 3)
        assert brute_girth(g) == 4
        assert girth(g) == 4

    def test_heawood_via_oracle(self):
        g = heawood_graph()
        assert brute_girth(g) == 6
        assert girth(g) == 6

    def test_forest_is_acyclic(self):
        g = path_graph = SimpleGraph(5)
        path_graph.add_edge(0, 1)
        path_graph.add_edge(1, 2)
        path_graph.add_edge(3, 4)
        assert girth(g) == INFINITE_GIRTH
        assert girth(g) >= 10  # acyclic counts as girth above any target

    def test_no_edges(self):
        assert girth(SimpleGraph(3)) == INFINITE_GIRTH

    def test_triangle(self):
        assert girth(cycle_graph(3)) == 3

    def test_matches_oracle_on_seeded_families(self):
        rng = random.Random(11)
        graphs = [random_simple_graph(rng, 12, rng.choice([8, 14, 24])) for _ in range(150)]
        for _ in range(20):  # random forests
            n = rng.randint(2, 14)
            forest = SimpleGraph(n)
            for v in range(1, n):
                if rng.random() < 0.8:
                    forest.add_edge(rng.randrange(v), v)
            graphs.append(forest)
        for n in range(3, 16, 2):  # odd cycles, bare and with a pendant path
            graphs.append(cycle_graph(n))
            tailed = SimpleGraph(n + 2)
            for i in range(n):
                tailed.add_edge(i, (i + 1) % n)
            tailed.add_edge(0, n)
            tailed.add_edge(n, n + 1)
            graphs.append(tailed)
        for k, g, n in [(3, 5, 48), (3, 6, 96), (3, 7, 192), (4, 5, 122)]:  # golden grid
            graphs.extend(generate(k, g, n, seed)[0] for seed in range(3))
        for graph in graphs:
            assert girth(graph) == brute_girth(graph)

    def test_matches_oracle_with_vertices_permuted(self):
        # The order in which vertices are visited, deleted and peeled follows
        # the vertex ids, so the same graphs under random relabelings put
        # their short cycles at every position in that order.
        rng = random.Random(23)
        graphs = [random_simple_graph(rng, 12, rng.choice([8, 14, 24])) for _ in range(60)]
        graphs += [generate(3, 6, 96, seed)[0] for seed in range(2)]
        graphs += [generate(3, 5, 48, 0)[0], heawood_graph(), petersen_graph()]
        for graph in graphs:
            for _ in range(3):
                perm = list(range(graph.n_vertices))
                rng.shuffle(perm)
                shuffled = relabeled(graph, perm)
                assert girth(shuffled) == brute_girth(shuffled) == brute_girth(graph)

    @pytest.mark.parametrize("lengths", [(9, 7, 5), (12, 8, 4), (6, 3), (10, 10, 9)])
    def test_disjoint_cycles_shortest_on_highest_ids(self, lengths):
        graph = disjoint_union(*map(cycle_graph, lengths))
        assert girth(graph) == brute_girth(graph) == min(lengths)

    @pytest.mark.parametrize("a, b, path_len", [(5, 7, 6), (8, 3, 10), (4, 4, 1), (9, 6, 0)])
    def test_two_cycles_joined_by_a_path(self, a, b, path_len):
        # C_a on the lowest ids, then the path's inner vertices, then C_b on
        # the highest; the path has path_len edges, and with 0 the two
        # cycles share one vertex.
        second = a + path_len - 1  # first vertex of C_b, the path's far end
        graph = SimpleGraph(second + b)
        for i in range(a):
            graph.add_edge(i, (i + 1) % a)
        for i in range(b):
            graph.add_edge(second + i, second + (i + 1) % b)
        for u in range(a - 1, second):
            graph.add_edge(u, u + 1)
        assert girth(graph) == brute_girth(graph) == min(a, b)

    @pytest.mark.parametrize("make", [heawood_graph, lambda: generate(3, 6, 96, 0)[0]])
    def test_deleted_vertices_stay_out_of_later_searches(self, make):
        # Deleting and peeling only save work, so no girth value shows a
        # deleted vertex coming back; the adjacency reads do.  Two-coloring
        # reads each list once and deletion once, and the searches about 1.5
        # times a vertex here; with deleted vertices let back in, 6.5 to 7.
        class CountedReads(list):
            reads = 0

            def __getitem__(self, v):
                self.reads += 1
                return super().__getitem__(v)

        graph = make()
        graph._adj = CountedReads(graph._adj)
        assert girth(graph) == 6
        assert graph._adj.reads <= 4 * graph.n_vertices

    def test_isolated_vertices_around_a_cycle(self):
        graph = SimpleGraph(12)
        for i in range(5):
            graph.add_edge(3 + i, 3 + (i + 1) % 5)
        graph.add_edge(10, 11)
        assert girth(graph) == brute_girth(graph) == 5

    def test_tombstoned_edges_before_compact(self):
        graph = heawood_graph()
        edges = graph.edges()
        graph.remove_edge(*edges[0])
        graph.remove_edge(*edges[7])
        assert girth(graph) == brute_girth(graph) == 6
        broken = cycle_graph(6)
        broken.remove_edge(*broken.edges()[2])  # one removed edge leaves a path
        assert girth(broken) == INFINITE_GIRTH

    @pytest.mark.parametrize("g", range(6, 11))
    def test_built_cubic_graphs_with_and_without_an_odd_cycle(self, g):
        # Alone, a built graph is bipartite and girth cuts each BFS off with
        # slack 2; beside an odd cycle one shorter or one longer than its
        # girth, before or after it in the id order, with slack 1.
        graph = built_cubic(g)
        measured = brute_girth(graph)
        assert measured >= g and girth(graph) == measured
        for length in (measured - 1, measured + 1):
            odd = cycle_graph(length)
            for union in (disjoint_union(graph, odd), disjoint_union(odd, graph)):
                assert girth(union) == min(measured, length)

    def test_petersen_odd_girth(self):
        graph = petersen_graph()
        assert girth(graph) == brute_girth(graph) == 5

    def test_leaves_the_graph_unchanged(self):
        rng = random.Random(5)
        graphs = [random_simple_graph(rng, 12, 20) for _ in range(20)]
        removed = heawood_graph()
        removed.remove_edge(*removed.edges()[3])
        graphs += [generate(3, 6, 96, 0)[0], petersen_graph(), removed, SimpleGraph(4)]
        for graph in graphs:
            edges = graph.edges()
            adjacency = [graph.neighbors(v) for v in range(graph.n_vertices)]
            girth(graph)
            check_consistent(graph)
            assert graph.edges() == edges
            assert [graph.neighbors(v) for v in range(graph.n_vertices)] == adjacency
            assert girth(graph) == brute_girth(graph)


def as_simple(graph: SimpleGraph) -> SimpleGraph:
    """A plain copy of ``graph``: the same vertex ids and edges."""
    out = SimpleGraph(graph.n_vertices)
    for u, v in graph.edges():
        out.add_edge(u, v)
    return out


def as_bipartite(graph: SimpleGraph) -> BipartiteGraph:
    """``graph``, which has no odd cycle, as a :class:`BipartiteGraph`: the
    sides of its 2-coloring numbered one after the other, and one isolated
    right vertex added when every vertex is on the left."""
    side, clash = two_coloring(graph)
    assert clash is None
    order = sorted(range(graph.n_vertices), key=lambda v: (side[v], v))
    position = {v: i for i, v in enumerate(order)}
    n_left = side.count(0)
    out = BipartiteGraph(n_left, max(graph.n_vertices - n_left, 1))
    for u, v in graph.edges():
        out.add_edge(position[u], position[v])
    return out


class TestGirthSlackFromType:
    """A BipartiteGraph gets slack 2 from its type, with no 2-coloring, so
    its girth must match a plain copy's, which is 2-colored for it."""

    @staticmethod
    def assert_same_girth(graph: BipartiteGraph):
        plain = as_simple(graph)
        assert girth(graph) == girth(plain) == brute_girth(plain)

    @given(bipartite_graphs())
    @settings(max_examples=80, deadline=None)
    def test_random_bipartite_graphs(self, graph):
        self.assert_same_girth(graph)

    @given(forests())
    @settings(max_examples=60, deadline=None)
    def test_forests(self, forest):
        graph = as_bipartite(forest)
        assert girth(graph) == INFINITE_GIRTH
        self.assert_same_girth(graph)

    def test_even_cycles(self):
        for n in range(2, 12):
            self.assert_same_girth(bipartite_cycle(n))
            assert girth(bipartite_cycle(n)) == girth(cycle_graph(2 * n)) == 2 * n

    def test_disjoint_unions(self):
        rng = random.Random(3)
        pieces = [heawood_graph(), complete_bipartite(2, 3), bipartite_cycle(5), path_graph(4)]
        for _ in range(30):
            union = disjoint_union(*rng.sample(pieces, rng.randint(1, len(pieces))))
            self.assert_same_girth(as_bipartite(union))

    def test_only_a_plain_graph_is_two_colored(self, monkeypatch):
        import strongedge.graphs

        calls = []

        def counted(graph):
            calls.append(type(graph).__name__)
            return two_coloring(graph)

        monkeypatch.setattr(strongedge.graphs, "two_coloring", counted)
        assert girth(heawood_graph()) == girth(as_simple(heawood_graph())) == 6
        assert calls == ["SimpleGraph"]

    def test_odd_cycles_beside_even_ones(self):
        # A plain graph with an odd cycle keeps slack 1: with slack 2 the
        # cut-off 2 * du + 2 >= best would stop the 5-cycle's BFS at depth
        # 2, once a 6-cycle has set best, before its closing edge is seen.
        for pieces in [(cycle_graph(6), cycle_graph(5)), (cycle_graph(5), cycle_graph(6)),
                       (heawood_graph(), cycle_graph(5)), (cycle_graph(4), cycle_graph(3))]:
            union = disjoint_union(*pieces)
            assert girth(union) == brute_girth(union) == min(map(brute_girth, pieces))


class TestConflictGraph:
    def test_k33_is_complete(self):
        g = complete_bipartite(3, 3)
        cg = conflict_graph(g)
        assert cg.n_nodes == 9
        for e in range(9):
            for f in range(9):
                assert conflicts_by_definition(g, e, f) == (e != f)
                assert adjacent(cg, e, f) == (e != f)

    def test_single_edge(self):
        g = BipartiteGraph(1, 1)
        g.add_edge(0, 1)
        cg = conflict_graph(g)
        assert cg.n_nodes == 1
        assert cg.degrees == (0,)

    def test_c8_every_edge_conflicts_with_four(self):
        g = cycle_graph(8)
        cg = conflict_graph(g)
        assert cg.degrees == (4,) * 8
        for e in range(8):
            expected = {f for f in range(8) if conflicts_by_definition(g, e, f)}
            assert set(cg.adj[e]) == expected

    def test_tombstoned_graph_uses_live_edges(self):
        g = bipartite_cycle(4)
        removed = g.edges()[3]
        g.remove_edge(*removed)
        cg = conflict_graph(g)
        assert cg.n_nodes == 7
        assert removed not in cg.endpoints
        assert cg.endpoints == tuple(g.edges())


class TestMemory:
    """tracemalloc figures on the k = 3, girth-8, seed-1 build (m = 1152)."""

    def test_conflict_graph_peak_within_twice_its_result(self):
        graph = generate(3, 8, choose_n(3, 8), 1)[0]
        cg, held, peak = traced(conflict_graph, graph)
        assert cg.n_nodes == 1152
        # per-vertex sets of reach put the peak at 4.1 times the result;
        # per-vertex tuples, freed incidence lists first, at 1.5
        assert peak <= 2 * held


class TestClosedEdgeNeighborhood:
    def test_c8_window_is_three(self):
        windows = edge_windows(bipartite_cycle(4).edges())
        assert [len(w) for w in windows] == [3] * 8  # 2k-1 at k=2

    def test_k33_window_is_five(self):
        windows = edge_windows(complete_bipartite(3, 3).edges())
        assert [len(w) for w in windows] == [5] * 9  # 2k-1 at k=3

    def test_star_leaf_edge(self):
        assert len(edge_windows(star_graph(3).edges())[0]) == 3

    def test_includes_self(self):
        for i, window in enumerate(edge_windows(bipartite_cycle(3).edges())):
            assert i in window


class TestProperties:
    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bipartite_girth_parity(self, g):
        value = girth(g)
        assert value == brute_girth(g)
        if value != INFINITE_GIRTH:
            assert value % 2 == 0

    @given(forests())
    @settings(max_examples=60, deadline=None)
    def test_forests_have_infinite_girth(self, g):
        assert girth(g) == brute_girth(g) == INFINITE_GIRTH

    @given(simple_graphs())
    @settings(max_examples=60, deadline=None)
    def test_conflict_symmetric_irreflexive_and_correct(self, g):
        cg = conflict_graph(g)
        m = cg.n_nodes
        assert isinstance(cg.adj, tuple)
        for i in range(m):
            row = cg.adj[i]
            assert isinstance(row, tuple)
            assert all(a < b for a, b in zip(row, row[1:]))  # strictly ascending
            assert cg.degrees[i] == len(row)
            assert not adjacent(cg, i, i)
            for j in range(m):
                assert adjacent(cg, i, j) == adjacent(cg, j, i)
                assert adjacent(cg, i, j) == conflicts_by_definition(g, i, j)

    @given(simple_graphs())
    @settings(max_examples=60, deadline=None)
    def test_closed_neighborhood_is_clique(self, g):
        cg = conflict_graph(g)
        edges = g.edges()
        for e, window in enumerate(edge_windows(edges)):
            nodes = list(window)
            assert nodes == [f for f, pair in enumerate(edges) if set(pair) & set(edges[e])]
            for i in nodes:
                for j in nodes:
                    assert i == j or adjacent(cg, i, j)

    @given(simple_graphs())
    @settings(max_examples=60, deadline=None)
    def test_girth_matches_oracle(self, g):
        assert girth(g) == brute_girth(g)

    @given(simple_graphs(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_truncated_bfs_agrees_with_full(self, g, cutoff):
        full = distances_from(g, [0], g.n_vertices + 1)
        trunc = distances_from(g, [0], cutoff)
        for v in range(g.n_vertices):
            d = full[v]
            if 0 <= d <= cutoff:
                assert trunc[v] == d
            else:
                assert trunc[v] == -1

    def test_regularity_edge_count(self):
        # k-regular on 2n vertices has k*n edges
        for graph, k in [(bipartite_cycle(6), 2), (heawood_graph(), 3), (complete_bipartite(4, 4), 4)]:
            assert graph.is_regular(k)
            assert graph.n_edges == k * graph.n_vertices // 2

    def test_random_graph_consistency(self):
        import random

        rng = random.Random(7)
        for _ in range(30):
            g = random_simple_graph(rng)
            check_consistent(g)
