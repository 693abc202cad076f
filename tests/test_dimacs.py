import pytest

from strongedge import (
    BipartiteGraph,
    DimacsParseError,
    SimpleGraph,
    generate,
    parse_dimacs,
    serialize_dimacs,
)
from strongedge.graphs import MAX_VERTICES
from _helpers import bipartite_cycle, heawood_graph


def normalized_edges(g):
    return sorted((u, v) if u < v else (v, u) for u, v in g.edges())


class TestParse:
    def test_minimal(self):
        g = parse_dimacs("p edge 2 1\ne 1 2\n")
        assert isinstance(g, SimpleGraph)
        assert g.n_vertices == 2
        assert g.edges() == [(0, 1)]

    def test_heawood_round_trip(self):
        text = serialize_dimacs(heawood_graph())
        g = parse_dimacs(text)
        assert isinstance(g, BipartiteGraph)
        assert g.n_vertices == 14
        assert g.n_edges == 21
        assert serialize_dimacs(g) == text

    def test_comments_and_blank_lines_ignored(self):
        g = parse_dimacs("c a comment\n\np edge 3 1\nc another\ne 1 3\n")
        assert g.n_edges == 1

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert "duplicate" in str(exc.value)
        assert exc.value.line_no == 3

    def test_malformed_line_reports_line(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p edge 2 1\nq 1 2\n")
        assert exc.value.line_no == 2

    def test_count_mismatch(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("p edge 3 2\ne 1 2\n")
        assert "declares 2" in str(exc.value)

    def test_edge_before_header(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("e 1 2\np edge 2 1\n")

    def test_missing_header(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("c nothing here\n")

    def test_vertex_count_above_the_cap_names_the_header(self):
        with pytest.raises(DimacsParseError, match="cap") as exc:
            parse_dimacs(f"c size\np edge {MAX_VERTICES + 1} 0\n")
        assert exc.value.line_no == 2

    def test_endpoint_out_of_range(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p edge 2 1\ne 1 5\n")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p edge 2 1\ne 1 1\n")

    def test_bipartition_honored(self):
        g = parse_dimacs("c bipartition 2 2\np edge 4 2\ne 1 3\ne 2 4\n")
        assert isinstance(g, BipartiteGraph)
        assert g.n_left == 2

    def test_bipartition_violating_edge(self):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs("c bipartition 2 2\np edge 4 1\ne 1 2\n")
        assert "cross" in str(exc.value)

    def test_bipartition_count_mismatch(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("c bipartition 2 3\np edge 4 0\n")


class TestSerialize:
    def test_empty_graph_header_only(self):
        assert serialize_dimacs(SimpleGraph(3)) == "p edge 3 0\n"

    def test_c8_sorted_edge_lines(self):
        text = serialize_dimacs(bipartite_cycle(4))
        lines = text.splitlines()
        assert lines[0] == "c bipartition 4 4"
        assert lines[1] == "p edge 8 8"
        edge_lines = lines[2:]
        assert len(edge_lines) == 8
        assert edge_lines == sorted(edge_lines, key=lambda s: tuple(map(int, s.split()[1:])))

    def test_generated_graph_round_trip(self):
        graph, _ = generate(3, 4, 24, seed=5)
        text = serialize_dimacs(graph)
        assert text.splitlines()[0] == "c bipartition 24 24"
        assert sum(1 for line in text.splitlines() if line.startswith("e ")) == 72
        back = parse_dimacs(text)
        assert normalized_edges(back) == normalized_edges(graph)
        assert serialize_dimacs(back) == text

    def test_round_trip_with_tombstones(self):
        g = bipartite_cycle(4)
        g.remove_edge(*g.edges()[0])
        back = parse_dimacs(serialize_dimacs(g))
        assert back.n_edges == 7
        assert normalized_edges(back) == normalized_edges(g)
