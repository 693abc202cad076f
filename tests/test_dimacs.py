import re

import pytest
from hypothesis import given, settings, strategies as st

from strongedge import (
    BipartiteGraph,
    DimacsParseError,
    SimpleGraph,
    choose_n,
    conflict_graph,
    generate,
    load_dimacs,
    parse_dimacs,
    serialize_dimacs,
)
from strongedge.graphs import MAX_VERTICES
from _helpers import bipartite_cycle, heawood_graph, traced

# where str.splitlines() breaks a line and "\n"-based readers do not
OTHER_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def normalized_edges(g):
    return sorted((u, v) if u < v else (v, u) for u, v in g.edges())


@st.composite
def graphs_with_removals(draw):
    """A plain or bipartite graph, each edge added in a drawn orientation,
    then some edges removed again."""
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        g = BipartiteGraph(a, b)
        pairs = [(x, a + y) for x in range(a) for y in range(b)]
    else:
        n = draw(st.integers(0, 9))
        g = SimpleGraph(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for u, v in chosen:
        g.add_edge(*((v, u) if draw(st.booleans()) else (u, v)))
    for u, v in chosen[: draw(st.integers(0, len(chosen)))]:
        g.remove_edge(u, v)
    return g


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

    @pytest.mark.parametrize("sep", OTHER_LINE_BREAKS, ids=ascii)
    def test_only_newline_ends_a_line(self, sep):
        # the text after sep stays in the comment, as a line-based reader has it
        g = parse_dimacs(f"p edge 3 1\ne 1 2\nc note{sep}e 2 3\n")
        assert g.edges() == [(0, 1)]
        with pytest.raises(DimacsParseError, match="declares 2 edges but file has 1"):
            parse_dimacs(f"p edge 3 2\ne 1 2\nc note{sep}e 2 3\n")
        with pytest.raises(DimacsParseError, match="self-loop") as exc:
            parse_dimacs(f"c one{sep}two\np edge 2 1\ne 1 1\n")
        assert exc.value.line_no == 3

    def test_load_reads_the_bytes_certify_hashes(self, tmp_path):
        # no newline translation on read: a bare "\r" stays inside its line
        path = tmp_path / "cr.dimacs"
        path.write_bytes(b"p edge 3 1\ne 1 2\nc note\re 2 3\n")
        assert load_dimacs(path).edges() == [(0, 1)]

    def test_bytes_parse_as_their_utf8_text(self):
        # decoding keeps every UTF-8 file as it was; only other bytes change
        text = "c é　 \nc bipartition 1 1\np edge 2 1\ne 1 2\n"
        graph = parse_dimacs(text.encode())
        assert isinstance(graph, BipartiteGraph)
        assert graph.edges() == parse_dimacs(text).edges() == [(0, 1)]

    def test_crlf_line_ends(self):
        g = parse_dimacs("c bipartition 1 2\r\np edge 3 2\r\ne 1 2\r\ne 3 1\r\n")
        assert isinstance(g, BipartiteGraph)
        assert g.edges() == [(0, 1), (0, 2)]

    def test_high_first_line_keeps_its_orientation(self):
        g = parse_dimacs("p edge 3 2\ne 3 1\ne 2 3\n")
        assert g.edges() == [(2, 0), (1, 2)]
        assert conflict_graph(g).endpoints == ((2, 0), (1, 2))

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_removals())
    def test_round_trip_keeps_class_sides_edges_and_bytes(self, g):
        text = serialize_dimacs(g)
        back = parse_dimacs(text)
        assert type(back) is type(g)
        assert back.n_vertices == g.n_vertices
        if isinstance(g, BipartiteGraph):
            assert (back.n_left, back.n_right) == (g.n_left, g.n_right)
            assert all(u < g.n_left <= v for u, v in back.edges())
        assert normalized_edges(back) == normalized_edges(g)
        assert serialize_dimacs(back) == text

    def test_plain_lines_high_first_keep_their_order(self):
        lines = "e 5 1\ne 4 2\nc note\ne 3 1\ne 5 2\n"
        plain = parse_dimacs("p edge 5 4\n" + lines)
        assert type(plain) is SimpleGraph
        assert plain.edges() == [(4, 0), (3, 1), (2, 0), (4, 1)]
        # the same lines under a bipartition are stored left first
        bipartite = parse_dimacs("c bipartition 2 3\np edge 5 4\n" + lines)
        assert bipartite.edges() == [(0, 4), (1, 3), (0, 2), (1, 4)]

    @pytest.mark.parametrize(
        "body, message",
        [
            # two faults each found while the lines are read
            ("e 1 9\ne 2 2\n", "line 3: endpoint out of range 1..4"),
            ("e 2 2\nq\n", "line 3: self-loop at vertex 2"),
            ("e 1 x\ne 1 2 3\n", "line 3: endpoints must be integers"),
            # two faults each found while the edges go in
            ("e 1 3\ne 1 3\ne 1 2\n", "line 4: duplicate edge"),
            ("e 1 3\ne 1 2\ne 3 1\n", "line 4: edge (1, 2) does not cross the bipartition"),
        ],
    )
    def test_earlier_of_two_faulty_lines_is_reported(self, body, message):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs(f"c bipartition 2 2\np edge 4 3\n{body}")
        assert str(exc.value) == message

    def test_line_faults_come_before_insert_faults(self):
        # a duplicate or a same-side edge shows only when the whole file is read
        for body in ["e 1 3\ne 3 1\ne 2 2\n", "e 1 2\ne 1 3\ne 2 2\n"]:
            with pytest.raises(DimacsParseError) as exc:
                parse_dimacs(f"c bipartition 2 2\np edge 4 3\n{body}")
            assert str(exc.value) == "line 5: self-loop at vertex 2"

    def test_edges_share_one_int_per_vertex(self):
        # ids above 257 name ints that CPython does not cache
        g = parse_dimacs("p edge 1000 3\ne 1000 999\ne 999 998\ne 1000 998\n")
        (a, b), (c, d), (e, f) = g.edges()
        assert (a, b, d) == (999, 998, 997)
        assert c is b and e is a and f is d

    def test_parsed_graph_holds_under_210_bytes_an_edge(self):
        text = serialize_dimacs(generate(3, 8, choose_n(3, 8), 1)[0])
        graph, held, _peak = traced(parse_dimacs, text)
        assert graph.n_edges == 1152
        # 252 B with a second tuple per edge and a fresh int per endpoint;
        # 167 B with one tuple per edge and one int per vertex
        assert held / graph.n_edges < 210

    def test_parse_peaks_under_200_bytes_an_edge(self):
        text = serialize_dimacs(generate(3, 8, choose_n(3, 8), 1)[0])
        graph, _held, peak = traced(parse_dimacs, text)
        # 305 B with a (line_no, u, v) tuple buffered per edge line; 182 B
        # with the endpoints flat in an int array
        assert peak / graph.n_edges <= 200

    def test_duplicate_edge_reports_line(self):
        for text, line_no in [
            ("p edge 2 2\ne 1 2\ne 2 1\n", 3),
            ("c bipartition 2 2\np edge 4 3\ne 1 3\ne 2 4\ne 3 1\n", 5),
        ]:
            with pytest.raises(DimacsParseError) as exc:
                parse_dimacs(text)
            assert "duplicate" in str(exc.value)
            assert exc.value.line_no == line_no

    def test_malformed_line_reports_line(self):
        cases = [
            ("p edge 2 1\nq 1 2\n", "unrecognized line 'q 1 2'", 2),
            ("p edge 2 1\ne 1 2 3\n", "expected 'e <u> <v>', got 'e 1 2 3'", 2),
            ("p edge 2 1\ne 1 x\n", "endpoints must be integers", 2),
            ("c bipartition 1\np edge 2 1\ne 1 2\n", "bipartition comment needs exactly two counts", 1),
            ("c bipartition 1 two\np edge 2 1\ne 1 2\n", "bipartition counts must be integers", 1),
            ("c bipartition 0 2\np edge 2 1\ne 1 2\n", "bipartition sides must be >= 1", 1),
            ("p edge 2 0\np edge 2 0\n", "duplicate problem line", 2),
            ("c x\np col 2 1\ne 1 2\n", "expected 'p edge <V> <E>', got 'p col 2 1'", 2),
            ("p edge 2 one\n", "counts must be integers", 1),
            ("p edge 2 -1\n", "counts must be >= 0", 1),
            ("p edge -2 0\n", "counts must be >= 0", 1),
        ]
        for text, message, line_no in cases:
            with pytest.raises(DimacsParseError) as exc:
                parse_dimacs(text)
            assert (exc.value.line_no, str(exc.value)) == (line_no, f"line {line_no}: {message}")

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
        with pytest.raises(DimacsParseError, match="out of range") as exc:
            parse_dimacs("p edge 2 2\ne 1 2\ne 1 5\n")
        assert exc.value.line_no == 3

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("p edge 2 1\ne 1 1\n")

    def test_bipartition_honored(self):
        g = parse_dimacs("c bipartition 2 2\np edge 4 2\ne 1 3\ne 2 4\n")
        assert isinstance(g, BipartiteGraph)
        assert g.n_left == 2

    def test_bipartition_violating_edge(self):
        # the 1-based endpoints as the line names them, in its order
        for line in ["e 1 2", "e 4 3"]:
            with pytest.raises(DimacsParseError) as exc:
                parse_dimacs(f"c bipartition 2 2\np edge 4 2\ne 1 3\n{line}\n")
            u, v = line.split()[1:]
            assert str(exc.value) == f"line 4: edge ({u}, {v}) does not cross the bipartition"
            assert exc.value.line_no == 4

    def test_bipartition_count_mismatch(self):
        with pytest.raises(DimacsParseError):
            parse_dimacs("c bipartition 2 3\np edge 4 0\n")


# a file whose line 2 is its bipartition, line 3 its header and line 4 an edge
RULE_LINES = ["c first", "c bipartition 2 2", "p edge 4 1", "e 1 3"]
RULE_MESSAGES = {
    2: "bipartition counts must be integers",
    3: "counts must be integers",
    4: "endpoints must be integers",
}
# what int() takes and a DIMACS reader does not: a sign, an underscore,
# digits of other scripts, and fields split by non-ASCII whitespace
NOT_DIMACS = {
    "plus": lambda line: line[:-1] + "+3",
    "underscore": lambda line: line[:-1] + "1_0",
    "arabic-indic": lambda line: line[:-1] + "\u0663",
    "fullwidth": lambda line: line[:-1] + "\uff14",
    "ideographic-space": lambda line: line[:-2] + "\u3000" + line[-1],
    "no-break-space": lambda line: line[:-2] + "\u00a0" + line[-1],
}


def rule_text(line_no, line):
    """The text of ``RULE_LINES`` with line ``line_no`` replaced by ``line``."""
    lines = list(RULE_LINES)
    lines[line_no - 1] = line
    return "\n".join(lines) + "\n"


class TestNumberRule:
    """Counts and endpoints are ``-?[0-9]+`` in ASCII, on ASCII lines."""

    def test_the_file_the_table_breaks_parses(self):
        g = parse_dimacs("\n".join(RULE_LINES) + "\n")
        assert isinstance(g, BipartiteGraph)
        assert g.edges() == [(0, 2)]

    @pytest.mark.parametrize("form", NOT_DIMACS)
    @pytest.mark.parametrize("line_no", RULE_MESSAGES, ids=["bipartition", "p", "e"])
    def test_non_dimacs_number_is_refused_on_its_line(self, line_no, form):
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs(rule_text(line_no, NOT_DIMACS[form](RULE_LINES[line_no - 1])))
        assert exc.value.line_no == line_no
        assert str(exc.value) == f"line {line_no}: {RULE_MESSAGES[line_no]}"

    @pytest.mark.parametrize(
        "line_no, line, message",
        [
            (2, "c bipartition -2 2", "bipartition sides must be >= 1"),
            (4, "e 1 -3", "endpoint out of range 1..4"),
            (4, "e -0 3", "endpoint out of range 1..4"),
        ],
    )
    def test_leading_minus_parses_and_fails_the_range_check(self, line_no, line, message):
        # the header's negative counts are in test_malformed_line_reports_line
        with pytest.raises(DimacsParseError) as exc:
            parse_dimacs(rule_text(line_no, line))
        assert str(exc.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize(
        "text",
        [
            "c Lužar–Mačajová–Škoviera–Soták\n"
            "c bipartition 2 2\np edge 4 1\ne 1 3\n",
            "c bipartition 02 2\np edge 004 01\ne 01 03\n",
            "c first\r\nc bipartition 2 2\r\np edge 4 1\r\ne 1 3\r\n",
            "c\tfirst\nc\tbipartition\t2\t2\np\tedge\t4\t1\ne\t1\t3\n",
        ],
        ids=["utf8-comment", "leading-zeros", "crlf", "tab"],
    )
    def test_dimacs_numbers_still_parse(self, text):
        g = parse_dimacs(text)
        assert isinstance(g, BipartiteGraph)
        assert (g.n_left, g.n_right, g.edges()) == (2, 2, [(0, 2)])

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(st.one_of(st.sampled_from("0123456789-+_"), st.characters()), min_size=1, max_size=5)
        .filter(lambda field: field.split() == [field])
    )
    def test_an_endpoint_is_read_iff_it_is_ascii_digits(self, field):
        text = f"p edge 9 1\ne 1 {field}\n"
        if not re.fullmatch(r"-?[0-9]+", field):
            with pytest.raises(DimacsParseError) as exc:
                parse_dimacs(text)
            assert str(exc.value) == "line 2: endpoints must be integers"
        elif 2 <= int(field) <= 9:
            assert parse_dimacs(text).edges() == [(0, int(field) - 1)]
        else:
            with pytest.raises(DimacsParseError, match="line 2: (endpoint out of range|self-loop)"):
                parse_dimacs(text)


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
