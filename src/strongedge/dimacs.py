"""DIMACS edge-format reader and writer.

The format is the usual ``p edge <V> <E>`` header with 1-based ``e <u> <v>``
lines, extended with an optional comment ``c bipartition <n_left> <n_right>``,
which may appear once, as the header may.  When the bipartition comment is
present the parser returns a :class:`BipartiteGraph` (left side 1..n_left,
right side n_left+1..V) and validates that every edge crosses sides;
otherwise it returns a :class:`SimpleGraph`.  Counts and endpoints are
ASCII decimal numbers, as other DIMACS readers take them; a comment may
hold any bytes.

Serialization is canonical: bipartition comment first (if any), then the
header, then edges sorted by normalized endpoint pair, so identical graphs
always produce byte-identical files.
"""

from __future__ import annotations

from array import array
from itertools import islice
from pathlib import Path

from .errors import DimacsParseError, DuplicateEdgeError
from .graphs import MAX_VERTICES, BipartiteGraph, SimpleGraph


def parse_dimacs(text: str | bytes) -> SimpleGraph | BipartiteGraph:
    """Parse DIMACS text, or a file's bytes, into a graph.

    Bytes are decoded as UTF-8, each byte that is not UTF-8 kept as a lone
    surrogate, so a comment may hold any bytes, and such a byte on another
    line is that line's own error.  Raises :class:`DimacsParseError` (with
    the offending line number) on a malformed line, a vertex count above
    :data:`~strongedge.graphs.MAX_VERTICES`, a second problem or
    bipartition line, a header/body count mismatch, or a duplicate edge.
    """
    if isinstance(text, bytes):
        text = text.decode(errors="surrogateescape")
    n_vertices: int | None = None
    n_edges_declared: int | None = None
    bipartition: tuple[int, int] | None = None
    # each edge line's 1-based u and v in turn, flat: no tuple or int is held
    # per edge, and an edge's line number is found again only for an error
    ends = array("i")  # endpoints are at most MAX_VERTICES

    # only "\n" ends a line, as for a line-based reader; split() drops a "\r"
    for line_no, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if n_vertices is None:
                raise DimacsParseError("edge line before problem line", line_no)
            if len(parts) != 3:
                raise DimacsParseError(f"expected 'e <u> <v>', got {raw.strip()!r}", line_no)
            u, v = _two_ints(raw, parts, 1, "endpoints", line_no)
            if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
                raise DimacsParseError(f"endpoint out of range 1..{n_vertices}", line_no)
            if u == v:
                raise DimacsParseError(f"self-loop at vertex {u}", line_no)
            ends.extend((u, v))
        elif parts[:2] == ["c", "bipartition"]:
            if bipartition is not None:
                raise DimacsParseError("duplicate bipartition line", line_no)
            if len(parts) != 4:
                raise DimacsParseError("bipartition comment needs exactly two counts", line_no)
            bipartition = _two_ints(raw, parts, 2, "bipartition counts", line_no)
            if min(bipartition) < 1:
                raise DimacsParseError("bipartition sides must be >= 1", line_no)
        elif kind == "p":
            if n_vertices is not None:
                raise DimacsParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise DimacsParseError(
                    f"expected 'p edge <V> <E>', got {raw.strip()!r}", line_no
                )
            n_vertices, n_edges_declared = _two_ints(raw, parts, 2, "counts", line_no)
            if n_vertices < 0 or n_edges_declared < 0:
                raise DimacsParseError("counts must be >= 0", line_no)
            if n_vertices > MAX_VERTICES:
                raise DimacsParseError(
                    f"vertex count {n_vertices} exceeds the cap of {MAX_VERTICES}", line_no
                )
        elif kind != "c":
            raise DimacsParseError(f"unrecognized line {raw.strip()!r}", line_no)

    if n_vertices is None:
        raise DimacsParseError("missing 'p edge' problem line")
    if len(ends) // 2 != n_edges_declared:
        raise DimacsParseError(
            f"header declares {n_edges_declared} edges but file has {len(ends) // 2}"
        )
    if bipartition is None:
        graph = SimpleGraph(n_vertices)
    elif sum(bipartition) == n_vertices:
        graph = BipartiteGraph(*bipartition)
    else:
        a, b = bipartition
        raise DimacsParseError(f"bipartition {a}+{b} does not match vertex count {n_vertices}")

    vertex = list(range(-1, n_vertices))  # 1-based id -> its one 0-based int
    add, pairs = graph.add_edge, iter(ends)
    try:
        for u, v in zip(pairs, pairs):
            add(vertex[u], vertex[v])
    except DuplicateEdgeError:
        message = "duplicate edge"
    except ValueError:  # a same-side edge: range and self-loops were checked per line
        message = f"edge ({u}, {v}) does not cross the bipartition"
    else:
        return graph
    raise DimacsParseError(message, _edge_line_no(text, graph.n_edges))


def _two_ints(raw: str, parts: list[str], i: int, what: str, line_no: int) -> tuple[int, int]:
    """Fields ``i`` and ``i + 1`` of line ``raw``, split into ``parts``.

    A DIMACS number is ASCII decimal digits, so on an ASCII line with no
    ``+`` or ``_`` what ``int()`` takes is exactly ``-?[0-9]+``; a minus
    sign is left to the caller's range check.
    """
    if raw.isascii() and "+" not in raw and "_" not in raw:
        try:
            return int(parts[i]), int(parts[i + 1])
        except ValueError:
            pass
    raise DimacsParseError(f"{what} must be integers", line_no)


def _edge_line_no(text: str, i: int) -> int:
    """The number of the ``i``-th edge line of ``text``, counted from 0."""
    lines = enumerate(text.split("\n"), start=1)
    return next(islice((no for no, raw in lines if raw.split()[:1] == ["e"]), i, None))


def serialize_dimacs(g: SimpleGraph) -> str:
    """Render ``g`` as canonical DIMACS text (edges sorted, 1-based)."""
    lines = []
    if isinstance(g, BipartiteGraph):
        lines.append(f"c bipartition {g.n_left} {g.n_right}")
    lines.append(f"p edge {g.n_vertices} {g.n_edges}")
    pairs = sorted((u, v) if u < v else (v, u) for u, v in g.edges())
    for u, v in pairs:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def load_dimacs(path: str | Path) -> SimpleGraph | BipartiteGraph:
    return parse_dimacs(Path(path).read_bytes())


def save_dimacs(path: str | Path, g: SimpleGraph) -> str:
    """Write canonical DIMACS to ``path``; returns the text written."""
    text = serialize_dimacs(g)
    Path(path).write_text(text)
    return text
