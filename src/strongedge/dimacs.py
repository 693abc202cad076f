"""DIMACS edge-format reader and writer.

The format is the usual ``p edge <V> <E>`` header with 1-based ``e <u> <v>``
lines, extended with an optional comment ``c bipartition <n_left> <n_right>``.
When the bipartition comment is present the parser returns a
:class:`BipartiteGraph` (left side 1..n_left, right side n_left+1..V) and
validates that every edge crosses sides; otherwise it returns a
:class:`SimpleGraph`.

Serialization is canonical: bipartition comment first (if any), then the
header, then edges sorted by normalized endpoint pair, so identical graphs
always produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DimacsParseError, DuplicateEdgeError
from .graphs import MAX_VERTICES, BipartiteGraph, SimpleGraph


def parse_dimacs(text: str) -> SimpleGraph | BipartiteGraph:
    """Parse DIMACS text into a graph.

    Raises :class:`DimacsParseError` (with the offending line number) on a
    malformed line, a vertex count above :data:`~strongedge.graphs.MAX_VERTICES`,
    a header/body count mismatch, or a duplicate edge.
    """
    n_vertices: int | None = None
    n_edges_declared: int | None = None
    bipartition: tuple[int, int] | None = None
    edge_lines: list[tuple[int, int, int]] = []  # (line_no, u, v), 1-based u, v

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "c":
            if len(parts) >= 2 and parts[1] == "bipartition":
                if len(parts) != 4:
                    raise DimacsParseError(
                        "bipartition comment needs exactly two counts", line_no
                    )
                try:
                    a, b = int(parts[2]), int(parts[3])
                except ValueError:
                    raise DimacsParseError(
                        "bipartition counts must be integers", line_no
                    ) from None
                if a < 1 or b < 1:
                    raise DimacsParseError("bipartition sides must be >= 1", line_no)
                bipartition = (a, b)
            continue
        if kind == "p":
            if n_vertices is not None:
                raise DimacsParseError("duplicate problem line", line_no)
            if len(parts) != 4 or parts[1] != "edge":
                raise DimacsParseError(
                    f"expected 'p edge <V> <E>', got {line!r}", line_no
                )
            try:
                n_vertices, n_edges_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError("counts must be integers", line_no) from None
            if n_vertices < 0 or n_edges_declared < 0:
                raise DimacsParseError("counts must be >= 0", line_no)
            if n_vertices > MAX_VERTICES:
                raise DimacsParseError(
                    f"vertex count {n_vertices} exceeds the cap of {MAX_VERTICES}", line_no
                )
            continue
        if kind == "e":
            if n_vertices is None:
                raise DimacsParseError("edge line before problem line", line_no)
            if len(parts) != 3:
                raise DimacsParseError(f"expected 'e <u> <v>', got {line!r}", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsParseError("endpoints must be integers", line_no) from None
            if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
                raise DimacsParseError(
                    f"endpoint out of range 1..{n_vertices}", line_no
                )
            if u == v:
                raise DimacsParseError(f"self-loop at vertex {u}", line_no)
            edge_lines.append((line_no, u, v))
            continue
        raise DimacsParseError(f"unrecognized line {line!r}", line_no)

    if n_vertices is None:
        raise DimacsParseError("missing 'p edge' problem line")
    if len(edge_lines) != n_edges_declared:
        raise DimacsParseError(
            f"header declares {n_edges_declared} edges but file has {len(edge_lines)}"
        )

    if bipartition is not None:
        a, b = bipartition
        if a + b != n_vertices:
            raise DimacsParseError(
                f"bipartition {a}+{b} does not match vertex count {n_vertices}"
            )
        bg = BipartiteGraph(a, b)
        for line_no, u, v in edge_lines:
            lo, hi = (u, v) if u < v else (v, u)
            if not (lo <= a < hi):
                raise DimacsParseError(
                    f"edge ({u}, {v}) does not cross the bipartition", line_no
                )
            _checked_add(bg, line_no, lo - 1, hi - 1)
        return bg

    g = SimpleGraph(n_vertices)
    for line_no, u, v in edge_lines:
        _checked_add(g, line_no, u - 1, v - 1)
    return g


def _checked_add(g, line_no: int, u: int, v: int) -> None:
    try:
        g.add_edge(u, v)
    except DuplicateEdgeError:
        raise DimacsParseError("duplicate edge", line_no) from None


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
    return parse_dimacs(Path(path).read_text())


def save_dimacs(path: str | Path, g: SimpleGraph) -> str:
    """Write canonical DIMACS to ``path``; returns the text written."""
    text = serialize_dimacs(g)
    Path(path).write_text(text)
    return text
