"""Counting-based lower bounds for the strong chromatic index.

In a simple k-regular graph every edge e, together with the 2k-2 edges
sharing an endpoint with it, forms a clique in the conflict graph, so a
color class meets each such closed neighborhood N(e) at most once.  Summing
over all m edges gives the window identity

    (2k - 1) * |C| = sum_e |C intersect N(e)| <= m

for every color class C, hence |C| <= m / (2k - 1).  When 2k - 1 does not
divide m the inequality is strict, which forces at least 2k colors.  This
module packages that argument as a machine-checkable certificate and as
per-coloring audit checks.  The audits take the windows N(e) from
:func:`strongedge.graphs.edge_windows`, the one window mask the solver's
clique bound also seeds from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import IdentityViolationError, NotRegularError
from .graphs import SimpleGraph, edge_windows


@dataclass(frozen=True)
class CountingCertificate:
    """Arithmetic record implying a strong-chromatic-index lower bound.

    ``chi_s_lower`` is 2k when the window 2k-1 does not divide the edge
    count, and 2k-1 otherwise (the closed-neighborhood clique alone).
    """

    k: int
    m: int
    window: int
    max_class_size: int
    divisible: bool
    chi_s_lower: int
    regularity_checked: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClassSizeReport:
    """Per-color edge counts measured against the certificate cap."""

    counts: dict[int, int]
    cap: int
    offenders: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.offenders


def _require_regular(g: SimpleGraph, k: int) -> None:
    if k < 2:
        raise ValueError(f"degree must be >= 2, got {k}")
    bad = next((v for v in range(g.n_vertices) if g.degree(v) != k), None)
    if bad is not None:
        raise NotRegularError(
            f"vertex {bad} has degree {g.degree(bad)}, expected {k}"
        )


def counting_certificate(g: SimpleGraph, k: int) -> CountingCertificate:
    """Build the window-counting certificate for a simple k-regular graph.

    Raises :class:`NotRegularError` if any vertex degree differs from k;
    the bound does not apply to irregular graphs.
    """
    _require_regular(g, k)
    m = g.n_edges
    window = 2 * k - 1
    divisible = m % window == 0
    return CountingCertificate(
        k=k,
        m=m,
        window=window,
        max_class_size=m // window,
        divisible=divisible,
        chi_s_lower=window if divisible else 2 * k,
        regularity_checked=True,
    )


def averaging_identity_check(g: SimpleGraph, coloring, color: int) -> tuple[int, int]:
    """Evaluate both sides of the window identity for one color class.

    Returns ``((2k-1) * |C|, sum_e |C intersect N(e)|)``; the two are equal
    for any edge set in a k-regular graph, and additionally every
    per-neighborhood intersection has size at most 1 when the coloring is a
    valid strong coloring.  A violation of either raises
    :class:`IdentityViolationError`, signalling a coloring or graph bug.
    """
    degs = g.degrees()
    if not degs:
        raise ValueError("graph has no vertices")
    k = degs[0]
    _require_regular(g, k)
    eids = g.edge_ids()
    if len(coloring.colors) != len(eids):
        raise ValueError(
            f"coloring covers {len(coloring.colors)} edges, graph has {len(eids)}"
        )
    members = sum(1 << i for i, c in enumerate(coloring.colors) if c == color)
    lhs = (2 * k - 1) * members.bit_count()
    rhs = 0
    for e, window in zip(eids, edge_windows(g.edges())):
        hits = (members & window).bit_count()
        if hits > 1:
            u, v = g.endpoints(e)
            raise IdentityViolationError(
                f"color {color} appears {hits} times in the closed neighborhood "
                f"of edge {e} = ({u}, {v})"
            )
        rhs += hits
    if lhs != rhs:
        raise IdentityViolationError(
            f"window identity failed for color {color}: {lhs} != {rhs}"
        )
    return lhs, rhs


def check_class_sizes(g: SimpleGraph, k: int, coloring) -> ClassSizeReport:
    """Count each color class and flag any class above the certificate cap.

    Violations are report content, not exceptions: a violation on a verified
    strong coloring of a verified k-regular graph indicates an internal bug
    and is escalated by the caller.
    """
    cert = counting_certificate(g, k)
    counts = coloring.class_sizes()
    offenders = tuple(sorted(c for c, n in counts.items() if n > cert.max_class_size))
    return ClassSizeReport(counts=counts, cap=cert.max_class_size, offenders=offenders)
