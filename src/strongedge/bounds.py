"""Counting-based lower bounds for the strong chromatic index.

In a simple k-regular graph every edge e, together with the 2k-2 edges
sharing an endpoint with it, forms a clique in the conflict graph, so a
color class meets each such closed neighborhood N(e) at most once.  Summing
over all m edges gives the window identity

    (2k - 1) * |C| = sum_e |C intersect N(e)| <= m

for every color class C, hence |C| <= m / (2k - 1).  When 2k - 1 does not
divide m the inequality is strict, which forces at least 2k colors.  This
module packages that argument as a machine-checkable certificate, and the
cap it sets as a check on the class sizes of a found coloring.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotRegularError
from .graphs import SimpleGraph


class CountingCertificate(NamedTuple):
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


class ClassSizeReport(NamedTuple):
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
    if g.n_vertices == 0:
        raise NotRegularError("graph has no vertices; the bound needs an edge")
    if not g.is_regular(k):
        degrees = g.degrees()
        bad = next(v for v, d in enumerate(degrees) if d != k)
        raise NotRegularError(f"vertex {bad} has degree {degrees[bad]}, expected {k}")


def counting_certificate(g: SimpleGraph, k: int) -> CountingCertificate:
    """Build the window-counting certificate for a simple k-regular graph.

    Raises :class:`NotRegularError` if any vertex degree differs from k or
    there is no vertex; the bound does not apply to irregular graphs, and an
    empty one has no edge window to count.
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


def check_class_sizes(g: SimpleGraph, k: int, coloring) -> ClassSizeReport:
    """Count each color class and flag any class above the certificate cap.

    Violations are report content, not exceptions: a violation on a verified
    strong coloring of a verified k-regular graph indicates an internal bug,
    which :func:`strongedge.pipeline.build_counterexample` escalates on its
    greedy coloring.
    """
    cert = counting_certificate(g, k)
    counts = coloring.class_sizes()
    offenders = tuple(sorted(c for c, n in counts.items() if n > cert.max_class_size))
    return ClassSizeReport(counts=counts, cap=cert.max_class_size, offenders=offenders)
