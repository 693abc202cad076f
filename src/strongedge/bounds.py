"""Counting-based lower bounds for the strong chromatic index.

In a simple k-regular graph every edge e, together with the 2k-2 edges
sharing an endpoint with it, forms a clique in the conflict graph, so a
color class meets each such closed neighborhood N(e) at most once.  Summing
over all m edges gives the window identity

    (2k - 1) * |C| = sum_e |C intersect N(e)| <= m

for every color class C, hence |C| <= m / (2k - 1).  When 2k - 1 does not
divide m the inequality is strict, which forces at least 2k colors.  This
module packages that argument as a machine-checkable certificate and holds
every check that rests on it: :func:`check_class_sizes` (the class cap on a
found coloring), :func:`check_color_counts` (color counts claimed for a
graph against ``chi_s_lower``) and :func:`usage_cap` (the last color's
usage against m mod (2k-1)).  Only this module decides whether a graph is
regular enough for the bound to apply.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInvariantError, NotRegularError
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


def _regular_certificate(g: SimpleGraph, k: int) -> CountingCertificate | None:
    """The certificate of ``g`` when it is k-regular with k >= 2 and has a
    vertex, else None: the one place that decides whether the bound applies."""
    if k < 2 or g.n_vertices == 0 or not g.is_regular(k):
        return None
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


def counting_certificate(g: SimpleGraph, k: int) -> CountingCertificate:
    """Build the window-counting certificate for a simple k-regular graph.

    Raises :class:`NotRegularError` if any vertex degree differs from k or
    there is no vertex; the bound does not apply to irregular graphs, and an
    empty one has no edge window to count.
    """
    cert = _regular_certificate(g, k)
    if cert is not None:
        return cert
    if k < 2:
        raise ValueError(f"degree must be >= 2, got {k}")
    if g.n_vertices == 0:
        raise NotRegularError("graph has no vertices; the bound needs an edge")
    degrees = g.degrees()
    bad = next(v for v, d in enumerate(degrees) if d != k)
    raise NotRegularError(f"vertex {bad} has degree {degrees[bad]}, expected {k}")


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


def check_color_counts(g: SimpleGraph, counts: dict[str, int | None]) -> None:
    """Hold the color counts claimed for ``g``, by name, to the counting
    certificate: on a k-regular graph with k >= 2 every strong
    edge-coloring has at least ``chi_s_lower`` colors, so a count below it
    raises :class:`InternalInvariantError`.  Other graphs pass."""
    # a k-regular graph has 2m = kn, so its one candidate k is 2m // n
    cert = _regular_certificate(g, 2 * g.n_edges // max(g.n_vertices, 1))
    if cert is None:
        return
    for name, count in counts.items():
        if count is not None and count < cert.chi_s_lower:
            raise InternalInvariantError(
                f"{name} {count} is below chi_s_lower = {cert.chi_s_lower} on this "
                f"{cert.k}-regular graph"
            )


def usage_cap(g: SimpleGraph, k: int, usage: int | None) -> int:
    """The cap m mod (2k-1) on the last color's usage, with ``usage`` held
    to it.  On a k-regular graph each of the other 2k-1 classes holds at
    most m // (2k-1) edges, m - cap between them, so every usage is at
    least the cap, and one below it raises :class:`InternalInvariantError`.
    On any other graph the cap bounds nothing."""
    m = g.n_edges
    cap = m % (2 * k - 1)
    if usage is not None and usage < cap and _regular_certificate(g, k) is not None:
        raise InternalInvariantError(f"usage {usage} on {m} edges is below m mod (2k-1) = {cap}")
    return cap
