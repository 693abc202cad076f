"""Command-line entry point.

One binary with subcommands; all parsing, serialization, and seeding is
shared with the library so identical flags and seed give byte-identical
output files.  Exit codes: 0 success, 1 forced construction below the
guaranteed floor failed, 2 invalid input, 3 verification failure, 4 timeout
without an answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .dimacs import load_dimacs, save_dimacs
from .errors import (
    ConstructionFailedError,
    DimacsParseError,
    InternalInvariantError,
    StrongEdgeError,
    VerificationError,
)
from .generator import check_floor_fits, choose_n, generate
from .graphs import SimpleGraph, conflict_graph
from .pipeline import (
    build_counterexample,
    canonical_json,
    certify_graph,
    check_color_counts,
    conjecture2_sweep,
    usage_cap,
)
from .solver import (
    StrongColoring,
    exact_chi_s,
    greedy_color,
    min_last_color_usage,
    verify,
)

EXIT_OK = 0
EXIT_CONSTRUCTION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_VERIFICATION_FAILURE = 3
EXIT_TIMEOUT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongedge",
        description=(
            "Generate high-girth regular bipartite graphs, certify strong "
            "chromatic index lower bounds, and solve strong edge-colorings "
            "exactly at desk scale."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a k-regular bipartite graph of girth >= g")
    p.add_argument("--k", type=int, required=True, help="target degree (>= 2)")
    p.add_argument("--g", type=int, required=True, help="girth target (>= 3)")
    p.add_argument("--n", type=int, default=None, help="side size; default choose_n(k, g)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=Path, default=None, help="write the step trace here")
    p.add_argument("--force", action="store_true", help="allow n below the guaranteed floor")
    p.add_argument("-o", "--output", type=Path, required=True, help="output graph (DIMACS)")

    p = sub.add_parser("solve", help="compute the strong chromatic index of a graph")
    p.add_argument("graph", type=Path)
    p.add_argument("--greedy", action="store_true", help="saturation greedy instead of exact search")
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("-o", "--output", type=Path, default=None, help="write the coloring (JSON)")

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph", type=Path)
    p.add_argument("coloring", type=Path)

    p = sub.add_parser("counterexample", help="generate and certify a refutation instance")
    p.add_argument("--g", type=int, required=True, help="girth target")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-upper-bound", action="store_true", help="skip the greedy upper bound")
    p.add_argument("-o", "--output", type=Path, required=True, help="record (JSON)")
    p.add_argument("--graph-out", type=Path, required=True, help="graph (DIMACS)")

    p = sub.add_parser("certify", help="re-verify a graph file from scratch")
    p.add_argument("graph", type=Path)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", type=Path, default=None, help="record (JSON)")

    p = sub.add_parser("conjecture2", help="minimal last-color usage vs the cap on one graph")
    p.add_argument("graph", type=Path)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)

    p = sub.add_parser(
        "conjecture2-sweep",
        help="last-color usage evidence over generated instances, their rows run side by side "
        "on the CPUs of the affinity mask",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None, help="first side size; default min_n(k, g)")
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("-o", "--output", type=Path, default=None, help="evidence table (JSON)")

    return parser


def _coloring_json(graph: SimpleGraph, phi: StrongColoring) -> dict:
    return {
        "edges": [[u + 1, v + 1] for u, v in graph.edges()],
        "colors": list(phi.colors),
        "verified": bool(phi.verified),
    }


def _coloring_from_json(graph: SimpleGraph, data: object) -> StrongColoring:
    """Align a coloring file's integer edges and colors with the graph's edge order."""
    if not isinstance(data, dict):
        raise ValueError("coloring file must hold a JSON object")
    edges = data.get("edges")
    colors = data.get("colors")
    if not isinstance(edges, list) or not isinstance(colors, list) or len(edges) != len(colors):
        raise ValueError("coloring file needs parallel 'edges' and 'colors' lists")
    position = {}
    for i, (u, v) in enumerate(graph.edges()):
        position[(u + 1, v + 1) if u < v else (v + 1, u + 1)] = i
    if len(edges) != len(position):
        raise ValueError(
            f"coloring lists {len(edges)} edges, graph has {len(position)}"
        )
    aligned = [0] * len(position)
    seen = set()
    for pair, color in zip(edges, colors):
        if not (isinstance(pair, list) and len(pair) == 2) or any(
            type(x) is not int for x in (*pair, color)
        ):
            raise ValueError(f"bad entry: edge {pair!r} with color {color!r}")
        key = (pair[0], pair[1]) if pair[0] < pair[1] else (pair[1], pair[0])
        if key not in position:
            raise ValueError(f"edge {pair} is not in the graph")
        if key in seen:
            raise ValueError(f"edge {pair} listed twice")
        seen.add(key)
        aligned[position[key]] = color
    return StrongColoring(aligned)


def _cmd_generate(args) -> int:
    n = args.n
    if n is None:
        check_floor_fits(args.k, args.g)
        n = choose_n(args.k, args.g)
    graph, trace = generate(args.k, args.g, n, args.seed, force=args.force)
    save_dimacs(args.output, graph)
    if args.trace is not None:
        args.trace.write_text(trace.to_text())
    print(
        f"generated k={args.k} g={args.g} n={n} seed={args.seed}: "
        f"{graph.n_vertices} vertices, {graph.n_edges} edges -> {args.output}"
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    graph = load_dimacs(args.graph)
    cg = conflict_graph(graph)
    code = EXIT_OK
    if args.greedy:
        phi = greedy_color(cg)
        check_color_counts(graph, {"greedy bound": phi.n_colors})
        print(f"greedy: {phi.n_colors} colors on {cg.n_nodes} edges")
    else:
        outcome = exact_chi_s(cg, budget_ms=args.budget_ms, node_budget=args.node_budget)
        check_color_counts(
            graph, {"exact value": outcome.chi_s, "upper bound": outcome.upper_bound}
        )
        phi = outcome.coloring
        if outcome.status == "exact":
            print(f"exact: chi_s = {outcome.chi_s} ({outcome.nodes} search nodes)")
        else:
            print(
                f"budget exhausted: {outcome.lower_bound} <= chi_s <= {outcome.upper_bound} "
                f"({outcome.nodes} search nodes)"
            )
            code = EXIT_TIMEOUT
    if args.output is not None:
        args.output.write_text(canonical_json(_coloring_json(graph, phi)))
    return code


def _cmd_verify(args) -> int:
    graph = load_dimacs(args.graph)
    data = json.loads(args.coloring.read_text())
    phi = _coloring_from_json(graph, data)
    if verify(conflict_graph(graph), phi):
        print(f"VALID: {phi.n_colors} colors on {len(phi.colors)} edges")
        return EXIT_OK
    print("INVALID: conflicting edges share a color")
    return EXIT_VERIFICATION_FAILURE


def _cmd_counterexample(args) -> int:
    record = build_counterexample(
        args.g,
        args.k,
        args.seed,
        graph_out=args.graph_out,
        with_upper_bound=not args.no_upper_bound,
    )
    args.output.write_text(canonical_json(record.to_json_dict()))
    print(
        f"counterexample: k={record.k} g={record.g} n={record.n} m={record.m} "
        f"girth={record.girth} chi_s_lower={record.certificate.chi_s_lower} "
        f"> {record.conjectured_bound}"
    )
    print(f"record -> {args.output}; graph -> {args.graph_out}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    record = certify_graph(args.graph, args.k)
    if args.output is not None:
        args.output.write_text(canonical_json(record.to_json_dict()))
    print(
        f"certified: k={record.k} girth={record.girth} m={record.m} "
        f"chi_s_lower={record.certificate.chi_s_lower}"
    )
    return EXIT_OK


def _cmd_conjecture2(args) -> int:
    graph = load_dimacs(args.graph)
    degs = graph.degrees()
    m = graph.n_edges
    result = min_last_color_usage(
        conflict_graph(graph),
        args.k,
        budget_ms=args.budget_ms,
        node_budget=args.node_budget,
    )
    cap = usage_cap(graph, args.k, result.usage)
    print(
        f"m={m} cap={cap} usage={result.usage} status={result.status} "
        f"(max degree {max(degs, default=0)})"
    )
    if result.status == "infeasible":
        print(f"NOTE: no strong coloring with {2 * args.k} colors exists")
        return EXIT_OK
    if result.status == "best-found":
        return EXIT_TIMEOUT
    if result.usage > cap:
        print(
            f"CAP EXCEEDED: exact usage {result.usage} > cap {cap}; "
            f"potential counterexample to the usage conjecture"
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    evidence = conjecture2_sweep(
        args.k,
        args.g,
        args.count,
        seed=args.seed,
        n_start=args.n,
        budget_ms=args.budget_ms,
        node_budget=args.node_budget,
        force=args.force,
    )
    print(f"{'n':>6} {'seed':>6} {'m':>6} {'cap':>4} {'usage':>6} status")
    for row in evidence.rows:
        usage = "-" if row.usage is None else row.usage
        print(
            f"{row.n:>6} {row.seed:>6} {row.m:>6} {row.cap:>4} {usage:>6} {row.status}"
        )
    for row in evidence.flagged_rows():
        print(
            f"CAP EXCEEDED at n={row.n} seed={row.seed}: usage {row.usage} > "
            f"cap {row.cap}; potential counterexample to the usage conjecture"
        )
    if args.output is not None:
        args.output.write_text(canonical_json(evidence.to_json_dict()))
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "certify": _cmd_certify,
    "conjecture2": _cmd_conjecture2,
    "conjecture2-sweep": _cmd_sweep,
}


def _check_budgets(args) -> None:
    """Reject a negative budget flag, also where the command ignores it."""
    for name in ("budget_ms", "node_budget"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_budgets(args)
        return _HANDLERS[args.command](args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except ConstructionFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION_FAILED
    except InternalInvariantError:
        raise  # a bug, not bad input: crash with a traceback
    except (DimacsParseError, StrongEdgeError, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
