"""Every metric the benchmark reports: unit, direction, and where it applies.

``END_TO_END`` holds what a user of strongedge sees.  ``BENCHMARK.json``
lists only ``CONTRACT``: its format needs a number on every workload, and a
relative bound needs a median that is never 0.  The others are printed by
the same command, as ``n/a`` on the workloads where they do not apply, and
``stability.py`` checks them against their bound.  ``ops_failed_share`` is
the contract's ``failed`` over ``attempted``: 0 wherever nothing fails, and
one operation on ``search`` (the girth-8 question, see ``workloads.Search``)
whatever the seed.  ``answered_share`` and ``bound_gap`` count whole events
that are fixed for a seed and differ between seeds (which questions get
settled, which greedy bound a graph gets), so they have no relative bound:
they are compared seed by seed, as counts.

Every time, in unit ``s`` or ``1/s``, is in reference seconds
(``clock.py``); ``BENCHMARK.json`` must give ``setup_s`` the unit ``s``,
and the other times keep the same unit so that all of them read alike.

``PER_LAYER`` holds the traced run's self times and counts.  ``moves`` names
the end-to-end metric each one should move, on which workload, written down
before any optimisation is measured against it.  Self time is a span's
duration minus the part of it its child spans cover.  A layer that is idle
on a workload reports 0.
"""

ALL = ("ladder", "search", "quartic")

# name -> (unit, better, bound, workloads)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, ALL),
    "wall_s": ("s", "lower", 0.25, ALL),
    "peak_rss_mb": ("MB", "lower", 0.1, ALL),
    "counterexample_s": ("s", "lower", 0.25, ("ladder", "quartic")),
    "certify_s": ("s", "lower", 0.25, ("ladder", "quartic")),
    "search_nodes_per_s": ("1/s", "higher", 0.25, ("search",)),
    "answered_share": ("share", "higher", None, ("search",)),
    "bound_gap": ("count", "lower", None, ("search",)),
    "ops_failed_share": ("share", "lower", None, ALL),
}

CONTRACT = ("setup_s", "wall_s", "peak_rss_mb")

GIRTHS = range(5, 11)
SEARCH_SIZES = (144, 288, 576, 1152)

_GEN = "counterexample_s on ladder, wall_s on quartic; no change on search"
_SEARCH = "answered_share, bound_gap, search_nodes_per_s, wall_s on search; no change on ladder"
_READ = "certify_s on ladder and quartic"
_CONFLICT = "counterexample_s on ladder, setup_s on search, peak_rss_mb"

# name -> (unit, better, moves)
PER_LAYER = {
    "generator.generate_s": ("s", "lower", _GEN),
    "generator.steps": ("count", "lower", _GEN),
    "generator.swap_steps": ("count", "lower", _GEN),
    "generator.low_pair_calls": ("count", "lower", _GEN),
    "generator.low_pair_s": ("s", "lower", _GEN),
    "generator.low_pair_hit_ratio": ("share", "higher", _GEN),
    "generator.ball_queries": ("count", "lower", _GEN),
    "generator.ball_s": ("s", "lower", _GEN),
    "generator.swap_edge_s": ("s", "lower", _GEN),
    "generator.girth_calls": ("count", "lower", _GEN),
    "generator.girth_s": ("s", "lower", _GEN),
    "generator.construction_failed": ("count", "lower", "wall_s on quartic"),
    "solver.greedy_s": ("s", "lower", "counterexample_s on ladder"),
    "solver.greedy_colors": ("count", "lower", "bound_gap on search"),
    "solver.search_nodes": ("count", "lower", _SEARCH),
    "solver.search_s": ("s", "lower", _SEARCH),
    **{f"solver.nodes_per_s.m{m}": ("1/s", "higher", _SEARCH) for m in SEARCH_SIZES},
    "solver.verify_s": ("s", "lower", _SEARCH),
    "pipeline.recheck_girth_s": ("s", "lower", _READ),
    "dimacs.parse_s": ("s", "lower", _READ),
    "dimacs.serialize_s": ("s", "lower", _READ),
    "dimacs.bytes": ("bytes", "lower", _READ),
    "graphs.conflict_graph_s": ("s", "lower", _CONFLICT),
    "graphs.conflict_pairs": ("count", "lower", _CONFLICT),
    **{
        f"pipeline.counterexample_s.g{g}": ("s", "lower", "counterexample_s on ladder")
        for g in GIRTHS
    },
    "pipeline.sweep_s": ("s", "lower", "wall_s on search"),
    "pipeline.sweep_rows_exact": ("count", "higher", "answered_share on search"),
    "pipeline.sweep_rows_settled": ("count", "higher", "answered_share on search"),
    "trace.overhead_s": ("s", "lower", "none: the cost of tracing itself"),
}
