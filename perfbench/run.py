"""Run one strongedge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy.  Set-up (a fresh import of
the package plus building the workload's inputs) is repeated and its median
reported.  Then passes of the workload run until ``--seconds`` have passed;
each operation's time is its median over the passes.  Times are in
reference seconds, scaled by the box's speed sampled during each timed
call (see ``clock.py``); the table also shows plain seconds.

With ``--trace 1`` untraced and traced passes alternate, the traced ones
recording spans around each layer; the run reports the per-layer metrics,
the tracing overhead (median traced minus untraced pass time), and fails its
correctness check unless both kinds of pass wrote byte-identical files.

Stdout ends with a table of every metric, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details and, when
traced, the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("bounds", "dimacs", "errors", "generator", "graphs", "pipeline", "solver")

import catalog  # noqa: E402  (this directory is on sys.path when run as a script)
from clock import Clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_strongedge() -> SimpleNamespace:
    """Import strongedge afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "strongedge" or n.startswith("strongedge.")]:
        del sys.modules[name]
    modules = SimpleNamespace(
        **{name: importlib.import_module(f"strongedge.{name}") for name in MODULES}
    )
    location = Path(modules.pipeline.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"strongedge was imported from {location}, not from {SRC}")
    return modules


def _one_pass(workload, modules, inputs, out: Path, clock, tracer) -> dict:
    """Run and check one pass; its time is the sum of its operations'."""
    p = workloads.Pass(out, clock)
    if tracer is not None:
        tracer.install()
        root = tracer.open("pass")
    try:
        workload.run_pass(modules, inputs, p)
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    workload.check(modules, inputs, p)
    wall = sum(op.seconds for op in p.ops)
    raw = sum(op.raw_seconds for op in p.ops)
    layers = spans = None
    if tracer is not None:
        spans = tracer.take()
        layers = tracing.layer_metrics(spans)
        by_unit = {"s": wall / raw, "1/s": raw / wall}
        for name in layers:
            layers[name] *= by_unit.get(catalog.PER_LAYER[name][0], 1)
    return {"traced": tracer is not None, "wall": wall, "raw": raw, "pass": p,
            "spans": spans, "layers": layers}


def op_medians(passes: list[dict], raw: bool = False) -> list[float]:
    """Per operation, its median time over the passes.

    Every pass runs the same operations in the same order.  A pass's time
    is the sum of these medians rather than the median of the pass sums,
    so a burst of load on the box that slows one operation in one pass
    does not move it.
    """
    columns = zip(*(x["pass"].ops for x in passes))
    return [
        statistics.median(op.raw_seconds if raw else op.seconds for op in ops)
        for ops in columns
    ]


def run_metrics(passes: list[dict]) -> dict:
    """The end-to-end metrics of the untraced passes, None where they do not
    apply, but for ``setup_s``, ``peak_rss_mb`` and ``ops_failed_share``.
    Times are sums of per-operation medians; everything else comes from the
    first pass, since all passes produce the same outputs."""
    ops = passes[0]["pass"].ops
    medians = op_medians(passes)

    def seconds(kind):
        chosen = [t for op, t in zip(ops, medians) if op.kind == kind]
        return sum(chosen) if chosen else None

    solved = [(op, t) for op, t in zip(ops, medians) if op.kind == "exact" and op.value is not None]
    asked = answered = 0
    for op in ops:
        if op.kind == "exact":
            asked += 1
            answered += op.value is not None and op.value.status == "exact"
        elif op.kind == "find":
            asked += op.context["count"]
            answered += sum(a.status in ("found", "none") for a in op.context["answers"].values())
        elif op.kind == "sweep":
            asked += op.context["count"]
            if op.value is not None:
                answered += sum(row.status in ("exact", "infeasible") for row in op.value.rows)
    return {
        "wall_s": sum(medians),
        "counterexample_s": seconds("counterexample"),
        "certify_s": seconds("certify"),
        "search_nodes_per_s": (
            sum(op.value.nodes for op, _t in solved) / sum(t for _op, t in solved)
            if solved else None
        ),
        "answered_share": answered / asked if asked else None,
        "bound_gap": (
            sum(op.value.upper_bound - op.value.lower_bound for op, _t in solved)
            if solved else None
        ),
    }


def measure(workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Set up, run passes for ``seconds``, check them, and summarise."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    clock = Clock()
    setup_times = []
    with clock:
        for _ in range(workload.setup_reps):

            def setup():
                modules = import_strongedge()
                return modules, workload.setup(modules, seed, out)

            modules, inputs = clock.time(setup)
            setup_times.append((clock.ref, clock.raw))
    problems = [f"setup: {s}" for s in workload.setup_problems(modules, inputs)]

    tracer = tracing.Tracer(modules) if trace else None
    passes = []
    start = time.perf_counter()
    with clock:
        while True:
            # Traced runs alternate which kind of pass goes first.
            order = [None] if tracer is None else [None, tracer][:: 1 if len(passes) % 4 == 0 else -1]
            for t in order:
                x = _one_pass(workload, modules, inputs, out, clock, t)
                if passes:
                    # All passes produce the same outputs, so only the first
                    # keeps them: memory must not grow with the pass count.
                    for op in x["pass"].ops:
                        op.value = None
                passes.append(x)
            if time.perf_counter() - start >= seconds:
                break

    first = passes[0]["pass"].digests
    for i, x in enumerate(passes[1:], 1):
        if x["pass"].digests != first:
            kind = "traced" if x["traced"] else "untraced"
            problems.append(f"pass {i} ({kind}) wrote files that differ from pass 0")
    ops = [op for x in passes for op in x["pass"].ops]
    problems += sorted({f"{op.kind} {op.label}: {s}" for op in ops for s in op.problems})
    # Passes repeat the same operations to time them, so an operation counts
    # once, and fails if it failed in any pass: the counts do not depend on
    # how many passes fit in the run.
    columns = list(zip(*(x["pass"].ops for x in passes)))
    failed = sum(any(op.failed for op in column) for column in columns)

    untraced = [x for x in passes if not x["traced"]]
    metrics = run_metrics(untraced)
    end_to_end = {
        "setup_s": statistics.median(ref for ref, _raw in setup_times),
        "wall_s": metrics.pop("wall_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **metrics,
        "ops_failed_share": failed / len(columns),
    }
    result = {
        "workload": type(workload).__name__.lower(),
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "raw": {
            "setup_s": statistics.median(raw for _ref, raw in setup_times),
            "wall_s": sum(op_medians(untraced, raw=True)),
        },
        "box_speed": clock.speed(),
        "setup_times": setup_times,
        "passes": [
            {"traced": x["traced"], "wall": x["wall"], "raw": x["raw"], "ops": len(x["pass"].ops)}
            for x in passes
        ],
        "attempted": len(columns),
        "failed": failed,
        "outcomes": dict(Counter(op.outcome for op in ops)),
        "failures": sorted({f"{op.kind} {op.label}: {op.error}" for op in ops if op.error}),
        "problems": problems,
        "correct": not problems,
        "end_to_end": end_to_end,
    }
    if tracer is not None:
        traced = [x for x in passes if x["traced"]]
        layers = [x["layers"] for x in traced]
        result["per_layer"] = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        result["per_layer"]["trace.overhead_s"] = sum(op_medians(traced)) - end_to_end["wall_s"]
        result["spans"] = [
            dict(pass_index=passes.index(x), **s.to_json_dict(tracer.origin))
            for x in traced for s in x["spans"]
        ]
    return result


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> dict:
    """Print the table and return the contract's JSON line."""
    print(
        f"strongedge benchmark: workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} seconds={result['seconds']}"
    )
    print(f"host: nproc={result['nproc']} python={result['python']} {result['platform']}")
    walls = [round(p["wall"], 3) for p in result["passes"]]
    print(f"passes: {len(walls)} {walls}; ops attempted={result['attempted']} failed={result['failed']}")
    raw = result["raw"]
    print(
        f"times in reference seconds; box speed {result['box_speed']:.3f} of reference; "
        f"in plain seconds setup_s {raw['setup_s']:.6g}, wall_s {raw['wall_s']:.6g}"
    )
    print("outcomes: " + " ".join(f"{k}={v}" for k, v in sorted(result["outcomes"].items())))
    print(f"{'metric':34} {'value':>14} {'unit':6} better")
    for name, (unit, better, _bound, _where) in catalog.END_TO_END.items():
        print(f"{name:34} {_fmt(result['end_to_end'][name]):>14} {unit:6} {better}")
    if "per_layer" in result:
        for name, (unit, better, _moves) in catalog.PER_LAYER.items():
            print(f"{name:34} {_fmt(result['per_layer'][name]):>14} {unit:6} {better}")
    for line in result["failures"]:
        print(f"failed op: {line}")
    for line in result["problems"]:
        print(f"CHECK FAILED: {line}")

    if "per_layer" in result:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, (unit, _better, _moves) in catalog.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": catalog.END_TO_END[name][0]}
            for name in catalog.CONTRACT
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strongedge" / "__init__.py").is_file():
        print(f"error: no strongedge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    name = f"{args.workload}-seed{args.seed}"
    result = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        OUT / name,
    )
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / f"{name}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{name}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    line = report(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
