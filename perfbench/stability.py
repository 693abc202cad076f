"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/stability.py --workload ladder --seeds 1 2 3 4 5 \\
        --seconds 20 [--out set1.json] [--compare set0.json]

Runs are sequential, one process at a time.  For every end-to-end metric
the table gives the median over runs and the distance between the first
and third quartiles as a share of the median, next to the metric's bound
from ``catalog.py``; a spread under a third of the bound is marked steady,
and the exit status is 0 only if every bounded metric is.  For ``setup_s``
and ``wall_s`` it also gives the spread of the same runs' times in plain
seconds, before the scaling to reference seconds (``clock.py``).
``--compare`` checks each median against an earlier set: it may not be
worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import catalog

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"line": line, "end_to_end": detail["end_to_end"], "raw": detail["raw"]}


def _spread(values: list[float]) -> tuple:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else None


def summarise(runs: list[dict], workload: str) -> dict:
    summary = {}
    for name, (unit, better, bound, where) in catalog.END_TO_END.items():
        values = [r["end_to_end"][name] for r in runs]
        if workload not in where or None in values:
            continue
        median, q1, q3, spread = _spread(values)
        summary[name] = {
            "unit": unit, "better": better, "bound": bound, "median": median,
            "q1": q1, "q3": q3, "spread": spread, "values": values,
        }
        if name in runs[0]["raw"]:
            raw = [r["raw"][name] for r in runs]
            summary[name].update(raw_median=_spread(raw)[0], raw_spread=_spread(raw)[3], raw_values=raw)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        run = run_once(args.workload, seed, args.seconds)
        line = run["line"]
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        runs.append(run)
    summary = summarise(runs, args.workload)
    earlier = json.loads(args.compare.read_text())["metrics"] if args.compare else {}

    steady = True
    print(f"{'metric':20} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, s in summary.items():
        if s["bound"] is None:
            verdict = "no relative bound"
        elif s["spread"] is None:
            verdict = "median 0, no relative spread"
        else:
            ok = s["spread"] < s["bound"] / 3
            verdict = "steady" if ok else "TOO WIDE"
            steady &= ok
        if name in earlier and s["bound"] is not None:
            before = earlier[name]["median"]
            worse = s["median"] - before if s["better"] == "lower" else before - s["median"]
            ok = not before or worse <= s["bound"] * abs(before)
            verdict += f"; vs earlier median {before:.4g}: " + ("within bound" if ok else "WORSE")
            steady &= ok
        if "raw_spread" in s:
            verdict += f"; plain seconds: median {s['raw_median']:.5g}, spread {s['raw_spread']:.4f}"
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:20} {s['median']:>12.5g} {spread:>8} {str(s['bound']):>6}  {verdict}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
             "metrics": summary}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
