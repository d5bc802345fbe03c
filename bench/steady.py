"""Steadiness command: run every workload several times and summarize.

    python3 bench/steady.py --runs 10 --seed0 100

Every workload of BENCHMARK.json runs ``--runs`` times, untraced, for the
spec's ``run_seconds``, each run with its own seed (seed0, seed0 + 1, ...).
For every end-to-end metric of every workload the command prints the median, the first
and third quartile (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, the bound kept in BENCHMARK.json and the smallest bound
of at most 0.25 that is three times the spread. After the untraced runs it
makes one traced run per workload and prints every per-layer metric. With
``--runs 1`` this is the one command that shows every metric of the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the detailed result record it wrote."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    json.loads(proc.stdout.strip().splitlines()[-1])  # the result line must parse
    path = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return median, q1, q3, (q3 - q1) / median if median else math.inf


def suggested_bound(width: float) -> float:
    return min(0.25, max(0.05, math.ceil(3.0 * width * 20.0) / 20.0))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in workloads:
        results = [run_once(workload, args.seed0 + i, seconds, 0) for i in range(args.runs)]
        print(f"== {workload}: {args.runs} untraced runs, seeds {args.seed0}.."
              f"{args.seed0 + args.runs - 1}, {seconds} s each")
        print(f"   correct in {sum(r['correct'] for r in results)}/{args.runs} runs; "
              f"failed/attempted ops {sum(r['failed'] for r in results)}/"
              f"{sum(r['attempted'] for r in results)}")
        names = list(results[0]["metrics"]) + list(results[0]["extra_metrics"])
        for name in names:
            recs = [r["metrics"].get(name) or r["extra_metrics"].get(name) for r in results]
            values = [m["value"] for m in recs if m is not None]
            median, q1, q3, width = spread(values)
            samples = statistics.median(m["samples"] for m in recs if m is not None)
            line = (f"   {name:<16} median {median:.6g} {recs[0]['unit']}  Q1 {q1:.6g}  Q3 {q3:.6g}"
                    f"  spread {width:.3f}  samples/run {samples:g}")
            if name in bounds:
                verdict = ("steady" if width < bounds[name] / 3 else
                           "within bound" if width <= bounds[name] else "TOO WIDE")
                line += f"  bound {bounds[name]}  {verdict}  (3x spread -> {suggested_bound(width)})"
            print(line)
            summary[f"{workload}.{name}"] = {"values": values, "median": median, "q1": q1,
                                             "q3": q3, "spread": width}
    for workload in workloads:
        traced = run_once(workload, args.seed0, seconds, 1)
        print(f"== {workload}: traced run, seed {args.seed0}")
        for name, m in {**traced["metrics"], **traced["extra_metrics"]}.items():
            print(f"   {name:<46} {m['value']:.6g} {m['unit']}  (samples {m['samples']})")
    out = ROOT / ".bench_out" / "steady.json"
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"summary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
