"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 bench/run.py --workload closed_forms --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it replays a fixed op list once untraced and once traced (repeated until
``--seconds`` have passed) and reports the per-layer metrics. Human-readable
lines come first, the last line of stdout is the JSON result, and the full
record (environment block, sample counts, extra metrics, failures) is written
to ``.bench_out/`` under the checkout root, next to the span file of a traced
run. The program is always imported from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 3
STARTUP_REPEATS = 3

_CALL_LAYERS = (
    "matcore.polar_decompose", "matcore.principal_log_spd", "matcore.mat_exp",
    "matcore.weighted_norm", "strain.hencky_tensor", "geodesy.dist_squared_to_SO",
    "geodesy.omega_iso", "geodesy.omega_vol", "geodesy.euclid_dist_to_SO",
    "geodesy.dist_cof_squared_to_SO", "constitutive.energy",
    "constitutive.kirchhoff_stress", "constitutive.cauchy_stress",
)
_ORACLES = ("geodesic_distance_oracle", "logmin_oracle", "weighted_logmin_oracle", "grioli_oracle")
_SUBCOMMANDS = ("measure", "path", "fit", "verify")


def pin_environment() -> None:
    """One BLAS thread (single-client workloads, shared machine) and byte-code
    caching on, as for an installed package; must run before numpy is
    imported, and child processes inherit it."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False


def load_program():
    """Import geolog from this checkout's src, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "geolog" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {src / 'geolog'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import geolog

    if Path(geolog.__file__).resolve().parent != (src / "geolog").resolve():
        sys.exit(f"bench: imported geolog from {geolog.__file__}, not from {src}")
    import workloads

    return workloads


def git_commit() -> str:
    """HEAD of the checkout; git is not asked to look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def make_workload(wl, name: str, seed: int, workdir: Path):
    if name == "cli_session":
        return wl.CliSession(seed, ROOT, workdir)
    return wl.WORKLOADS[name](seed)


def setup_seconds(args) -> list:
    """Set-up time of fresh interpreters: spawn to the "ready" line."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return times


def _metrics(values: dict, samples: dict, section: str) -> dict:
    """The metrics of one BENCHMARK.json section, in its order and units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"], "samples": samples[m["name"]]}
            for m in SPEC[section]}


def measure_end_to_end(wl, workload, args) -> tuple:
    records = []
    # Batches take turns on the allowed CPUs (children inherit the choice):
    # on a shared machine one core can be slowed by other load while the
    # other is not, and a run's timings should not hang on one core.
    allowed = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    try:
        for done, batch in enumerate(workload.batches(), start=1):
            os.sched_setaffinity(0, {allowed[done % len(allowed)]})
            records.extend(wl.run_one(op, len(records)) for op in batch)
            if done >= workload.min_batches and perf_counter() - start >= args.seconds:
                break
    finally:
        os.sched_setaffinity(0, allowed)
    probes = setup_seconds(args)
    latencies = [r.seconds for r in records]
    n = len(latencies)
    # Best time of each distinct op over its repeats in the run.
    best = {}
    for r in records:
        best[r.op] = min(best.get(r.op, r.seconds), r.seconds)
    distinct = len(best)
    timings = {
        "all": (n / sum(latencies), 1e3 * statistics.median(latencies), n),
        "best": (distinct / sum(best.values()), 1e3 * statistics.median(best.values()), distinct),
    }
    ops_per_s, latency_ms, timed = timings["best" if workload.best_of_repeats else "all"]
    if args.workload == "cli_session":
        rss_kb = workload.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = [r for r in records if r.problem is not None]
    values = {
        "setup_s": statistics.median(probes),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": latency_ms,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    samples = {"setup_s": len(probes), "ops_per_s": timed, "latency_p50_ms": timed,
               "peak_rss_mb": 1}
    metrics = _metrics(values, samples, "end_to_end")
    extra = {"fail_ratio": {"value": len(failed) / n, "unit": "ratio", "samples": n},
             "repeats_per_op": {"value": n / distinct, "unit": "count", "samples": n}}
    for kind, (ops, p50, count) in timings.items():
        extra[f"ops_per_s_{kind}"] = {"value": ops, "unit": "1/s", "samples": count}
        extra[f"latency_p50_{kind}_ms"] = {"value": p50, "unit": "ms", "samples": count}
    if n >= 1000:  # at least ten samples beyond the 99th percentile
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
        extra["latency_p99_ms"] = {"value": 1e3 * p99, "unit": "ms", "samples": n}
    return records, metrics, extra


def measure_per_layer(wl, workload, args) -> tuple:
    from tracer import Tracer, write_spans

    start = perf_counter()
    env = wl.cli_env(ROOT)
    interp = wl.process_seconds(["-c", "pass"], env, ROOT, STARTUP_REPEATS)
    imported = wl.process_seconds(["-c", "import geolog"], env, ROOT, STARTUP_REPEATS)
    records = []
    sub_latency = {sub: [] for sub in _SUBCOMMANDS}
    if args.workload == "cli_session":
        for op in workload.session():
            rec = wl.run_one(op, len(records))
            records.append(rec)
            sub_latency[rec.kind].append(rec.seconds)

    ops = [op for batch in workload.trace_batches() for op in batch]
    plain_s = traced_s = 0.0
    tracers = []
    pass_records = []
    while not tracers or perf_counter() - start < args.seconds:
        tracer = Tracer()

        def traced_pass():
            with tracer:
                return [wl.run_one(op, i, tracer) for i, op in enumerate(ops)]

        # Alternate which pass goes first so slow drift of the machine cancels.
        if len(tracers) % 2:
            traced = traced_pass()
            plain = [wl.run_one(op, i) for i, op in enumerate(ops)]
        else:
            plain = [wl.run_one(op, i) for i, op in enumerate(ops)]
            traced = traced_pass()
        plain_s += sum(r.seconds for r in plain)
        traced_s += sum(r.seconds for r in traced)
        records.extend(plain + traced)
        pass_records.append(traced)
        tracers.append(tracer)

    summaries = [t.summary() for t in tracers]
    first = summaries[0]
    n_ops = len(ops)

    def calls(span):
        return first.get(span, {}).get("calls", 0)

    def self_s(span):
        return statistics.median(s.get(span, {}).get("self_s", 0.0) for s in summaries)

    values = {}
    for span in _CALL_LAYERS:
        values[f"{span}.calls"] = calls(span)
        values[f"{span}.self_s"] = self_s(span)
    values["matcore.polar_per_input"] = calls("matcore.polar_decompose") / n_ops
    values["matcore.spd_log_per_input"] = calls("matcore.principal_log_spd") / n_ops
    for name in _ORACLES:
        span = f"oracle.{name}"
        durations = first.get(span, {}).get("durations", [])
        values[f"{span}.calls"] = calls(span)
        values[f"{span}.self_s"] = self_s(span)
        values[f"{span}.p50_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
    verdicts = [r for r in pass_records[0] if r.kind in _ORACLES]
    passed = [r for r in verdicts if r.problem is None]
    nodes = [r.info["nodes"] for r in verdicts if "nodes" in r.info]
    values["oracle.pass_ratio"] = len(passed) / len(verdicts) if verdicts else 0.0
    values["oracle.path_nodes_mean"] = statistics.mean(nodes) if nodes else 0.0
    values["oracle.closed_form_share"] = statistics.median(t.closed_form_share() for t in tracers)
    values["cli.interp_start_s"] = interp
    values["cli.import_geolog_s"] = imported - interp
    for sub in _SUBCOMMANDS:
        lat = sub_latency[sub]
        values[f"cli.{sub}.p50_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    for span in ("path_rows", "run_fit", "run_suite"):
        values[f"cli.{span}.self_s"] = self_s(f"cli.{span}")
    values["cli.predict_stresses.calls"] = calls("cli.predict_stresses")
    values["trace_overhead_ratio"] = traced_s / plain_s

    samples = {name: n_ops for name in values}
    samples.update({"cli.interp_start_s": STARTUP_REPEATS, "cli.import_geolog_s": STARTUP_REPEATS,
                    "trace_overhead_ratio": len(tracers) * n_ops})
    samples.update({f"cli.{sub}.p50_ms": len(sub_latency[sub]) for sub in _SUBCOMMANDS})
    metrics = _metrics(values, samples, "per_layer")
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    write_spans(span_file, tracers)
    extra = {"traced_passes": {"value": len(tracers), "unit": "count", "samples": len(tracers)}}
    return records, metrics, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_forms", "oracle_verdicts", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    wl = load_program()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(wl, args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        measure = measure_per_layer if args.trace else measure_end_to_end
        records, metrics, extra = measure(wl, workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every op of every workload is right at the commit that added this
    # benchmark, so any failed op, a FAIL verdict included, is a defect.
    failed = [r for r in records if r.problem is not None]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    env = environment(args)
    detail = dict(result, environment=env, metrics=metrics, extra_metrics=extra,
                  failures=[f"{r.kind}: {r.problem[0]}: {r.problem[1]}" for r in failed[:20]])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")

    print("environment: " + json.dumps(env))
    for name, m in {**metrics, **extra}.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (samples {m['samples']})")
    print(f"{args.workload} ops attempted {len(records)}, failed {len(failed)}")
    for line in detail["failures"]:
        print("  failed op: " + line[:300])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
