"""Tests of the benchmark itself: tiny smoke runs, metric names, tracer
install/restore, and reproducible seeded inputs.

Run with: python3 -m pytest bench/tests -q
"""

import argparse
import itertools
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import geolog.cli as cli
import geolog.oracle as oracle
import inputs
import run
import tracer
import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = run.SPEC
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _args(workload, trace, seed=3):
    return argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)


def _snapshot():
    return {(m.__name__, k): id(v) for m in tracer.geolog_modules() for k, v in vars(m).items()}


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)


def _tiny(name, tmp_path):
    if name == "closed_forms":
        return wl.ClosedForms(3, pool_size=40, batch=10, trace_ops=20, warmup=2)
    if name == "oracle_verdicts":
        return wl.OracleVerdicts(3, prologue=1, logmin_samples=200, grioli_iters=2000,
                                 path_iters=3000)
    w = wl.CliSession(3, run.ROOT, tmp_path, invocations=[0, 2])
    w.min_batches = 1
    return w


# -- metric names --------------------------------------------------------------

def test_metric_names_are_valid():
    names = [w["name"] for w in SPEC["workloads"]] + list(END_TO_END) + list(PER_LAYER)
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


# -- smoke runs ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path, quick):
    before = _snapshot()
    records, metrics, _ = run.measure_end_to_end(wl, _tiny(name, tmp_path), _args(name, 0))
    assert {k: m["unit"] for k, m in metrics.items()} == END_TO_END
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())

    records_t, layers, _ = run.measure_per_layer(wl, _tiny(name, tmp_path), _args(name, 1))
    assert {k: m["unit"] for k, m in layers.items()} == PER_LAYER
    assert all(NAME.match(n) and math.isfinite(m["value"]) for n, m in layers.items())
    assert layers["trace_overhead_ratio"]["value"] > 0
    assert _snapshot() == before

    problems = [r.problem for r in records + records_t if r.problem is not None]
    assert not problems
    if name == "closed_forms":
        assert layers["matcore.polar_per_input"]["value"] == 11
        assert layers["matcore.spd_log_per_input"]["value"] == 11
    if name == "cli_session":
        assert layers["cli.path_rows.self_s"]["value"] > 0
        assert layers["cli.path.p50_ms"]["value"] > 0


def test_result_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "closed_forms",
         "--seed", "5", "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed_forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_closed_form_check_names_every_wrong_output():
    F = inputs.draw_gl(np.random.default_rng(0), 3)
    op = wl.ClosedForms._op("gl_plus", F)
    out = {k: np.asarray(v) for k, v in wl.closed_form_outputs(F).items()}
    assert op.check(out) is None
    out["kirchhoff.hencky"] = out["kirchhoff.hencky"] + 1e-8
    out["omega_iso"] = out["omega_iso"] + 1.0
    category, message = op.check(out)
    assert category == "wrong"
    assert "kirchhoff.hencky" in message and "omega_iso" in message


@pytest.mark.parametrize("name", ["oracle_verdicts", "cli_session"])
def test_batches_repeat_the_same_ops(name, tmp_path):
    first, second = itertools.islice(_tiny(name, tmp_path).batches(), 2)
    assert [id(op) for op in first] == [id(op) for op in second]
    if name == "oracle_verdicts":
        kinds = [op.kind for op in first]
        assert kinds.count("geodesic_distance_oracle") == 1 + 2 * len(wl.PATH_TRIPLES)


# -- tracer ----------------------------------------------------------------------

def test_tracer_wraps_every_copy_and_restores_after_an_error():
    before = _snapshot()
    original = cli.energy
    t = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t:
            assert cli.energy is not original  # the copy made by `from .constitutive import`
            assert oracle.polar_decompose.__wrapped__ is not None
            t.run_op(0, lambda: 1 / 0)
    assert cli.energy is original
    assert _snapshot() == before
    assert [s[0] for s in t.spans] == [tracer.OP_SPAN]


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [("op", 0.0, 10.0, -1, 0), ("matcore.a", 1.0, 5.0, 0, 0),
               ("matcore.b", 2.0, 3.0, 1, 0), ("oracle.c", 6.0, 9.0, 0, 0),
               ("geodesy.d", 6.5, 7.5, 3, 0)]
    summary = t.summary()
    assert summary["op"]["self_s"] == pytest.approx(3.0)
    assert summary["matcore.a"]["self_s"] == pytest.approx(3.0)
    assert summary["matcore.b"]["self_s"] == pytest.approx(1.0)
    assert t.closed_form_share() == pytest.approx(1.0 / 3.0)


# -- seeded inputs ----------------------------------------------------------------

def _same(a, b):
    return len(a) == len(b) and all(
        x[0] == y[0] and np.array_equal(x[1], y[1]) for x, y in zip(a, b))


def test_seeded_inputs_reproduce():
    assert _same(inputs.closed_form_pool(4, 60), inputs.closed_form_pool(4, 60))
    assert not _same(inputs.closed_form_pool(4, 60), inputs.closed_form_pool(5, 60))
    a, b = inputs.oracle_cycle(4, 1), inputs.oracle_cycle(4, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a["path"] + a["grioli"], b["path"] + b["grioli"]))
    assert np.array_equal(a["log"], b["log"]) and a["log"].shape == (3, 3)
    assert np.array_equal(inputs.cli_matrix(4), inputs.cli_matrix(4))


def test_hard_draws_have_their_properties():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        F = inputs.draw_hard(rng, n, "near_rotation")
        U, s, Vt = np.linalg.svd(F)
        assert 1e-8 < np.linalg.norm(F - U @ Vt) <= 1.000001e-6
        s = np.linalg.svd(inputs.draw_hard(rng, n, "repeated"), compute_uv=False)
        assert np.isclose(s[0], s[1]) or np.isclose(s[1], s[2])
        G = inputs.draw_hard(rng, n, "ill_conditioned")
        assert 1e4 * 0.99 <= np.linalg.cond(G) <= 1e8 * 1.01
        assert 0.1 * 0.99 <= np.linalg.det(G) <= 10.0 * 1.01


def test_readme_draws_and_node_rule_match_the_cli():
    rng = oracle.substream(7, 2)
    expected = [cli._random_gl(rng, 2) for _ in range(5)]
    draws = inputs.readme_draws()
    assert all(np.array_equal(a, b) for a, b in zip(draws, expected))
    assert np.allclose(draws[4], [[-0.2177, -0.2924], [0.9563, -0.0520]], atol=1e-4)
    assert inputs.auto_nodes(draws[4]) == 35
    rng = oracle.substream(101, 0)
    acceptance = [cli._random_gl(rng, 2) for _ in range(100)]
    assert all(np.array_equal(a, b) for a, b in zip(inputs.acceptance_path_draws(), acceptance))
    cycle = inputs.oracle_cycle(9, 0)
    assert all(any(np.array_equal(F, G) for G in acceptance) for F in cycle["path"])
    for F in draws + cycle["path"]:
        assert inputs.auto_nodes(F) == cli._auto_nodes(F)
