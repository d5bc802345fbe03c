"""Program defects that keep inputs out of the benchmark's workloads.

Each test asserts the right result and is a strict xfail: it fails today
because of the program, and turns into an unexpected pass once the program
is fixed. At that point remove the xfail and put the input back into its
workload (inputs.HARD_KINDS for closed_forms; the README prologue and
fresh GL+ path draws, instead of inputs.acceptance_path_draws, for
oracle_verdicts), so that the workload times it again.

Run with: python3 -m pytest bench/tests -q
"""

import numpy as np
import pytest

import geolog.matcore as matcore
import geolog.oracle as oracle
import inputs
import reference
import workloads as wl


@pytest.mark.xfail(strict=True, reason="kirchhoff_stress and cauchy_stress take the log of "
                   "F F^T, which squares the condition number of F")
@pytest.mark.parametrize("n", [2, 3])
def test_stresses_on_ill_conditioned_inputs(n):
    F = inputs.draw_hard(np.random.default_rng(n), n, "ill_conditioned")
    refs = reference.closed_form_reference(F, wl.CLOSED_FORM_METRIC, wl.CLOSED_FORM_MODELS)
    out = wl.closed_form_outputs(F)
    assert [k for k, ref in refs.items() if not reference.within(out[k], ref)] == []


@pytest.mark.xfail(strict=True, reason="the path oracle finds a path shorter than the "
                   "closed-form distance by more than its undershoot allowance")
@pytest.mark.parametrize("draw, seed, samples", [
    # the fifth README draw: gap -2.16% with 35 nodes
    (lambda: inputs.readme_draws(5)[4], 7, 5),
    # a GL+ draw like those oracle_verdicts made from its seed before it took
    # its path draws from acceptance criterion 1: gap -1.59% with 33 nodes
    (lambda: inputs.draw_gl(np.random.default_rng([124, 1, 1]), 2), 101, 1),
], ids=["readme-5", "gl-plus"])
def test_planar_draw_passes_the_path_oracle(draw, seed, samples):
    F = draw()
    cfg = oracle.OracleConfig(seed=seed, samples=samples, nodes=inputs.auto_nodes(F), tol=0.02,
                              max_iters=200000)
    verdict = oracle.geodesic_distance_oracle(F, matcore.MetricParams(1.0, 1.0, 1.0), cfg)
    assert verdict.passed, str(verdict)
