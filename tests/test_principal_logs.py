"""The stacked principal-log kernel of the log-sampling oracles against
50-digit references on planted spectra."""

import math
import subprocess
import sys

import numpy as np
import pytest

from geolog.constitutive import sample_gl
from geolog.matcore import mat_exp
from geolog.oracle import _principal_logs, _random_rotations, substream

mpmath = pytest.importorskip("mpmath")


def mp_log(M):
    """Principal log of M at 50 digits.

    Distinct eigenvalues go through mpmath's eigendecomposition with the
    principal scalar log; mpmath.logm, whose square roots do not keep the
    principal branch near the negative axis, serves only the defective and
    clustered planted spectra, which lie near the positive axis."""
    with mpmath.workdps(50):
        A = mpmath.matrix(M.tolist())
        vals, V = mpmath.eig(A)
        gap = min(abs(vals[i] - vals[j]) for i in range(len(vals)) for j in range(i))
        if gap > 1e-20:
            L = V * mpmath.diag([mpmath.log(v) for v in vals]) * mpmath.inverse(V)
        else:
            L = mpmath.logm(A)
        return np.array([[float(mpmath.re(L[i, j])) for j in range(A.cols)] for i in range(A.rows)])


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rot3(axis, theta):
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * K @ K


R3 = rot3([1.0, 2.0, 3.0], 0.4)
V3 = np.array([[1.0, 0.4, -0.3], [0.2, 1.1, 0.5], [-0.6, 0.3, 0.9]])


def similar(D):
    return V3 @ D @ np.linalg.inv(V3)


def rel_error(M):
    logs, ok = _principal_logs(M[np.newaxis])
    assert ok[0]
    ref = mp_log(M)
    return float(np.max(np.abs(logs[0] - ref))) / max(1.0, float(np.max(np.abs(ref))))


DEFECTIVE = {
    "jordan2": np.array([[2.0, 1.0], [0.0, 2.0]]),
    "jordan3": np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]),
    "jordan3-similar": similar(np.array([[0.7, 1.0, 0.0], [0.0, 0.7, 1.0], [0.0, 0.0, 0.7]])),
    "jordan2+1": np.array([[1.5, 1.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 0.4]]),
    "identity2": np.eye(2),
    "identity3": np.eye(3),
    "aab": np.diag([1.5, 1.5, 0.3]),
    "aab-similar": similar(np.diag([1.5, 1.5, 0.3])),
    "abb-rotated": R3 @ np.diag([4.0, 0.5, 0.5]) @ R3.T,
}


@pytest.mark.parametrize("name", sorted(DEFECTIVE))
def test_repeated_eigenvalues(name):
    assert rel_error(DEFECTIVE[name]) <= 1e-14


@pytest.mark.parametrize("gap", [1e-9, 1e-7, 1e-5, 1e-4, 1e-3])
def test_triple_clusters(gap):
    # spread below, near and above the Taylor branch's reach
    assert rel_error(similar(np.diag([1.2, 1.2 + gap, 1.2 + 2.0 * gap]))) <= 1e-14
    assert rel_error(R3 @ np.diag([0.8, 0.8 - gap, 0.8 + gap]) @ R3.T) <= 1e-14
    perturbed = np.array([[1.2, 1.0, 0.0], [0.0, 1.2, 1.0], [0.0, 0.0, 1.2]])
    perturbed[2, 0] = gap  # a Jordan block split into a cube-root cluster
    assert rel_error(perturbed) <= 1e-14


def test_clustered_entries_are_counted():
    stats = {}
    stack = np.stack([np.eye(3), DEFECTIVE["jordan3"], similar(np.diag([1.2, 1.3, 1.4])),
                      similar(np.diag([1.2, 1.2 + 1e-7, 1.2 - 1e-7]))])
    _, ok = _principal_logs(stack, stats)
    assert ok.all() and stats == {"clustered": 3}


@pytest.mark.parametrize("y", [1e-8, 1e-6, 1e-3])
def test_conjugate_pairs_just_off_the_negative_axis(y):
    # the log has entries near pi and a condition number near pi / y, so
    # the error bound scales with 1 / y
    block = np.array([[-1.0, -y], [y, -1.0]])
    cases = [
        block,
        rot2(0.3) @ np.array([[-1.0, -3.0 * y], [y / 3.0, -1.0]]) @ rot2(0.3).T,
        R3 @ np.block([[block, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[0.7]])]]) @ R3.T,
        R3 @ np.block([[2.5 * block, np.zeros((2, 1))], [np.zeros((1, 2)), np.array([[0.2]])]]) @ R3.T,
    ]
    for M in cases:
        assert rel_error(M) <= 1e-14 / y


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_rotations_near_pi(scale):
    delta = 1e-6
    for Q in (rot2(math.pi - delta), rot3([1.0, -2.0, 0.5], math.pi - delta)):
        assert rel_error(scale * Q) <= 1e-14 / delta


def test_spectra_touching_the_axis_are_skipped():
    stack2 = np.stack([
        np.diag([-1.0, 2.0]),
        np.diag([0.0, 1.0]),
        rot2(math.pi),
        np.array([[-1.0, -1e-13], [1e-13, -1.0]]),  # imaginary part under 1e-12
        np.array([[-2.0, 1.0], [0.0, -2.0]]),
        np.eye(2),
    ])
    logs, ok = _principal_logs(stack2)
    assert ok.tolist() == [False] * 5 + [True]
    assert not logs[:5].any()
    stack3 = np.stack([
        rot3([1.0, 2.0, 2.0], math.pi),
        np.diag([2.0, 0.0, 1.0]),
        np.diag([-0.5, 1.0, 3.0]),
        R3 @ np.diag([-1.0, -1.0, 0.5]) @ R3.T,
        np.block([[np.array([[-1.0, -1e-13], [1e-13, -1.0]]), np.zeros((2, 1))],
                  [np.zeros((1, 2)), np.array([[2.0]])]]),
        -np.eye(3),
        np.eye(3),
    ])
    logs, ok = _principal_logs(stack3)
    assert ok.tolist() == [False] * 6 + [True]
    assert not logs[:6].any()


def test_spectra_spread_past_the_condition_limit_are_skipped():
    # eigenvalues 1, 2.1e-45 and 2e-221: no double-precision kernel resolves
    # the two small ones, and the log came out -305.5 at [1, 1] instead of 0
    wide = np.array([[2.1e-45, 0.0, -3.9e-150], [0.0, 1.0, 0.0], [1.09e-116, 0.0, 0.0]])
    logs, ok = _principal_logs(np.stack([wide, np.diag([2.0, 1.0, 1e-15]), np.diag([2.0, 1.0, 1e-13])]))
    assert ok.tolist() == [False, False, True]
    assert not logs[:2].any()
    assert rel_error(np.diag([2.0, 1.0, 1e-13])) <= 1e-14
    # spreads 1e15 (skipped) and about 2.9e13 (kept)
    logs, ok = _principal_logs(np.stack([np.diag([1.0, 1e-15]), 1e-8 * rot2(1.0) @ np.diag([1e7, 1e-7])]))
    assert ok.tolist() == [False, True]


def test_stacked_results_equal_single_ones():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        stack = rng.uniform(-2.0, 2.0, size=(50, n, n))
        logs, ok = _principal_logs(stack)
        for i in range(50):
            one, one_ok = _principal_logs(stack[i:i + 1])
            assert one_ok[0] == ok[i] and np.array_equal(one[0], logs[i])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e-150, 1e150, pytest.param(2.0 ** -500, id="2^-500"), pytest.param(2.0 ** 500, id="2^500")])
def test_scaled_stacks(c):
    # log(c M) = log(c) I + log M for entries near 1e+-150, whose squares
    # and cubes leave the double range. The ok mask must not move either,
    # also on logmin stacks Q^T F over sampled rotations Q.
    rng = np.random.default_rng(11)
    for n in (2, 3):
        stack = rng.uniform(-1.0, 1.0, size=(30, n, n)) + np.linspace(0.0, 2.0, 30)[:, None, None] * np.eye(n)
        logs, ok = _principal_logs(stack)
        scaled, scaled_ok = _principal_logs(c * stack)
        assert np.array_equal(scaled_ok, ok)
        assert scaled_ok.sum() >= 15
        shifted = logs[scaled_ok] + math.log(c) * np.eye(n)
        assert np.allclose(scaled[scaled_ok], shifted, rtol=1e-12, atol=1e-12)
        F_rng = np.random.default_rng(20 + n)
        for k in range(4):
            M = np.swapaxes(_random_rotations(substream(k, 0), n, 2000), -1, -2) @ sample_gl(F_rng, n)
            assert np.array_equal(_principal_logs(c * M)[1], _principal_logs(M)[1])


def test_exp_of_log_round_trip():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    entry = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.lists(entry, min_size=n * n, max_size=n * n)),
           st.floats(0.0, 3.0))
    def check(values, shift):
        n = 2 if len(values) == 4 else 3
        M = np.array(values).reshape(n, n) + shift * np.eye(n)  # shifts most spectra off the axis
        logs, ok = _principal_logs(M[np.newaxis])
        if not ok[0]:
            return
        # the log's condition number grows without bound near a singular M
        # and near the negative axis (see the planted cases above); the
        # round trip covers the M that keep clear of both
        vals = np.linalg.eigvals(M)
        clearance = np.min(np.where(vals.real > 0.0, np.abs(vals), np.abs(vals.imag)))
        if np.linalg.cond(M) > 1e4 or clearance < 1e-3 * np.max(np.abs(M)):
            return
        L = logs[0]
        scale = (1.0 + float(np.max(np.abs(L)))) * max(1.0, float(np.max(np.abs(M))))
        assert float(np.max(np.abs(mat_exp(L) - M))) <= 1e-12 * scale

    check()


def test_logmin_oracle_leaves_scipy_unloaded():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from geolog.oracle import OracleConfig, logmin_oracle\n"
        "v = logmin_oracle(np.eye(3), OracleConfig(seed=1, samples=200))\n"
        "print(v.passed, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "True False"
