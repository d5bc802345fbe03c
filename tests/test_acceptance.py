"""Acceptance suite: fourteen headline checks, one test per criterion.

Each test is numbered; conftest.py turns the outcomes into a per-criterion
PASS/FAIL section at the end of the run. Tolerances are part of the contract
and must not be loosened.
"""

import math
import time

import numpy as np
import pytest

from geolog.matcore import MetricParams, mat_exp, polar_decompose, principal_log_spd, sym_part
from geolog.strain import hencky_tensor
from geolog.geodesy import (
    GeodesicSegment,
    cofactor,
    dist_cof_squared_to_SO,
    dist_gl_commuting,
    dist_log_euclidean,
    dist_psym_trace_metric,
    dist_squared_to_SO,
    euclid_dist_to_SO,
    geodesic_residual,
    omega_iso,
    omega_vol,
)
from geolog.constitutive import (
    MaterialModel,
    MotionSample,
    almansi_rate_check,
    coaxial_lograte_check,
    energy,
    kirchhoff_stress,
    tension_compression_check,
)
from geolog.oracle import (
    OracleConfig,
    _path_activity,
    geodesic_distance_oracle,
    grioli_oracle,
    logmin_oracle,
    substream,
    weighted_logmin_oracle,
)
from geolog.cli import FitProblem, main, predict_stresses, run_fit

PARAM_TRIPLES = [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 3.0, 0.5)]


def draw_gl(rng, n):
    """Random F with entries uniform in [-2, 2] and det F in [0.1, 10]."""
    while True:
        F = rng.uniform(-2.0, 2.0, size=(n, n))
        if 0.1 <= np.linalg.det(F) <= 10.0:
            return F


def path_nodes(F):
    """Enough segments that the chord-sum bias stays below ~0.8 percent."""
    pol = polar_decompose(F)
    theta = math.atan2(pol.rotation[1, 0], pol.rotation[0, 0])
    return min(80, max(12, math.ceil(16.0 * _path_activity(F, abs(theta)))))


def test_criterion_01_geodesic_distance_oracle():
    """Discrete-path oracle matches the closed-form distance on GL+(2).

    100 seeded matrices, three weighted-metric parameter triples; the oracle
    must land within 2 percent relative above and never below the closed
    form. Wall-clock budget: 10 minutes.
    """
    rng = substream(101, 0)
    t0 = time.time()
    for _ in range(100):
        F = draw_gl(rng, 2)
        nodes = path_nodes(F)
        for mu, mu_c, kappa in PARAM_TRIPLES:
            cfg = OracleConfig(seed=101, samples=1, nodes=nodes, tol=0.02,
                               max_iters=200000)
            v = geodesic_distance_oracle(F, MetricParams(mu, mu_c, kappa), cfg)
            rel = (v.oracle_value - v.closed_form_value) / v.closed_form_value
            assert v.passed, f"F={F.tolist()} triple={(mu, mu_c, kappa)} rel={rel:+.5f}"
            assert abs(rel) <= 0.02
            assert v.stats["stop"] == "converged"
    assert time.time() - t0 <= 600.0


def test_criterion_02_grioli_rotation_minimum():
    """Newton-descent minimum of the rotation misfit equals ||U - id||."""
    cfg = OracleConfig(seed=102, samples=64, nodes=4, tol=1e-6, max_iters=60000)
    rng = substream(102, 0)
    for _ in range(1000):
        v = grioli_oracle(draw_gl(rng, 2), cfg)
        assert v.passed
        assert abs(v.oracle_value - v.closed_form_value) <= 1e-6
    rng = substream(102, 1)
    for _ in range(200):
        v = grioli_oracle(draw_gl(rng, 3), cfg)
        assert v.passed
        assert abs(v.oracle_value - v.closed_form_value) <= 1e-6


def test_criterion_03_symmetric_log_inequality():
    """Sampled rotations never beat the closed-form log minimum.

    20 matrices, 10^4 rotations each, unweighted and weighted norms; the
    verdict also checks equality at the polar rotation to 1e-8.
    """
    cfg = OracleConfig(seed=103, samples=10000, nodes=4, tol=1e-6, max_iters=10)
    weighted = MetricParams(2.0, 1.0, 1.0)
    rng = substream(103, 0)
    for i in range(20):
        F = draw_gl(rng, 2 if i % 2 == 0 else 3)
        assert logmin_oracle(F, cfg).passed
        assert weighted_logmin_oracle(F, weighted, cfg).passed


def test_criterion_04_geodesic_equation_residual():
    """Closed-form curves satisfy the geodesic ODE to second order in h."""
    rng = np.random.default_rng(104)
    grid = np.linspace(0.1, 0.9, 5)
    r_coarse = r_fine = 0.0
    for _ in range(50):
        F = draw_gl(rng, 2)
        xi = rng.standard_normal((2, 2))
        xi *= rng.uniform(1.0, 3.0) / np.linalg.norm(xi)
        p = MetricParams(mu=1.0, mu_c=float(rng.uniform(0.3, 3.0)), kappa=1.3)
        seg = GeodesicSegment(base=F, tangent_param=xi, params=p)
        r_coarse = max(r_coarse, geodesic_residual(seg, grid, h=1e-3))
        r_fine = max(r_fine, geodesic_residual(seg, grid, h=1e-4))
    assert r_fine < 1e-5
    assert math.log10(r_coarse / r_fine) >= 1.8


def test_criterion_05_measure_decomposition():
    """mu w_iso^2 + (kappa/2) w_vol^2 recombines to the squared distance;
    w_iso is scale-invariant and w_vol vanishes on the isochoric factor."""
    rng = np.random.default_rng(105)
    for i in range(1000):
        n = 2 if i % 2 == 0 else 3
        F = draw_gl(rng, n)
        mu = float(rng.uniform(0.5, 3.0))
        kappa = float(rng.uniform(0.3, 2.0))
        p = MetricParams(mu=mu, mu_c=float(rng.uniform(0.5, 3.0)), kappa=kappa)
        d2 = dist_squared_to_SO(F, p).squared_distance
        combined = mu * omega_iso(F) ** 2 + 0.5 * kappa * omega_vol(F) ** 2
        assert abs(combined - d2) <= 1e-12 * max(1.0, d2)
        c = float(rng.uniform(0.2, 5.0))
        assert abs(omega_iso(c * F) - omega_iso(F)) <= 1e-12
        iso_factor = F / np.linalg.det(F) ** (1.0 / n)
        assert omega_vol(iso_factor) <= 1e-12


def test_criterion_06_inverse_symmetry():
    """The geodesic measure is blind to F -> F^{-1}; the Euclidean one is not."""
    rng = np.random.default_rng(106)
    p = MetricParams(mu=1.0, mu_c=1.0, kappa=1.0)
    for i in range(1000):
        F = draw_gl(rng, 2 if i % 2 == 0 else 3)
        d_fwd = dist_squared_to_SO(F, p).squared_distance
        d_bwd = dist_squared_to_SO(np.linalg.inv(F), p).squared_distance
        assert abs(d_fwd - d_bwd) <= 1e-10 * max(1.0, d_fwd)
    witness = np.diag([2.0, 1.0, 1.0])
    gap = euclid_dist_to_SO(witness).distance - \
        euclid_dist_to_SO(np.linalg.inv(witness)).distance
    assert gap == 0.5


def test_criterion_07_commuting_distance_agreement():
    """Three SPD distances coincide on commuting pairs and split apart off them."""
    rng = np.random.default_rng(107)
    for _ in range(100):
        n = 3
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        d1 = rng.uniform(0.3, 3.0, size=n)
        d2 = rng.uniform(0.3, 3.0, size=n)
        C1 = sym_part(Q @ np.diag(d1) @ Q.T)
        C2 = sym_part(Q @ np.diag(d2) @ Q.T)
        vals = (
            dist_gl_commuting(C1, C2),
            dist_psym_trace_metric(C1, C2),
            dist_log_euclidean(C1, C2),
        )
        assert max(vals) - min(vals) <= 1e-9
    angle = 0.7
    R = np.array([
        [math.cos(angle), -math.sin(angle), 0.0],
        [math.sin(angle), math.cos(angle), 0.0],
        [0.0, 0.0, 1.0],
    ])
    P1 = np.diag([4.0, 1.0, 0.25])
    P2 = R @ np.diag([2.0, 0.5, 1.0]) @ R.T
    witness = {
        "gl_closed_form": dist_gl_commuting(P1, P2),
        "trace_metric": dist_psym_trace_metric(P1, P2),
        "log_euclidean": dist_log_euclidean(P1, P2),
    }
    print("non-commuting witness distances:", witness)
    names = list(witness)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(witness[names[i]] - witness[names[j]]) > 1e-3


def _csv_columns(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(float(cell))
    return cols


def test_criterion_08_volumetric_stress_curves(capsys):
    """The volumetric path tables reproduce both pressure-stretch curves."""
    code = main(["path", "--mode", "volumetric", "--model", "hencky",
                 "--kappa", "1", "--from", "0.4", "--to", "3.0", "--steps", "60"])
    out = capsys.readouterr().out
    assert code == 0
    cols = _csv_columns(out)
    for x, s in zip(cols["control"], cols["stress"]):
        assert abs(s - math.log(x) / x) <= 1e-10

    code = main(["path", "--mode", "volumetric", "--model", "exp_hencky",
                 "--kappa", "1", "--khat", "4", "--from", "0.4", "--to", "3.0",
                 "--steps", "60"])
    out = capsys.readouterr().out
    assert code == 0
    cols = _csv_columns(out)
    for x, s in zip(cols["control"], cols["stress"]):
        expect = (math.log(x) / x) * math.exp(4.0 * math.log(x) ** 2)
        assert abs(s - expect) <= 1e-10


def draw_bounded(rng, n):
    """Random F with singular values log-uniform in [1/2, 2].

    The absolute finite-difference tolerance below needs stresses of order
    one; unbounded distortions push the exponentiated model's energy so high
    that central differences lose digits to truncation alone.
    """
    def rot():
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        return Q

    sv = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=n))
    return rot() @ np.diag(sv) @ rot().T


def test_criterion_09_stress_energy_consistency():
    """Kirchhoff stress contracts like the finite-difference energy gradient."""
    rng = np.random.default_rng(109)
    models = [
        MaterialModel(kind="hencky", mu=0.9, kappa=1.6),
        MaterialModel(kind="exp_hencky", mu=0.9, kappa=1.6, k=0.5, khat=0.25),
    ]
    h = 1e-5
    for _ in range(100):
        F = draw_bounded(rng, 3)
        pol = polar_decompose(F)
        H = principal_log_spd(pol.left_stretch)
        delta = sym_part(rng.standard_normal((3, 3)))
        delta /= np.linalg.norm(delta)
        for model in models:
            tau = kirchhoff_stress(model, F)
            w_plus = energy(model, mat_exp(H + h * delta))
            w_minus = energy(model, mat_exp(H - h * delta))
            fd = (w_plus - w_minus) / (2.0 * h)
            assert abs(float(np.sum(tau * delta)) - fd) < 1e-5


def test_criterion_10_log_rules_and_symmetry():
    """Coaxial additivity, the three exponential identities, and the
    tension-compression picture with its quadratic-energy violation."""
    rng = np.random.default_rng(110)
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        d1 = rng.uniform(0.3, 3.0, size=n)
        d2 = rng.uniform(0.3, 3.0, size=n)
        U1 = sym_part(Q @ np.diag(d1) @ Q.T)
        U2 = sym_part(Q @ np.diag(d2) @ Q.T)
        both = hencky_tensor(sym_part(Q @ np.diag(d1 * d2) @ Q.T)).value
        split = hencky_tensor(U1).value + hencky_tensor(U2).value
        assert np.max(np.abs(both - split)) <= 1e-10
    for i in range(200):
        n = 2 if i % 2 == 0 else 3
        X = rng.uniform(-1.0, 1.0, size=(n, n))
        lhs = np.linalg.det(mat_exp(X))
        rhs = math.exp(np.trace(X))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        dev = X - np.trace(X) / n * np.eye(n)
        diff = mat_exp(dev) - math.exp(-np.trace(X) / n) * mat_exp(X)
        assert np.max(np.abs(diff)) <= 1e-10
        P = mat_exp(sym_part(rng.uniform(-1.0, 1.0, size=(n, n))))
        c = float(rng.uniform(0.2, 5.0))
        diff = principal_log_spd(c * P) - (math.log(c) * np.eye(n) + principal_log_spd(P))
        assert np.max(np.abs(diff)) <= 1e-10
    for kind in ("hencky", "exp_hencky"):
        report = tension_compression_check(
            MaterialModel(kind=kind, mu=1.0, kappa=1.0), samples=200, seed=110
        )
        assert report.symmetric and report.max_gap <= 1e-10
    svk = tension_compression_check(
        MaterialModel(kind="svk", mu=1.0, kappa=1.0), samples=200, seed=110
    )
    assert not svk.symmetric
    assert svk.witness is not None and svk.max_gap > 1e-3


def _spin_generator():
    K = np.array([[0.0, -1.0, 0.4], [1.0, 0.0, -0.2], [-0.4, 0.2, 0.0]])
    return K / math.sqrt(1.4)


def _almansi_motions(steps):
    ts = np.linspace(0.0, 1.0, steps)
    K = _spin_generator()
    rigid = [MotionSample(F=mat_exp(0.9 * t * K),
                          F_dot=0.9 * K @ mat_exp(0.9 * t * K), time=float(t))
             for t in ts]
    stretch = [MotionSample(F=np.diag([1.0 + 0.5 * t, 1.0, 1.0]),
                            F_dot=np.diag([0.5, 0.0, 0.0]), time=float(t))
               for t in ts]
    mixed = []
    for t in ts:
        Q = mat_exp(1.1 * t * K)
        S = np.diag([1.0 + 0.5 * t, 1.0, 1.0])
        S_dot = np.diag([0.5, 0.0, 0.0])
        mixed.append(MotionSample(F=Q @ S, F_dot=1.1 * K @ Q @ S + Q @ S_dot,
                                  time=float(t)))
    return [rigid, stretch, mixed]


def _coaxial_motions(steps):
    ts = np.linspace(0.0, 1.0, steps)
    dilation = [MotionSample(F=(1.0 + 0.8 * t) * np.eye(3),
                             F_dot=0.8 * np.eye(3), time=float(t)) for t in ts]
    isochoric = [MotionSample(F=np.diag([1.0 + 0.5 * t, 1.0 / (1.0 + 0.5 * t), 1.0]),
                              F_dot=np.diag([0.5, -0.5 / (1.0 + 0.5 * t) ** 2, 0.0]),
                              time=float(t)) for t in ts]
    triaxial = [MotionSample(
        F=np.diag([1.0 + 0.5 * t, 1.0 / (1.0 + 0.3 * t), 1.0 + 0.25 * t * t]),
        F_dot=np.diag([0.5, -0.3 / (1.0 + 0.3 * t) ** 2, 0.5 * t]),
        time=float(t)) for t in ts]
    return [dilation, isochoric, triaxial]


def test_criterion_11_rate_identities():
    """Almansi lower-rate and coaxial log-stretch rate identities at 1000 steps."""
    for path in _almansi_motions(1000):
        assert almansi_rate_check(path) < 1e-5
    for path in _coaxial_motions(1000):
        assert coaxial_lograte_check(path) < 1e-5


def test_criterion_12_cofactor_distance():
    """The cofactor closed form equals the direct distance of Cof F."""
    rng = np.random.default_rng(112)
    for _ in range(500):
        F = draw_gl(rng, 3)
        p = MetricParams(mu=float(rng.uniform(0.5, 3.0)), mu_c=1.0,
                         kappa=float(rng.uniform(0.3, 2.0)))
        closed = dist_cof_squared_to_SO(F, p)
        direct = dist_squared_to_SO(cofactor(F), p).squared_distance
        assert abs(closed - direct) <= 1e-10 * max(1.0, closed)


@pytest.mark.parametrize("k", [0.25, 1.0])
def test_criterion_13_planar_rank_one_convexity(k):
    """Second differences along rank-one planar lines never dip below -1e-8."""
    model = MaterialModel(kind="exp_hencky", mu=1.0, kappa=1.0, k=k, khat=0.5)
    rng = substream(113, int(k * 4))
    ts = np.linspace(-0.2, 0.2, 9)
    checked = 0
    while checked < 10000:
        F = draw_gl(rng, 2)
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        direction = np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        vals = []
        for t in ts:
            Ft = F + t * direction
            if np.linalg.det(Ft) <= 1e-8:
                vals = None
                break
            vals.append(energy(model, Ft))
        if vals is None:
            continue
        checked += 1
        assert float(np.min(np.diff(vals, 2))) >= -1e-8


def test_criterion_14_fit_roundtrip():
    """Noiseless synthetic stress curves return their generating parameters."""
    controls = tuple(0.45 + 0.195 * i for i in range(12))

    truth = MaterialModel(kind="hencky", mu=0.4, kappa=2.0)
    data = tuple(predict_stresses(truth, "uniaxial_free", "cauchy", controls))
    problem = FitProblem(controls=controls, stresses=data,
                         mode_kind="uniaxial_free", stress_kind="cauchy",
                         model_kind="hencky", seed=114)
    first = run_fit(problem)
    again = run_fit(problem)
    assert (first.model.mu, first.model.kappa) == (again.model.mu, again.model.kappa)
    assert abs(first.model.mu - 0.4) / 0.4 <= 1e-3
    assert abs(first.model.kappa - 2.0) / 2.0 <= 1e-3

    truth = MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3)
    data = tuple(predict_stresses(truth, "uniaxial_free", "cauchy", controls))
    problem = FitProblem(controls=controls, stresses=data,
                         mode_kind="uniaxial_free", stress_kind="cauchy",
                         model_kind="exp_hencky", seed=114)
    first = run_fit(problem)
    again = run_fit(problem)
    assert (first.model.mu, first.model.kappa, first.model.k, first.model.khat) == \
        (again.model.mu, again.model.kappa, again.model.k, again.model.khat)
    for name, true in (("mu", 0.5), ("kappa", 1.5), ("k", 0.8), ("khat", 0.3)):
        assert abs(getattr(first.model, name) - true) / true <= 1e-3
