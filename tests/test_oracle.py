"""Tests for the brute-force verification engines."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from geolog.matcore import (
    MetricParams,
    NonPositiveDeterminantError,
    polar_decompose,
    principal_log_spd,
    weighted_norm,
)
from geolog.geodesy import dist_squared_to_SO
import geolog.oracle as oracle
from geolog.oracle import (
    OracleConfig,
    best_approx_uniqueness_probe,
    geodesic_distance_oracle,
    grioli_oracle,
    logmin_oracle,
    substream,
    weighted_logmin_oracle,
    _interp_nodes,
    _in_gl_plus,
    _lbfgs,
    _path_activity,
    _path_energy,
    _path_objective,
    _polyline_length,
    _principal_logs,
    _random_rotations,
    _run_path_search,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
F_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
R_SHEAR = np.array([[2.0, 1.0], [-1.0, 2.0]]) / math.sqrt(5.0)
EUCLID_SHEAR = 0.7265425280053608  # ||U - id|| for the unit shear
DIST_SHEAR = 0.6805362893736004  # sqrt(2) * ln(golden ratio)

P_FROB = MetricParams(1.0, 1.0, 1.0)


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_gl(rng, n):
    while True:
        F = rng.uniform(-2.0, 2.0, size=(n, n))
        if 0.1 <= np.linalg.det(F) <= 10.0:
            return F


class TestOracleConfig:
    def test_defaults_valid(self):
        cfg = OracleConfig()
        assert cfg.nodes >= 4 and cfg.tol > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"samples": 0},
            {"nodes": 3},
            {"tol": 0.0},
            {"tol": -1.0},
            {"max_iters": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            OracleConfig(**kwargs)


class TestSubstream:
    def test_repeatable(self):
        a = substream(42, 7).standard_normal(16)
        b = substream(42, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_indices_decorrelated(self):
        a = substream(42, 0).standard_normal(16)
        b = substream(42, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_seed_matters(self):
        a = substream(1, 0).standard_normal(16)
        b = substream(2, 0).standard_normal(16)
        assert not np.array_equal(a, b)


class TestGrioliOracle:
    CFG = OracleConfig(seed=3, samples=200, nodes=8, tol=1e-6, max_iters=60000)

    def test_identity(self):
        v = grioli_oracle(np.eye(2), self.CFG)
        assert v.passed
        assert v.closed_form_value == pytest.approx(0.0, abs=1e-12)
        assert v.oracle_value == pytest.approx(0.0, abs=1e-9)

    def test_spd_best_angle_zero(self):
        v = grioli_oracle(np.array([[2.0, 0.3], [0.3, 0.7]]), self.CFG)
        assert v.passed
        assert np.max(np.abs(v.witness - np.eye(2))) < 1e-4

    def test_shear_frozen(self):
        v = grioli_oracle(F_SHEAR, self.CFG)
        assert v.passed
        assert v.closed_form_value == pytest.approx(EUCLID_SHEAR, abs=1e-12)
        assert v.oracle_value == pytest.approx(EUCLID_SHEAR, abs=1e-9)
        assert np.max(np.abs(v.witness - R_SHEAR)) < 1e-4

    def test_random_planar(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = grioli_oracle(random_gl(rng, 2), self.CFG)
            assert v.passed
            assert abs(v.oracle_value - v.closed_form_value) <= 1e-6

    def test_random_spatial(self):
        rng = np.random.default_rng(23)
        for _ in range(4):
            F = random_gl(rng, 3)
            v = grioli_oracle(F, self.CFG)
            assert v.passed
            assert abs(v.oracle_value - v.closed_form_value) <= 1e-6
            assert np.max(np.abs(v.witness - polar_decompose(F).rotation)) <= 1e-4

    def test_deterministic(self):
        F = np.array([[0.3, -1.2], [0.8, 1.1]])
        a = grioli_oracle(F, self.CFG)
        b = grioli_oracle(F, self.CFG)
        assert a.oracle_value == b.oracle_value
        assert np.array_equal(a.witness, b.witness)

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonPositiveDeterminantError):
            grioli_oracle(np.diag([1.0, -1.0]), self.CFG)
        with pytest.raises(ValueError):
            grioli_oracle(np.eye(4), self.CFG)


class TestGeodesicDistanceOracle:
    def test_identity(self):
        v = geodesic_distance_oracle(np.eye(2), P_FROB, OracleConfig(seed=1, nodes=8, tol=0.02))
        assert v.passed
        assert v.oracle_value == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_frozen(self):
        F = np.diag([math.e, 1.0 / math.e])
        v = geodesic_distance_oracle(F, P_FROB, OracleConfig(seed=1, nodes=16, tol=0.02))
        assert v.passed
        assert v.closed_form_value == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(v.relative_gap) <= 0.02

    def test_shear_frozen(self):
        v = geodesic_distance_oracle(F_SHEAR, P_FROB, OracleConfig(seed=1, nodes=12, tol=0.02))
        assert v.passed
        assert v.closed_form_value == pytest.approx(DIST_SHEAR, abs=1e-12)
        assert abs(v.relative_gap) <= 0.02
        assert np.max(np.abs(v.witness - R_SHEAR)) < 1e-2

    def test_never_undershoots_beyond_allowance(self):
        rng = np.random.default_rng(29)
        for _ in range(4):
            F = random_gl(rng, 2)
            theta_r = math.atan2(*polar_decompose(F).rotation[[1, 0], 0])
            act = _path_activity(F, abs(theta_r))
            nodes = min(80, max(12, math.ceil(16.0 * act)))
            cfg = OracleConfig(seed=2, nodes=nodes, tol=0.02, max_iters=200000)
            v = geodesic_distance_oracle(F, P_FROB, cfg)
            assert v.passed
            floor = v.closed_form_value * (1.0 - 4.0 * (act / nodes) ** 2 - 1e-5)
            assert v.oracle_value >= floor

    def test_node_doubling_shrinks_gap(self):
        for F in (np.diag([math.e, 1.0 / math.e]), F_SHEAR):
            gaps = {}
            for nodes in (6, 12):
                cfg = OracleConfig(seed=1, nodes=nodes, tol=0.08, max_iters=400000)
                v = geodesic_distance_oracle(F, P_FROB, cfg)
                gaps[nodes] = abs(v.oracle_value - v.closed_form_value)
            assert gaps[6] / gaps[12] >= 1.5

    def test_deterministic(self):
        cfg = OracleConfig(seed=9, nodes=10, tol=0.02)
        a = geodesic_distance_oracle(F_SHEAR, P_FROB, cfg)
        b = geodesic_distance_oracle(F_SHEAR, P_FROB, cfg)
        assert a.oracle_value == b.oracle_value
        assert np.array_equal(a.witness, b.witness)

    def test_planar_only(self):
        with pytest.raises(ValueError):
            geodesic_distance_oracle(np.eye(3), P_FROB, OracleConfig())


class TestLogminOracle:
    CFG = OracleConfig(seed=5, samples=2000, nodes=8, tol=0.02, max_iters=100)

    def test_spd_attained_at_identity(self):
        U = np.array([[2.0, 0.5], [0.5, 1.0]])
        v = logmin_oracle(U, self.CFG)
        assert v.passed
        assert v.oracle_value == pytest.approx(v.closed_form_value, abs=1e-8)
        assert np.max(np.abs(v.witness - np.eye(2))) < 1e-10

    def test_rotation_input(self):
        v = logmin_oracle(rot2(0.3), self.CFG)
        assert v.passed
        assert v.closed_form_value == pytest.approx(0.0, abs=1e-12)
        assert v.oracle_value >= -1e-9

    def test_random_inputs(self):
        rng = np.random.default_rng(31)
        for n in (2, 3):
            for _ in range(3):
                F = random_gl(rng, n)
                v = logmin_oracle(F, self.CFG)
                assert v.passed
                assert v.oracle_value >= v.closed_form_value - 1e-9

    def test_weighted_targets_split_form(self):
        rng = np.random.default_rng(37)
        p = MetricParams(2.0, 1.0, 1.0)
        for n in (2, 3):
            F = random_gl(rng, n)
            v = weighted_logmin_oracle(F, p, self.CFG)
            pol = polar_decompose(F)
            log_u = pol.right_stretch
            from geolog.matcore import principal_log_spd, deviatoric

            L = principal_log_spd(log_u)
            target = math.sqrt(
                2.0 * float(np.sum(deviatoric(L) * deviatoric(L)))
                + 0.5 * float(np.trace(L)) ** 2
            )
            assert v.closed_form_value == pytest.approx(target, abs=1e-12)
            assert v.passed

    def test_weighted_shear(self):
        p = MetricParams(2.0, 1.0, 1.0)
        v = weighted_logmin_oracle(F_SHEAR, p, self.CFG)
        assert v.passed
        assert v.closed_form_value == pytest.approx(2.0 * math.log(PHI), abs=1e-12)

    def test_deterministic(self):
        a = logmin_oracle(F_SHEAR, self.CFG)
        b = logmin_oracle(F_SHEAR, self.CFG)
        assert a.oracle_value == b.oracle_value

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            logmin_oracle(np.eye(4), self.CFG)


class TestPolylineLength:
    P = MetricParams(2.0, 1.0, 0.7)

    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_scaling_chord(self, a):
        # (1 + t(a-1))^-1 (a-1) I integrates to the volumetric length 2|ln a|
        value = _polyline_length([(1.0, 0.0, 0.0, 1.0), (a, 0.0, 0.0, a)], self.P)
        expect = math.sqrt(0.5 * self.P.kappa) * 2.0 * abs(math.log(a))
        assert value == pytest.approx(expect, rel=1e-12)

    def test_chord_through_zero_is_infinite(self):
        assert _polyline_length([(1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0)], self.P) == math.inf


TRIPLES = [MetricParams(1.0, 1.0, 1.0), MetricParams(2.0, 1.0, 1.0), MetricParams(1.0, 3.0, 0.5)]
F_PATH = np.array([[1.5, 1.2], [-0.7, 0.9]])
# pinned at theta = 0, the descent to this near-half-turn has trial steps
# that leave GL+
F_HALF_TURN = np.array([[-1.8416284933431886, 0.11435705304008659],
                        [-0.1626564684583851, -1.7506016834004976]])


def central_differences(f, x, h=1e-6):
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])


class TestPathEnergySearch:
    @pytest.mark.parametrize("p", TRIPLES, ids=["frobenius", "mu2", "muc3"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_gradient_matches_central_differences(self, p, pinned):
        theta0 = 0.2
        X0 = _interp_nodes(F_PATH, theta0, 10)
        x0, nodes_of, energy = _path_objective(X0, None if pinned else theta0, p)
        x = x0 + 0.05 * np.random.default_rng(53).standard_normal(x0.size)
        assert _in_gl_plus(nodes_of(x))
        value, grad = energy(x)
        numeric = central_differences(lambda y: energy(y)[0], x)
        assert np.max(np.abs(numeric - grad)) <= 1e-8 * np.max(np.abs(grad))
        assert value >= _polyline_length(nodes_of(x), p) ** 2  # Cauchy-Schwarz

    def test_energy_gradient_in_three_dimensions(self):
        rng = np.random.default_rng(59)
        X = np.eye(3) + 0.1 * np.arange(7)[:, None, None] * rng.standard_normal((7, 3, 3)) / 7
        value, grad = _path_energy(X, TRIPLES[2])
        numeric = central_differences(
            lambda y: _path_energy(y.reshape(X.shape), TRIPLES[2])[0], X.ravel()
        ).reshape(X.shape)
        assert np.max(np.abs(numeric - grad)) <= 1e-8 * np.max(np.abs(grad))

    @pytest.mark.parametrize("half_turn", [False, True], ids=["free", "pinned-half-turn"])
    def test_accepted_steps_descend_inside_gl_plus(self, half_turn):
        if half_turn:
            pol = polar_decompose(F_HALF_TURN)
            theta_r = math.atan2(pol.rotation[1, 0], pol.rotation[0, 0])
            X0 = oracle._two_phase_nodes(F_HALF_TURN, 0.0, theta_r, pol.right_stretch, 12)
            x0, nodes_of, energy = _path_objective(X0, None, TRIPLES[2])
        else:
            x0, nodes_of, energy = _path_objective(_interp_nodes(F_PATH, 0.2, 12), 0.2, TRIPLES[2])
        stats = {}
        values = []
        for x, value in _lbfgs(energy, x0, 20000, stats):
            assert _in_gl_plus(nodes_of(x))
            values.append(value)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert len(values) == stats["iterations"] + 1
        assert (stats["gl_halvings"] > 0) == half_turn

    @pytest.mark.parametrize("pinned", [None, 0.0, 2.5])
    def test_identical_calls_are_bit_identical(self, pinned):
        cfg = OracleConfig(nodes=20, max_iters=200000)
        a_len, a = _run_path_search(F_PATH, TRIPLES[2], cfg, pinned)
        b_len, b = _run_path_search(F_PATH, TRIPLES[2], cfg, pinned)
        assert a_len == b_len and a["theta"] == b["theta"]
        assert {k: v for k, v in a.items() if k != "seconds"} == {
            k: v for k, v in b.items() if k != "seconds"
        }

    def test_verdict_stats_bound_the_work(self):
        for max_iters, stops in ((200000, {"converged", "iterations"}), (40, {"evaluations"})):
            cfg = OracleConfig(nodes=24, max_iters=max_iters)
            v = geodesic_distance_oracle(F_PATH, TRIPLES[1], cfg)
            s = v.stats
            assert s["iterations"] <= 300 and s["evaluations"] <= max_iters
            assert s["stop"] in stops and s["start"] == "interp" and s["nodes"] == 24
            assert s["seconds"] > 0.0
            assert np.array_equal(v.witness, rot2(s["theta"]))
            tag = "PASS" if v.passed else "FAIL"
            assert str(v) == (
                f"[{tag}] {v.claim}: closed_form={v.closed_form_value:.9g} "
                f"oracle={v.oracle_value:.9g} gap={v.relative_gap:.3g}"
            )


class TestUniquenessProbe:
    CFG = OracleConfig(seed=11, samples=5, nodes=14, tol=0.02, max_iters=120000)

    def test_spd(self):
        v = best_approx_uniqueness_probe(np.diag([2.0, 0.5]), P_FROB, self.CFG)
        assert v.passed
        assert v.oracle_value > v.closed_form_value

    def test_identity(self):
        v = best_approx_uniqueness_probe(np.eye(2), P_FROB, self.CFG)
        assert v.passed
        assert v.oracle_value > 0.0

    def test_shear(self):
        v = best_approx_uniqueness_probe(F_SHEAR, P_FROB, self.CFG)
        assert v.passed

    def test_shear_pinned_at_identity_exceeds(self):
        # the canonical off-polar endpoint: pin the path to end at no rotation
        cfg = OracleConfig(seed=1, nodes=14, tol=0.02, max_iters=150000)
        value, _ = _run_path_search(F_SHEAR, P_FROB, cfg, pinned_theta=0.0)
        closed = math.sqrt(dist_squared_to_SO(F_SHEAR, P_FROB).squared_distance)
        assert value > closed + 1e-3

    def test_planar_only(self):
        with pytest.raises(ValueError):
            best_approx_uniqueness_probe(np.eye(3), P_FROB, self.CFG)


def loop_rotation(rng, n):
    """One uniform rotation per call, drawn as the stacked sampler draws."""
    if n == 2:
        return rot2(float(rng.uniform(-math.pi, math.pi)))
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def loop_logmin(F, cfg, norm_of_sym, closed):
    """Per-rotation reference for the sampled log inequality: returns
    (passed, min value, witness sample index)."""
    n = F.shape[0]
    rng = substream(cfg.seed, 0)
    value_at_r = None
    min_val, min_idx, violation = math.inf, None, None
    for idx in range(cfg.samples + 1):
        Q = polar_decompose(F).rotation if idx == 0 else loop_rotation(rng, n)
        vals, vecs = np.linalg.eig(Q.T @ F)
        if any(abs(l.imag) <= 1e-12 * max(1.0, abs(l)) and l.real <= 0.0 for l in vals):
            continue
        if np.linalg.cond(vecs) < 1e8:
            L = ((vecs * np.log(vals)) @ np.linalg.inv(vecs)).real
        else:
            L = np.real(scipy.linalg.logm(Q.T @ F))
        v = norm_of_sym(0.5 * (L + L.T))
        if idx == 0:
            value_at_r = v
        if v < closed - 1e-9 and violation is None:
            violation = idx
        if v < min_val:
            min_val, min_idx = v, idx
    passed = violation is None and value_at_r is not None and abs(value_at_r - closed) <= 1e-8
    return passed, min_val, violation if violation is not None else min_idx


class TestStackedLogmin:
    CFG = OracleConfig(seed=41, samples=400)
    P = MetricParams(2.0, 0.7, 1.3)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("inflate", [1.0, 1.02])
    def test_matches_per_rotation_loop(self, n, inflate, monkeypatch):
        # inflate > 1 plants a wrong closed form: the verdict must fail and
        # name the first violating sample
        exact = oracle.dist_squared_to_SO
        monkeypatch.setattr(
            oracle, "dist_squared_to_SO",
            lambda F, p: SimpleNamespace(distance=inflate * exact(F, p).distance),
        )
        rng = np.random.default_rng(43 + n)
        cfg = self.CFG
        for _ in range(4):
            F = random_gl(rng, n)
            cases = [
                (logmin_oracle(F, cfg), lambda S: float(np.linalg.norm(S))),
                (weighted_logmin_oracle(F, self.P, cfg), lambda S: weighted_norm(S, self.P)),
            ]
            for verdict, norm_of_sym in cases:
                passed, value, index = loop_logmin(F, cfg, norm_of_sym, verdict.closed_form_value)
                assert verdict.passed == passed == (inflate == 1.0)
                assert verdict.oracle_value == pytest.approx(value, rel=1e-12)
                rotations = _random_rotations(substream(cfg.seed, 0), n, cfg.samples)
                expected = polar_decompose(F).rotation if index == 0 else rotations[index - 1]
                assert np.array_equal(verdict.witness, expected)

    def test_sampler_matches_single_draws(self):
        for n in (2, 3):
            stacked = _random_rotations(substream(7, 0), n, 50)
            rng = substream(7, 0)
            singles = np.array([loop_rotation(rng, n) for _ in range(50)])
            assert np.allclose(stacked, singles, rtol=0.0, atol=1e-15)
            assert np.allclose(np.swapaxes(stacked, 1, 2) @ stacked, np.eye(n), atol=1e-14)
            assert np.all(np.linalg.det(stacked) > 0.0)

    def test_principal_logs_branches(self, monkeypatch):
        calls = []
        logm = scipy.linalg.logm
        monkeypatch.setattr(scipy.linalg, "logm", lambda M: calls.append(M) or logm(M))
        jordan = np.array([[2.0, 1.0], [0.0, 2.0]])
        negative = np.diag([-1.0, 2.0])
        spd = np.array([[2.0, 0.5], [0.5, 1.0]])
        logs, ok = _principal_logs(np.stack([jordan, negative, spd, rot2(math.pi)]))
        assert ok.tolist() == [True, False, True, False]
        assert len(calls) == 1 and np.array_equal(calls[0], jordan)
        exact = np.array([[math.log(2.0), 0.5], [0.0, math.log(2.0)]])
        assert np.allclose(logs[0], exact, rtol=0.0, atol=1e-12)
        assert np.allclose(logs[2], principal_log_spd(spd), rtol=0.0, atol=1e-13)


def test_logmin_stats_count_samples_skips_and_fallbacks():
    cfg = OracleConfig(seed=41, samples=400)
    v = logmin_oracle(F_SHEAR, cfg)
    Q = [polar_decompose(F_SHEAR).rotation, *_random_rotations(substream(41, 0), 2, 400)]
    skipped = sum(
        any(abs(l.imag) <= 1e-12 * max(1.0, abs(l)) and l.real <= 0.0 for l in np.linalg.eigvals(q.T @ F_SHEAR))
        for q in Q
    )
    assert skipped > 0
    assert v.stats == {"samples": 400, "skipped": skipped, "logm_fallbacks": 0}
    stats = {}
    _principal_logs(np.stack([np.array([[2.0, 1.0], [0.0, 2.0]]), np.eye(2)]), stats)
    assert stats == {"logm_fallbacks": 1}
