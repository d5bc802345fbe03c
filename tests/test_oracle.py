"""Tests for the brute-force verification engines."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from geolog.matcore import (
    MetricParams,
    NonPositiveDeterminantError,
    ParameterOutOfRangeError,
    polar_decompose,
    principal_log_spd,
    split_orthogonal,
    weighted_norm,
)
from geolog.geodesy import DistanceReport, dist_squared_to_SO
import geolog.oracle as oracle
from geolog.oracle import (
    OracleConfig,
    best_approx_uniqueness_probe,
    geodesic_distance_oracle,
    grioli_oracle,
    logmin_oracle,
    substream,
    weighted_logmin_oracle,
    _block_solve,
    _least_eigenvector,
    _in_gl_plus,
    _newton,
    _path_activity,
    _path_energy,
    _path_objective,
    _polyline_length,
    _principal_logs,
    _random_rotations,
    _run_path_search,
    _start_nodes,
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

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"seed": -1}, {"tol": 0.0}])
    def test_bad_fields_raise_the_named_parameter_error(self, kwargs):
        with pytest.raises(ParameterOutOfRangeError):
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

    def test_hard_spatial_inputs(self):
        # flat, widely spread and repeated stretches, a polar angle near pi,
        # F next to a rotation and a conformal F, under seeded rotations
        rng = substream(61, 0)
        for _ in range(4):
            Q, V = _random_rotations(rng, 3, 2)
            axis = rng.standard_normal(3)
            near_pi = np.array(oracle._rot3_rows((math.pi - 1e-9) / np.linalg.norm(axis) * axis))
            nudge = rng.standard_normal((3, 3))
            inputs = [Q @ V @ np.diag(s) @ V.T
                      for s in ([1.0, 1e-4, 1e-4], [1e4, 1.0, 1e-4], [1.5, 1.5, 0.4])]
            inputs += [near_pi @ V @ np.diag([1.3, 0.8, 1.1]) @ V.T,
                       Q + 1e-6 / np.linalg.norm(nudge) * nudge, 3.0 * Q]
            for F in inputs:
                v = grioli_oracle(F, self.CFG)
                assert v.passed, F.tolist()
                closed = v.closed_form_value
                assert abs(v.oracle_value - closed) <= 1e-12 * max(1.0, closed)
                assert v.stats["evaluations"] <= 2000

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_overflow_raises(self, n):
        # the closed form ||U - id|| is past the double range at 1e200 id
        with pytest.raises(OverflowError):
            grioli_oracle(1e200 * np.eye(n), self.CFG)

    def test_hard_planar_inputs(self):
        # the identity and -id, a flat stretch, a polar angle near pi, F next
        # to a rotation, a conformal F, scalings near the ends of the double
        # range and cond F = 1e12, under seeded rotations
        rng = substream(61, 2)
        for _ in range(4):
            Q, V = _random_rotations(rng, 2, 2)
            nudge = rng.standard_normal((2, 2))
            U = V @ np.diag([1.3, 0.8]) @ V.T
            inputs = [np.eye(2), -np.eye(2), Q @ np.diag([1.0, 1e-4]), rot2(math.pi - 1e-9) @ U,
                      Q + 1e-6 / np.linalg.norm(nudge) * nudge, 3.0 * Q, 1e150 * Q @ U,
                      1e-150 * Q @ U, Q @ V @ np.diag([1e6, 1e-6]) @ V.T]
            # quarter turns, where tr(Q^T F) vanishes exactly for some planar Q
            inputs += [rot2(0.5 * math.pi), rot2(math.pi * (3.0 - math.sqrt(5.0)) + 0.5 * math.pi)]
            for F in inputs:
                v = grioli_oracle(F, self.CFG)
                assert v.passed, F.tolist()
                closed = v.closed_form_value
                assert abs(v.oracle_value - closed) <= 1e-12 * max(1.0, closed)
                assert v.stats["starts"] == 3
                assert np.linalg.norm(v.witness - polar_decompose(F).rotation) <= 1e-8

    def test_search_near_a_rotation_stops_after_three_starts(self):
        # there the misfit is below its roundoff 8 eps ||F|| times 1e12, so
        # only the roundoff floor lets three descents agree
        rng = substream(61, 1)
        Q = _random_rotations(rng, 3, 1)[0]
        nudge = rng.standard_normal((3, 3))
        for F in (Q + 1e-6 / np.linalg.norm(nudge) * nudge, np.eye(3)):
            v = grioli_oracle(F, self.CFG)
            assert v.passed
            assert v.stats["starts"] == 3, F.tolist()

    @pytest.mark.parametrize("n", [2, 3])
    def test_planted_low_distance_fails(self, monkeypatch, n):
        # a closed form 0.1% below the true minimum, with the right minimizer,
        # must not pass under acceptance criterion 2's config, also where the
        # verdict's roundoff floor exceeds its tolerance
        true_report = oracle.euclid_dist_to_SO

        def planted(F):
            r = true_report(F)
            return DistanceReport((0.999 * r.distance) ** 2, r.minimizer, "closed_form")

        monkeypatch.setattr(oracle, "euclid_dist_to_SO", planted)
        cfg = OracleConfig(seed=102, samples=64, nodes=4, tol=1e-6, max_iters=60000)
        rng = substream(102, n - 2)
        for _ in range(5):
            F = random_gl(rng, n)
            assert not grioli_oracle(F, cfg).passed
            assert not grioli_oracle(1e150 * F, cfg).passed

    @pytest.mark.parametrize("F", [rot2(0.3) @ np.diag([1.001, 1.0]), np.diag([1.001, 1.0, 0.9995])],
                             ids=["planar", "spatial"])
    def test_planted_low_distance_fails_under_a_loose_tol(self, monkeypatch, F):
        # a closed form 1% below a small minimum lies within 0.02 of it; the
        # verdict reads no tolerance from the config, so it must still fail
        true_report = oracle.euclid_dist_to_SO

        def planted(G):
            r = true_report(G)
            return DistanceReport((0.99 * r.distance) ** 2, r.minimizer, "closed_form")

        monkeypatch.setattr(oracle, "euclid_dist_to_SO", planted)
        v = grioli_oracle(F, OracleConfig(tol=0.02))
        assert abs(v.oracle_value - v.closed_form_value) < 0.02
        assert not v.passed

    @pytest.mark.parametrize("plant", ["distance", "minimizer"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_planted_wrong_closed_form_fails(self, monkeypatch, plant, n):
        # a closed form 1e-3 above the true minimum, or one whose minimizer is
        # turned by 0.02 rad, must not pass
        true_report = oracle.euclid_dist_to_SO
        turn = rot2(0.02) if n == 2 else np.array(oracle._rot3_rows([0.0, 0.02, 0.0]))

        def planted(F):
            r = true_report(F)
            if plant == "distance":
                return DistanceReport((r.distance + 1e-3) ** 2, r.minimizer, "closed_form")
            return DistanceReport(r.squared_distance, r.minimizer @ turn, "closed_form")

        monkeypatch.setattr(oracle, "euclid_dist_to_SO", planted)
        rng = np.random.default_rng(79)
        for _ in range(3):
            assert not grioli_oracle(random_gl(rng, n), self.CFG).passed

    def test_stats_count_the_work(self, monkeypatch):
        # every objective evaluation builds one rotation
        calls, build = [], oracle._rot3_rows
        monkeypatch.setattr(oracle, "_rot3_rows", lambda w: calls.append(w) or build(w))
        cfg = OracleConfig(seed=3, samples=40, max_iters=50)
        for F in (F_SHEAR, random_gl(np.random.default_rng(73), 3)):
            calls.clear()
            v = grioli_oracle(F, cfg)
            s = v.stats
            # a start evaluates itself, then at most max_iters - 1 trial rotations;
            # the first three descents end on the polar factor, so three run
            assert s["evaluations"] == len(calls)
            assert s["starts"] == 3 and 3 <= s["evaluations"] <= 3 * 50
            assert s["newton_steps"] <= s["evaluations"] - s["starts"]
            assert s["seconds"] > 0.0
            tag = "PASS" if v.passed else "FAIL"
            assert str(v) == (
                f"[{tag}] {v.claim}: closed_form={v.closed_form_value:.9g} "
                f"oracle={v.oracle_value:.9g} gap={v.relative_gap:.3g}"
            )

    def test_spatial_search_stops_once_three_descents_agree(self):
        # acceptance criterion 2's spatial draws: the first three descents end
        # on the best rotation, and their best is that of all 20 starts
        cfg = OracleConfig(seed=102, samples=64, nodes=4, tol=1e-6, max_iters=60000)
        rng = substream(102, 1)
        for _ in range(200):
            F = random_gl(rng, 3)
            v = grioli_oracle(F, cfg)
            assert v.passed and v.stats["starts"] == 3
            noise = 8.0 * 2.0 ** -52 * math.hypot(*F.ravel().tolist())
            every = [oracle._rotation_newton(F.tolist(), w0, cfg.max_iters, noise)
                     for w0 in oracle._kronecker_ball_starts(20)]
            best = min(run[1] for run in every)
            assert abs(v.oracle_value - best) <= 1e-15 * best

    @pytest.mark.parametrize("apart", ["misfit", "rotation"])
    def test_disagreeing_descents_run_every_start(self, monkeypatch, apart):
        # descents whose ends differ by more than the rule's 1e-12 relative in
        # the misfit or 1e-8 in the rotation never agree, so all 20 run
        exact, ends = oracle._rotation_newton, []

        def apart_ends(F, w0, budget, noise):
            Q, f, evals, steps = exact(F, w0, budget, noise)
            k = len(ends)
            if apart == "misfit":
                f *= 1.0 + 1e-10 * k
            else:
                Q = tuple(map(tuple, np.array(Q) @ np.array(oracle._rot3_rows([0.0, 0.0, 1e-7 * k]))))
            ends.append((Q, f, evals, steps))
            return ends[-1]

        monkeypatch.setattr(oracle, "_rotation_newton", apart_ends)
        v = grioli_oracle(random_gl(np.random.default_rng(109), 3), self.CFG)
        assert v.stats["starts"] == len(ends) == 20
        assert v.stats["evaluations"] == sum(run[2] for run in ends)
        assert np.array_equal(v.witness, np.array(min(ends, key=lambda run: run[1])[0]))
        assert v.passed


def matrix_misfit3(w, F):
    """||exp([w]_x)^T F - id|| through a numpy Rodrigues matrix id + aK + b K @ K."""
    theta = float(np.linalg.norm(w))
    if theta < 1e-8:
        a, b = 1.0 - theta ** 2 / 6.0, 0.5 - theta ** 2 / 24.0
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta ** 2
    K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return float(np.linalg.norm((np.eye(3) + a * K + b * (K @ K)).T @ F - np.eye(3)))


@pytest.mark.parametrize("radius", ["random", "series", "near-pi"])
def test_scalar_misfit_matches_the_matrix_form(radius):
    rng = np.random.default_rng(71)
    for _ in range(300):
        F = random_gl(rng, 3)
        w = rng.standard_normal(3)
        r = {"random": rng.uniform(0.0, 3.0), "series": rng.uniform(0.0, 1e-8),
             "near-pi": math.pi - rng.uniform(0.0, 1e-6)}[radius]
        w *= r / np.linalg.norm(w)
        expect = matrix_misfit3(w, F)
        value, _ = oracle._misfit3(oracle._rot3_rows(w), F.tolist())
        assert value == pytest.approx(expect, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("near", ["random", "rotation"])
def test_planar_scalar_misfit_matches_the_matrix_form(near):
    rng = np.random.default_rng(89)
    for _ in range(300):
        theta = rng.uniform(-math.pi, math.pi)
        F = random_gl(rng, 2) if near == "random" else rot2(theta + 0.1) @ np.diag([1.2, 0.9])
        expect = float(np.linalg.norm(rot2(theta).T @ F - np.eye(2)))
        # the misfit the planar search evaluates, of diag(rot, 1) on diag(F, s), with s = 1
        (c, ms), (s, _) = oracle._rot2_rows(theta)
        value, _ = oracle._misfit3(((c, ms, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)),
                                   scipy.linalg.block_diag(F, 1.0).tolist())
        assert value == pytest.approx(expect, rel=1e-15, abs=0.0)


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
        value = _polyline_length(entry_major([np.eye(2), a * np.eye(2)]), self.P)
        expect = math.sqrt(0.5 * self.P.kappa) * 2.0 * abs(math.log(a))
        assert value == pytest.approx(expect, rel=1e-12)

    def test_chord_through_zero_is_infinite(self):
        assert _polyline_length(entry_major([np.eye(2), -np.eye(2)]), self.P) == math.inf


TRIPLES = [MetricParams(1.0, 1.0, 1.0), MetricParams(2.0, 1.0, 1.0), MetricParams(1.0, 3.0, 0.5)]
F_PATH = np.array([[1.5, 1.2], [-0.7, 0.9]])
# pinned at theta = 0 under the metric mu_c = 3 (TRIPLES[2]), the descent to
# this near-half-turn has trial steps that leave GL+
F_HALF_TURN = np.array([[-1.8416284933431886, 0.11435705304008659],
                        [-0.1626564684583851, -1.7506016834004976]])


def entry_major(X):
    """The entry-major node stack (n, n, ..., N+1) of a node-major one
    (..., N+1, n, n), as the path kernels take it."""
    return np.moveaxis(np.asarray(X, dtype=float), (-2, -1), (0, 1))


def central_differences(f, x, h=1e-6):
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])


def loop_path_reference(X, p):
    """Per-chord, per-matrix reference for _path_energy and _polyline_length:
    (energy, gradient, length) of the node stack X, with np.linalg.inv and
    matcore's weighted norm at every Gauss-Legendre node."""
    n_seg, n = X.shape[0] - 1, X.shape[1]
    energy, length, grad = 0.0, 0.0, np.zeros_like(X)
    for k in range(n_seg):
        A, D = X[k], X[k + 1] - X[k]
        for t, w in zip(*oracle._GL16):
            M_inv = np.linalg.inv(A + t * D)
            Z = M_inv @ D
            norm = weighted_norm(Z, p)
            energy += n_seg * w * norm ** 2
            length += w * norm
            s = split_orthogonal(Z)  # the gradient of ||Z||_p^2 is twice this map
            metric = p.mu * s.dev_sym + p.mu_c * s.skew + 0.5 * p.kappa * n * s.spherical_coeff * np.eye(n)
            H = M_inv.T @ (2.0 * n_seg * w * metric)
            grad[k + 1] += H - t * H @ Z.T
            grad[k] -= H + (1.0 - t) * H @ Z.T
    return energy, grad, length


def assert_matches_loop_reference(X, p):
    energy, grad, length = loop_path_reference(X, p)
    value, gradient = _path_energy(entry_major(X), p)
    assert value == pytest.approx(energy, rel=1e-13, abs=0.0)
    assert gradient.shape == entry_major(X).shape
    assert np.max(np.abs(gradient - entry_major(grad))) <= 1e-13 * np.max(np.abs(grad))
    if X.shape[1] == 2:
        assert _polyline_length(entry_major(X), p) == pytest.approx(length, rel=1e-13, abs=0.0)


class TestPathKernels:
    @pytest.mark.parametrize("p", TRIPLES, ids=["frobenius", "mu2", "muc3"])
    @pytest.mark.parametrize("n_seg", [5, 12, 33, 80])
    def test_planar_polylines_match_the_loop_reference(self, p, n_seg):
        rng = np.random.default_rng(61 + n_seg)
        F = random_gl(rng, 2)
        X = _start_nodes(F, rng.uniform(-math.pi, math.pi), n_seg)
        X[1:-1] *= 1.0 + 0.02 * rng.standard_normal((n_seg - 1, 2, 2))
        assert _in_gl_plus(entry_major(X))
        assert_matches_loop_reference(X, p)

    @pytest.mark.parametrize("n_seg", [4, 12, 80])
    def test_every_start_chord_lies_in_gl_plus(self, n_seg):
        # every path search starts here with no fallback: consecutive nodes
        # share U's frame and turn by at most pi/4, so no chord meets det = 0
        rng = np.random.default_rng(131 + n_seg)
        for _ in range(40):
            B = rot2(rng.uniform(-math.pi, math.pi))
            R = rot2(rng.uniform(-math.pi, math.pi))
            F = R @ B @ np.diag(np.exp(rng.uniform(-4.0, 4.0, 2))) @ B.T
            theta_r = math.atan2(R[1, 0], R[0, 0])
            turns = np.concatenate([np.linspace(-math.pi, math.pi, 9), rng.uniform(-math.pi, math.pi, 3)])
            for scale in (1.0, 1e150, 1e-150):
                for theta0 in theta_r + turns:
                    X = _start_nodes(scale * F, theta0, n_seg)
                    assert X.shape == (n_seg + 1, 2, 2) and np.array_equal(X[-1], scale * F)
                    assert np.allclose(X[0], rot2(theta0), rtol=0.0, atol=1e-15)
                    assert _in_gl_plus(entry_major(X))

    def test_spatial_stack_matches_the_loop_reference(self):
        rng = np.random.default_rng(67)
        X = np.eye(3) + 0.3 * np.arange(9)[:, None, None] * rng.standard_normal((9, 3, 3)) / 9
        assert_matches_loop_reference(X, TRIPLES[2])


    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_energy_matches_single_calls(self, n):
        rng = np.random.default_rng(73 + n)
        X = np.eye(n) + 0.3 * np.arange(9)[:, None, None] * rng.standard_normal((9, n, n)) / 9
        stack = X * (1.0 + 0.01 * rng.standard_normal((2, 3, 9, n, n)))
        values, grads = _path_energy(entry_major(stack), TRIPLES[1])
        assert values.shape == (2, 3) and grads.shape == (n, n, 2, 3, 9)
        for i, j in np.ndindex(2, 3):
            value, grad = _path_energy(entry_major(stack[i, j]), TRIPLES[1])
            assert values[i, j] == pytest.approx(value, rel=1e-13, abs=0.0)
            assert np.max(np.abs(grads[:, :, i, j] - grad)) <= 1e-13 * np.max(np.abs(grad))


def assemble_lists(diag, sub):
    """The dense symmetric matrix of lists of diagonal blocks and of the
    blocks below them, of any square sizes."""
    offsets = np.cumsum([0] + [D.shape[0] for D in diag])
    A = np.zeros((offsets[-1], offsets[-1]))
    for k, D in enumerate(diag):
        A[offsets[k]:offsets[k + 1], offsets[k]:offsets[k + 1]] = D
    for k, B in enumerate(sub):
        A[offsets[k + 1]:offsets[k + 2], offsets[k]:offsets[k + 1]] = B
        A[offsets[k]:offsets[k + 1], offsets[k + 1]:offsets[k + 2]] = B.T
    return A


def assemble(diag, sub, angle=None):
    """The dense symmetric matrix of the Hessian stacks (diag, sub, angle)
    of the path objective, the angle's row and column first."""
    A = assemble_lists(diag, sub)
    if angle is not None:
        A = np.pad(A, ((1, 0), (1, 0)))
        A[0, 0] = angle[0]
        A[0, 1:5] = A[1:5, 0] = angle[1]
    return A


def spd_block_system(rng, blocks, free):
    """Stacks of a random SPD block-tridiagonal matrix, well conditioned."""
    M = rng.standard_normal((4 * blocks + free,) * 2)
    A = M @ M.T + 4 * blocks * np.eye(4 * blocks + free)
    diag = np.stack([A[free + 4 * k:free + 4 * k + 4, free + 4 * k:free + 4 * k + 4]
                     for k in range(blocks)])
    sub = np.array([A[free + 4 * k + 4:free + 4 * k + 8, free + 4 * k:free + 4 * k + 4]
                    for k in range(blocks - 1)]).reshape(-1, 4, 4)
    return diag, sub, (A[0, 0], A[1:5, 0].copy()) if free else None


class TestNewtonKernels:
    # the name is that of the coloured-difference Hessian this test first
    # checked; it now checks the exact Hessian of the same chord pass
    @pytest.mark.parametrize("p", TRIPLES, ids=["frobenius", "mu2", "muc3"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("n_seg", [3, 6, 12])  # 3: long chords
    def test_coloured_hessian_matches_central_differences(self, p, pinned, n_seg):
        theta0 = 0.2
        x0, nodes_of, energy = _path_objective(_start_nodes(F_PATH, theta0, n_seg),
                                               None if pinned else theta0, p)
        x = x0 + 0.05 * np.random.default_rng(79).standard_normal(x0.size)
        assert _in_gl_plus(nodes_of(x))
        value, g, hessian = energy(x, hessian=True)
        assert (value, g.tolist()) == (energy(x)[0], energy(x)[1].tolist())
        diag, sub, angle = hessian()
        assert diag.shape == (n_seg - 1, 4, 4) and sub.shape == (n_seg - 2, 4, 4)
        assert (angle is None) == pinned
        dense = central_differences(lambda y: energy(y)[1], x, h=1e-5)
        exact = assemble(diag, sub, angle)
        assert np.max(np.abs(exact - dense)) <= 1e-6 * np.max(np.abs(dense))
        assert np.allclose(exact, exact.T, rtol=0.0, atol=1e-12 * np.max(np.abs(exact)))
        # entry for entry the layout of lists of blocks with the angle's row
        # and column in a 5x5 first block and a 4x5 first block below it
        blocks, below = list(diag), list(sub)
        if not pinned:
            a, b = angle
            blocks[0] = np.block([[np.array([[a]]), b[np.newaxis]], [b[:, np.newaxis], diag[0]]])
            below[0] = np.pad(sub[0], ((0, 0), (1, 0)))
        assert np.array_equal(exact, assemble_lists(blocks, below))

    @pytest.mark.parametrize("n", [2, 3])
    def test_chord_hessians_match_central_differences(self, n):
        # the chord blocks are n-agnostic; the node Hessian sums each
        # chord's 2n^2 x 2n^2 block over its start and end nodes
        rng = np.random.default_rng(101 + n)
        X = np.eye(n) + 0.1 * np.arange(7)[:, None, None] * rng.standard_normal((7, n, n)) / 7
        E = entry_major(X)
        value, grad, chord_hessians = _path_energy(E, TRIPLES[2], hessian=True)
        K = chord_hessians()
        m = n * n
        assert K.shape == (6, 2 * m, 2 * m)
        dense = np.zeros((7 * m, 7 * m))  # node-major variables (node, i, j)
        for k, block in enumerate(K):
            dense[k * m:(k + 2) * m, k * m:(k + 2) * m] += block

        def node_major_gradient(y):
            grad = _path_energy(entry_major(y.reshape(X.shape)), TRIPLES[2])[1]
            return np.moveaxis(grad, -1, 0).ravel()

        numeric = central_differences(node_major_gradient, X.ravel(), h=1e-5)
        assert np.max(np.abs(dense - numeric)) <= 1e-6 * np.max(np.abs(numeric))

    @pytest.mark.parametrize("free", [0, 1], ids=["pinned", "free"])
    def test_least_eigenvector_of_an_indefinite_system(self, free):
        rng = np.random.default_rng(103 + free)
        diag, sub, angle = spd_block_system(rng, 6, free)
        A = assemble(diag, sub, angle)
        shift = np.linalg.eigvalsh(A)[0] + 1e-3  # one eigenvalue of A - shift id is -1e-3
        diag -= shift * np.eye(4)
        if free:
            angle = (angle[0] - shift, angle[1])
        lam, V = np.linalg.eigh(assemble(diag, sub, angle))
        vec, curvature = _least_eigenvector(diag, sub, angle, 2e-3)
        assert abs(abs(vec @ V[:, 0]) - 1.0) <= 1e-9
        assert curvature == pytest.approx(lam[0], rel=1e-6)

    @pytest.mark.parametrize("free", [0, 1], ids=["pinned", "free"])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 7, 8, 33])
    def test_block_solve_matches_dense_solve(self, blocks, free):
        rng = np.random.default_rng(83 + 2 * blocks + free)
        diag, sub, angle = spd_block_system(rng, blocks, free)
        A = assemble(diag, sub, angle)
        r = rng.standard_normal(A.shape[0])
        for tau in (0.0, 0.5):
            d = _block_solve(diag, sub, angle, tau, r)
            expect = np.linalg.solve(A + tau * np.eye(A.shape[0]), r)
            assert np.max(np.abs(d - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("free", [0, 1], ids=["pinned", "free"])
    def test_block_solve_finds_an_indefinite_block_at_a_deeper_level(self, free):
        # the first level eliminates the even blocks, which are SPD; the odd
        # blocks' Schur complement is not, so only a later level can fail
        rng = np.random.default_rng(89 + free)
        diag, sub, angle = spd_block_system(rng, 8, free)
        diag[1::2] -= 3.0 * np.abs(assemble(diag, sub)).sum(axis=1).max() * np.eye(4)
        assert np.all(np.linalg.eigvalsh(diag[0::2]) > 0.0)
        A = assemble(diag, sub, angle)
        assert np.linalg.eigvalsh(A)[0] < 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _block_solve(diag, sub, angle, 0.0, rng.standard_normal(A.shape[0]))
        tau = 1.0 - np.linalg.eigvalsh(A)[0]  # the shift that makes it SPD solves
        r = rng.standard_normal(A.shape[0])
        expect = np.linalg.solve(A + tau * np.eye(A.shape[0]), r)
        d = _block_solve(diag, sub, angle, tau, r)
        assert np.max(np.abs(d - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_block_solve_rejects_a_nonpositive_angle_schur_complement(self):
        rng = np.random.default_rng(97)
        diag, sub, (a, b) = spd_block_system(rng, 5, 1)
        nodes = assemble(diag, sub)
        assert np.linalg.eigvalsh(nodes)[0] > 0.0
        z = np.linalg.solve(nodes, np.concatenate([b, np.zeros(16)]))
        schur = b @ z[:4]  # the angle entry at which the complement vanishes
        r = rng.standard_normal(21)
        for angle_entry in ((1.0 - 1e-9) * schur, 0.5 * schur):
            with pytest.raises(np.linalg.LinAlgError):
                _block_solve(diag, sub, (angle_entry, b), 0.0, r)
        d = _block_solve(diag, sub, (2.0 * schur, b), 0.0, r)
        A = assemble(diag, sub, (2.0 * schur, b))
        expect = np.linalg.solve(A, r)
        assert np.max(np.abs(d - expect)) <= 1e-12 * np.max(np.abs(expect))


class TestPathEnergySearch:
    @pytest.mark.parametrize("p", TRIPLES, ids=["frobenius", "mu2", "muc3"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_gradient_matches_central_differences(self, p, pinned):
        theta0 = 0.2
        X0 = _start_nodes(F_PATH, theta0, 10)
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
        E = entry_major(X)
        value, grad = _path_energy(E, TRIPLES[2])
        numeric = central_differences(
            lambda y: _path_energy(y.reshape(E.shape), TRIPLES[2])[0], E.ravel()
        ).reshape(E.shape)
        assert np.max(np.abs(numeric - grad)) <= 1e-8 * np.max(np.abs(grad))

    @pytest.mark.parametrize("half_turn", [False, True], ids=["free", "pinned-half-turn"])
    def test_accepted_steps_descend_inside_gl_plus(self, half_turn):
        if half_turn:
            X0 = _start_nodes(F_HALF_TURN, 0.0, 12)
            x0, nodes_of, energy = _path_objective(X0, None, TRIPLES[2])
        else:
            x0, nodes_of, energy = _path_objective(_start_nodes(F_PATH, 0.2, 12), 0.2, TRIPLES[2])
        stats = {}
        values = []
        for x, value in _newton(x0, nodes_of, energy, 20000, stats):
            assert _in_gl_plus(nodes_of(x))
            assert value == energy(x)[0]
            values.append(value)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert len(values) == stats["newton_steps"] + 1
        assert stats["stop"] == "converged"
        if half_turn:  # a unit Newton step from the turning start leaves GL+
            assert stats["gl_halvings"] > 0

    def test_pinned_search_near_a_conformal_input_converges(self):
        # conjugation by rotations nearly maps these pinned paths onto each
        # other, so the energy has a nearly flat valley that the shifted
        # Newton steps must cross within the budget
        F = np.eye(2) + 1e-6 * np.array([[-0.5, -2.1], [-2.3, 0.5]])
        cfg = OracleConfig(nodes=12, max_iters=1540)
        value, stats = _run_path_search(F, TRIPLES[2], cfg, pinned_theta=2.0)
        assert stats["stop"] == "converged"
        assert value > math.sqrt(dist_squared_to_SO(F, TRIPLES[2]).squared_distance) + 1.0

    def test_pinned_search_near_a_conformal_input_reaches_the_minimum(self):
        # the nearly flat valley of the test above, under another triple and
        # node count; the search must end on the minimum, not short of it
        F = np.eye(2) + 1e-6 * np.array([[-0.5, -2.1], [-2.3, 0.5]])
        cfg = OracleConfig(nodes=9, max_iters=200000)
        value, stats = _run_path_search(F, MetricParams(1.0, 2.4, 3.0), cfg, pinned_theta=2.0)
        assert stats["stop"] == "converged"
        assert value <= 4.2747245641407625 * (1.0 + 1e-12)

    def test_pinned_search_escapes_a_saddle(self):
        # on this near-conformal input the exact Newton steps reach a saddle
        # of the path energy (least Hessian eigenvalue -4.0e-7,
        # |g| = 7.4e-7), where the shifted step stalls; the escape along the
        # least eigenvector lowers the energy and the search ends there
        F = np.array([[1.0992965972116304, 1.3038006436064465e-08],
                      [-1.2299784378019727e-09, 1.099296610828873]])
        cfg = OracleConfig(nodes=9, max_iters=200000)
        value, stats = _run_path_search(F, MetricParams(1.0, 3.0, 1.0), cfg,
                                        pinned_theta=1.4134983635240443)
        assert stats["stop"] == "converged" and stats["escapes"] >= 1
        assert value <= 3.4188386745626222  # the saddle's polyline length

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
        for max_iters, stop in ((200000, "converged"), (3, "evaluations")):
            cfg = OracleConfig(nodes=24, max_iters=max_iters)
            v = geodesic_distance_oracle(F_PATH, TRIPLES[1], cfg)
            s = v.stats
            assert set(s) == {"newton_steps", "evaluations", "shifts", "backtracks",
                              "gl_halvings", "escapes", "nodes", "theta", "stop", "seconds"}
            # every step costs at least one trial, whose chord pass also
            # gives the next step's Hessian
            assert 1 + s["newton_steps"] <= s["evaluations"] <= max_iters
            assert s["stop"] == stop and s["nodes"] == 24
            assert s["seconds"] > 0.0
            assert np.array_equal(v.witness, rot2(s["theta"]))
            tag = "PASS" if v.passed else "FAIL"
            assert str(v) == (
                f"[{tag}] {v.claim}: closed_form={v.closed_form_value:.9g} "
                f"oracle={v.oracle_value:.9g} gap={v.relative_gap:.3g}"
            )

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    def test_length_comes_from_the_last_chord_pass(self, monkeypatch, pinned):
        # on acceptance criterion 1's first draws and node rule: the value is
        # the _polyline_length of the final iterate, bit for bit, and each
        # trial's node stack is built once, for its GL+ test and its chord pass
        exact_objective, exact_newton, exact_energy = (
            oracle._path_objective, oracle._newton, oracle._path_energy)
        built, evaluated, search = [], [], {}

        def objective(X0, theta0, p):
            x0, nodes_of, energy = exact_objective(X0, theta0, p)
            search["nodes_of"] = nodes_of
            return x0, lambda x: built.append(nodes_of(x)) or built[-1], energy

        def newton(*args):
            descent = exact_newton(*args)
            while True:
                try:
                    search["last"] = next(descent)
                except StopIteration as stop:
                    return stop.value
                yield search["last"]

        monkeypatch.setattr(oracle, "_path_objective", objective)
        monkeypatch.setattr(oracle, "_newton", newton)
        monkeypatch.setattr(oracle, "_path_energy",
                            lambda E, p, hessian=False: evaluated.append(E) or exact_energy(E, p, hessian))
        rng = substream(101, 0)
        for triple in ((1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 3.0, 0.5)):
            F, p = random_gl(rng, 2), MetricParams(*triple)
            R = polar_decompose(F).rotation
            theta = math.atan2(R[1, 0], R[0, 0])
            nodes = min(80, max(12, math.ceil(16.0 * _path_activity(F, abs(theta)))))
            cfg = OracleConfig(seed=101, samples=1, nodes=nodes, tol=0.02, max_iters=200000)
            built.clear()
            evaluated.clear()
            if pinned:
                value, s = _run_path_search(F, p, cfg, pinned_theta=theta + 0.5)
            else:
                v = geodesic_distance_oracle(F, p, cfg)
                value, s = v.oracle_value, v.stats
                assert v.passed
            assert value == _polyline_length(search["nodes_of"](search["last"][0]), p)
            assert s["stop"] == "converged" and len(evaluated) == s["evaluations"]
            assert len(built) == s["evaluations"] - 1 + s["gl_halvings"]
            assert all(any(E is B for B in built) for E in evaluated[1:])


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
        def no_scipy(M):
            raise AssertionError("scipy.linalg.logm called")

        monkeypatch.setattr(scipy.linalg, "logm", no_scipy)
        jordan = np.array([[2.0, 1.0], [0.0, 2.0]])
        negative = np.diag([-1.0, 2.0])
        spd = np.array([[2.0, 0.5], [0.5, 1.0]])
        logs, ok = _principal_logs(np.stack([jordan, negative, spd, rot2(math.pi)]))
        assert ok.tolist() == [True, False, True, False]
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
    assert v.stats == {"samples": 400, "skipped": skipped, "clustered": 0}
    stats = {}
    _principal_logs(np.stack([np.array([[2.0, 1.0], [0.0, 2.0]]), np.eye(2)]), stats)
    assert stats == {"clustered": 2}


class TestSampledLogsMemo:
    """logmin_oracle and weighted_logmin_oracle on one F and config share one
    log sampling, and a remembered one gives the verdicts a fresh one does."""

    CFG = OracleConfig(seed=47, samples=300)
    P = MetricParams(2.0, 0.7, 1.3)
    F = np.array([[1.2, -0.4, 0.3], [0.5, 0.9, -0.2], [0.1, 0.6, 1.4]])

    @pytest.fixture
    def calls(self, monkeypatch):
        """Records the stack size of every _principal_logs call, with the memo
        cleared before and after."""
        exact, sizes = oracle._principal_logs, []

        def counting(M, stats=None):
            sizes.append(len(M))
            return exact(M, stats)

        monkeypatch.setattr(oracle, "_principal_logs", counting)
        oracle._sampled_logs.cache_clear()
        yield sizes
        oracle._sampled_logs.cache_clear()

    @staticmethod
    def fields(v):
        return (v.claim, v.closed_form_value, v.oracle_value, v.relative_gap, v.passed,
                v.witness.tobytes(), v.stats)

    def test_a_pair_samples_once_and_agrees_with_fresh_samplings(self, calls):
        hit = [logmin_oracle(self.F, self.CFG), weighted_logmin_oracle(self.F, self.P, self.CFG)]
        assert calls == [301]
        fresh = []
        for run in (lambda: logmin_oracle(self.F, self.CFG),
                    lambda: weighted_logmin_oracle(self.F, self.P, self.CFG)):
            oracle._sampled_logs.cache_clear()
            fresh.append(run())
        assert calls == [301] * 3
        assert [self.fields(v) for v in hit] == [self.fields(v) for v in fresh]
        remembered = oracle._sampled_logs(
            self.F.tobytes(), polar_decompose(self.F).rotation.tobytes(), 3, 47, 300
        )
        assert calls == [301] * 3
        assert not any(X.flags.writeable for X in remembered[:3])

    def test_another_rotation_seed_or_sample_count_samples_afresh(self, calls, monkeypatch):
        logmin_oracle(self.F, self.CFG)
        logmin_oracle(self.F, OracleConfig(seed=48, samples=300))
        logmin_oracle(self.F, OracleConfig(seed=48, samples=299))
        turn = np.eye(3)
        turn[:2, :2] = rot2(0.3)
        turned = SimpleNamespace(rotation=polar_decompose(self.F).rotation @ turn)
        monkeypatch.setattr(oracle, "polar_decompose", lambda F: turned)
        # the same F, seed and sample count as the last call: only the rotation differs
        v = logmin_oracle(self.F, OracleConfig(seed=48, samples=299))
        assert calls == [301, 301, 300, 300]
        assert not v.passed  # the misfit at the turned rotation is not the closed form

    def test_an_error_is_not_remembered(self, calls, monkeypatch):
        exact = oracle._principal_logs

        def failing(M, stats=None):
            raise FloatingPointError("planted")

        monkeypatch.setattr(oracle, "_principal_logs", failing)
        with pytest.raises(FloatingPointError):
            logmin_oracle(self.F, self.CFG)
        monkeypatch.setattr(oracle, "_principal_logs", exact)
        assert logmin_oracle(self.F, self.CFG).passed
        assert calls == [301]


class TestRotationDrawsMemo:
    """A log sampling draws its rotations once per seed, dimension and
    count, and checks of several F under one config share them."""

    CFG = OracleConfig(seed=53, samples=300)

    @pytest.fixture
    def draws(self, monkeypatch):
        """Records (n, count) of every _random_rotations call, with both
        memos cleared before and after."""
        exact, calls = oracle._random_rotations, []

        def counting(rng, n, count):
            calls.append((n, count))
            return exact(rng, n, count)

        monkeypatch.setattr(oracle, "_random_rotations", counting)
        for memo in (oracle._rotation_draws, oracle._sampled_logs):
            memo.cache_clear()
        yield calls
        for memo in (oracle._rotation_draws, oracle._sampled_logs):
            memo.cache_clear()

    def test_inputs_under_one_config_draw_once(self, draws):
        rng = np.random.default_rng(107)
        F, G, H = random_gl(rng, 3), random_gl(rng, 3), random_gl(rng, 2)
        verdicts = [logmin_oracle(F, self.CFG), logmin_oracle(G, self.CFG),
                    logmin_oracle(H, self.CFG), logmin_oracle(F, self.CFG)]
        assert draws == [(3, 300), (2, 300)]  # one entry per dimension
        assert all(v.passed for v in verdicts)
        Q = oracle._rotation_draws(53, 3, 300)
        assert draws == [(3, 300), (2, 300)]
        assert Q.shape == (3, 3, 300) and Q.flags.c_contiguous
        assert np.array_equal(np.moveaxis(Q, -1, 0), _random_rotations(substream(53, 0), 3, 300))
        assert not Q.flags.writeable
        with pytest.raises(ValueError):
            Q[0, 0, 0] = 1.0

    def test_another_seed_dimension_or_count_draws_afresh(self, draws):
        rng = np.random.default_rng(113)
        F, H = random_gl(rng, 3), random_gl(rng, 2)
        logmin_oracle(F, self.CFG)
        logmin_oracle(F, OracleConfig(seed=54, samples=300))
        logmin_oracle(F, OracleConfig(seed=54, samples=299))
        logmin_oracle(H, OracleConfig(seed=54, samples=299))
        assert draws == [(3, 300), (3, 300), (3, 299), (2, 299)]
