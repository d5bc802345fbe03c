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
    _block_solve,
    _interp_nodes,
    _in_gl_plus,
    _newton,
    _path_activity,
    _path_energy,
    _path_hessian,
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

    def test_stats_count_the_work(self, monkeypatch):
        # every objective evaluation builds one rotation, and so does the witness
        calls = []
        for name in ("_rot2_rows", "_rot3_rows"):
            build = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda w, build=build: calls.append(w) or build(w))
        cfg = OracleConfig(seed=3, samples=40, max_iters=50)
        for F in (F_SHEAR, random_gl(np.random.default_rng(73), 3)):
            calls.clear()
            v = grioli_oracle(F, cfg)
            s = v.stats
            assert s["coarse_evaluations"] + s["fine_evaluations"] + 1 == len(calls)
            if F.shape[0] == 2:
                assert s["starts"] == 1 and s["coarse_evaluations"] == 40
            else:  # a coarse descent may use 200 evaluations, a refined one max_iters
                assert s["starts"] == 20 and s["coarse_evaluations"] <= 20 * 200
                assert 3 <= s["fine_evaluations"] <= 3 * 50
            assert s["seconds"] > 0.0
            tag = "PASS" if v.passed else "FAIL"
            assert str(v) == (
                f"[{tag}] {v.claim}: closed_form={v.closed_form_value:.9g} "
                f"oracle={v.oracle_value:.9g} gap={v.relative_gap:.3g}"
            )


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
        assert oracle._rotation_misfit3(F)(w) == pytest.approx(expect, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("near", ["random", "rotation"])
def test_planar_scalar_misfit_matches_the_matrix_form(near):
    rng = np.random.default_rng(89)
    for _ in range(300):
        theta = rng.uniform(-math.pi, math.pi)
        F = random_gl(rng, 2) if near == "random" else rot2(theta + 0.1) @ np.diag([1.2, 0.9])
        expect = float(np.linalg.norm(rot2(theta).T @ F - np.eye(2)))
        assert oracle._rotation_misfit2(F)(theta) == pytest.approx(expect, rel=1e-15, abs=0.0)


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


def loop_path_reference(X, p):
    """Per-chord, per-matrix reference for _path_energy and _polyline_length:
    (energy, gradient, length) of the node stack X, with np.linalg.inv and
    matcore's weighted norm at every Gauss-Legendre node."""
    n_seg, n = X.shape[0] - 1, X.shape[1]
    energy, length, grad = 0.0, 0.0, np.zeros_like(X)
    for k in range(n_seg):
        A, D = X[k], X[k + 1] - X[k]
        for t, w in zip(oracle._GL_T, oracle._GL_W):
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
    value, gradient = _path_energy(X, p)
    assert value == pytest.approx(energy, rel=1e-13, abs=0.0)
    assert gradient.shape == X.shape
    assert np.max(np.abs(gradient - grad)) <= 1e-13 * np.max(np.abs(grad))
    if X.shape[1] == 2:
        assert _polyline_length(X, p) == pytest.approx(length, rel=1e-13, abs=0.0)


class TestPathKernels:
    @pytest.mark.parametrize("p", TRIPLES, ids=["frobenius", "mu2", "muc3"])
    @pytest.mark.parametrize("n_seg", [5, 12, 33, 80])
    def test_planar_polylines_match_the_loop_reference(self, p, n_seg):
        rng = np.random.default_rng(61 + n_seg)
        F = random_gl(rng, 2)
        pol = polar_decompose(F)
        theta_r = math.atan2(pol.rotation[1, 0], pol.rotation[0, 0])
        X = oracle._two_phase_nodes(F, rng.uniform(-math.pi, math.pi), theta_r,
                                    pol.right_stretch, n_seg)
        X[1:-1] *= 1.0 + 0.02 * rng.standard_normal((n_seg - 1, 2, 2))
        assert _in_gl_plus(X)
        assert_matches_loop_reference(X, p)

    def test_spatial_stack_matches_the_loop_reference(self):
        rng = np.random.default_rng(67)
        X = np.eye(3) + 0.3 * np.arange(9)[:, None, None] * rng.standard_normal((9, 3, 3)) / 9
        assert_matches_loop_reference(X, TRIPLES[2])


    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_energy_matches_single_calls(self, n):
        rng = np.random.default_rng(73 + n)
        X = np.eye(n) + 0.3 * np.arange(9)[:, None, None] * rng.standard_normal((9, n, n)) / 9
        stack = X * (1.0 + 0.01 * rng.standard_normal((2, 3, 9, n, n)))
        values, grads = _path_energy(stack, TRIPLES[1])
        assert values.shape == (2, 3) and grads.shape == stack.shape
        for idx in np.ndindex(2, 3):
            value, grad = _path_energy(stack[idx], TRIPLES[1])
            assert values[idx] == pytest.approx(value, rel=1e-13, abs=0.0)
            assert np.max(np.abs(grads[idx] - grad)) <= 1e-13 * np.max(np.abs(grad))


def assemble(diag, sub):
    """The dense symmetric matrix of block-tridiagonal blocks."""
    offsets = np.cumsum([0] + [D.shape[0] for D in diag])
    A = np.zeros((offsets[-1], offsets[-1]))
    for k, D in enumerate(diag):
        A[offsets[k]:offsets[k + 1], offsets[k]:offsets[k + 1]] = D
    for k, B in enumerate(sub):
        A[offsets[k + 1]:offsets[k + 2], offsets[k]:offsets[k + 1]] = B
        A[offsets[k]:offsets[k + 1], offsets[k + 1]:offsets[k + 2]] = B.T
    return A


class TestNewtonKernels:
    @pytest.mark.parametrize("p", TRIPLES, ids=["frobenius", "mu2", "muc3"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
    @pytest.mark.parametrize("n_seg", [6, 12])
    def test_coloured_hessian_matches_central_differences(self, p, pinned, n_seg):
        theta0 = 0.2
        x0, nodes_of, energy = _path_objective(_interp_nodes(F_PATH, theta0, n_seg),
                                               None if pinned else theta0, p)
        x = x0 + 0.05 * np.random.default_rng(79).standard_normal(x0.size)
        assert _in_gl_plus(nodes_of(x))
        value, g = energy(x)
        diag, sub = _path_hessian(x, g, energy)
        assert [D.shape for D in diag] == [(4 + (not pinned),) * 2] + [(4, 4)] * (n_seg - 2)
        dense = central_differences(lambda y: energy(y)[1], x, h=1e-5)
        coloured = assemble(diag, sub)
        assert np.max(np.abs(coloured - dense)) <= 1e-6 * np.max(np.abs(dense))

    @pytest.mark.parametrize("first", [4, 5])
    def test_block_solve_matches_dense_solve(self, first):
        rng = np.random.default_rng(83 + first)
        sizes = [first] + [4] * 7
        diag = [M @ M.T for M in (rng.standard_normal((k, k)) for k in sizes)]
        sub = [rng.standard_normal((4, k)) for k in sizes[:-1]]
        A = assemble(diag, sub)
        r = rng.standard_normal(A.shape[0])
        with pytest.raises(np.linalg.LinAlgError):  # indefinite without a shift
            _block_solve(diag, sub, 0.0, r)
        tau = 1.0 - np.linalg.eigvalsh(A)[0]
        d = _block_solve(diag, sub, tau, r)
        expect = np.linalg.solve(A + tau * np.eye(A.shape[0]), r)
        assert np.max(np.abs(d - expect)) <= 1e-12 * np.max(np.abs(expect))


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
        for x, value in _newton(x0, nodes_of, energy, 20000, stats):
            assert _in_gl_plus(nodes_of(x))
            assert value == energy(x)[0]
            values.append(value)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert len(values) == stats["newton_steps"] + 1
        assert stats["stop"] == "converged"
        if half_turn:  # the unit Newton step from the two-phase start leaves GL+
            assert stats["gl_halvings"] > 0

    def test_pinned_search_near_a_conformal_input_converges(self):
        # conjugation by rotations nearly maps these pinned paths onto each
        # other, so the energy has a nearly flat valley that the shifted
        # Newton steps must cross within the budget
        F = np.eye(2) + 1e-6 * np.array([[-0.5, -2.1], [-2.3, 0.5]])
        cfg = OracleConfig(nodes=12, max_iters=20000)
        value, stats = _run_path_search(F, TRIPLES[2], cfg, pinned_theta=2.0)
        assert stats["stop"] == "converged"
        assert value > math.sqrt(dist_squared_to_SO(F, TRIPLES[2]).squared_distance) + 1.0

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
        for max_iters, stop in ((200000, "converged"), (40, "evaluations")):
            cfg = OracleConfig(nodes=24, max_iters=max_iters)
            v = geodesic_distance_oracle(F_PATH, TRIPLES[1], cfg)
            s = v.stats
            assert set(s) == {"newton_steps", "evaluations", "shifts", "backtracks",
                              "gl_halvings", "start", "nodes", "theta", "stop", "seconds"}
            # every step costs a 12-column Hessian and at least one trial
            assert 1 + 13 * s["newton_steps"] <= s["evaluations"] <= max_iters
            assert s["stop"] == stop and s["start"] == "interp" and s["nodes"] == 24
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
