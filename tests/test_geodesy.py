"""Tests for geodesic curves and the closed-form distances.

Frozen constants trace back to the independent spectral derivations in
notes/derive_expected.py (build log), not to the code under test.
"""

import math
import warnings

import numpy as np
import pytest

from geolog.matcore import (
    AngleAtPiError,
    MetricParams,
    NonPositiveDeterminantError,
    mat_exp,
    principal_log_spd,
    skew_part,
    sym_part,
    weighted_norm,
)
from geolog.geodesy import (
    DistanceReport,
    GeodesicSegment,
    cofactor,
    dist_CSO,
    dist_SO,
    dist_cof_squared_to_SO,
    dist_gl_commuting,
    dist_log_euclidean,
    dist_psym_trace_metric,
    dist_squared_to_SO,
    euclid_dist_to_SO,
    geodesic_length,
    geodesic_point,
    geodesic_residual,
    geodesic_velocity,
    linear_dist_to_so,
    omega_iso,
    omega_vol,
    psym_geodesic_point,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
F_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
R_SHEAR = np.array([[2.0, 1.0], [-1.0, 2.0]]) / math.sqrt(5.0)
DIST_SQ_SHEAR = 2.0 * math.log(PHI) ** 2          # 0.4631296411543888
EUCLID_SHEAR = math.sqrt(5.0 - 2.0 * math.sqrt(5.0))  # 0.7265425280053608


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rot3(axis, theta):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def random_gl(rng, n, det_range=(0.1, 10.0)):
    while True:
        F = rng.uniform(-2.0, 2.0, size=(n, n))
        d = np.linalg.det(F)
        if det_range[0] <= d <= det_range[1]:
            return F


def random_spd(rng, n, spread=1.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.exp(rng.uniform(-spread, spread, size=n))
    return Q @ np.diag(w) @ Q.T


class TestGeodesicSegment:
    def test_rejects_nonpositive_determinant_base(self):
        with pytest.raises(ValueError):
            GeodesicSegment(base=np.diag([1.0, -1.0]), tangent_param=np.eye(2), params=MetricParams())

    def test_nonpositive_determinant_base_is_named(self):
        for base in (np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 4.0]])):
            with pytest.raises(NonPositiveDeterminantError):
                GeodesicSegment(base=base, tangent_param=np.eye(2), params=MetricParams())

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scale_base_accepted(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seg = GeodesicSegment(base=scale * np.eye(3), tangent_param=np.zeros((3, 3)),
                                  params=MetricParams())
        assert np.array_equal(geodesic_point(seg, 0.5), scale * np.eye(3))

    def test_zero_tangent_is_constant(self):
        F = np.array([[1.2, 0.3], [0.1, 0.9]])
        seg = GeodesicSegment(base=F, tangent_param=np.zeros((2, 2)), params=MetricParams())
        for t in (-1.0, 0.0, 0.7, 2.0):
            assert np.allclose(geodesic_point(seg, t), F, atol=1e-14)

    def test_symmetric_tangent_single_exponential(self):
        rng = np.random.default_rng(101)
        F = random_gl(rng, 2)
        S = sym_part(rng.standard_normal((2, 2)))
        for mu_c in (0.5, 1.0, 3.0):
            seg = GeodesicSegment(base=F, tangent_param=S, params=MetricParams(mu=1.0, mu_c=mu_c, kappa=1.0))
            for t in (0.3, 1.0):
                assert np.max(np.abs(geodesic_point(seg, t) - F @ mat_exp(t * S))) < 1e-12

    def test_skew_tangent_single_exponential(self):
        # both exponentials share the skew generator, so they merge
        rng = np.random.default_rng(103)
        F = random_gl(rng, 3)
        W = skew_part(rng.standard_normal((3, 3)))
        for mu_c in (0.25, 1.0, 2.0):
            seg = GeodesicSegment(base=F, tangent_param=W, params=MetricParams(mu=1.0, mu_c=mu_c, kappa=1.0))
            for t in (0.5, 1.3):
                assert np.max(np.abs(geodesic_point(seg, t) - F @ mat_exp(t * W))) < 1e-11

    def test_starts_at_base(self):
        rng = np.random.default_rng(107)
        F = random_gl(rng, 3)
        xi = rng.standard_normal((3, 3))
        seg = GeodesicSegment(base=F, tangent_param=xi, params=MetricParams(mu=2.0, mu_c=0.5, kappa=1.5))
        assert np.allclose(geodesic_point(seg, 0.0), F, atol=1e-14)

    def test_speed_is_constant_and_equals_length(self):
        rng = np.random.default_rng(109)
        for _ in range(5):
            F = random_gl(rng, 2)
            xi = rng.standard_normal((2, 2))
            p = MetricParams(mu=1.7, mu_c=0.6, kappa=2.2)
            seg = GeodesicSegment(base=F, tangent_param=xi, params=p)
            target = weighted_norm(xi, p)
            assert geodesic_length(seg) == pytest.approx(target, abs=1e-14)
            for t in (0.0, 0.25, 0.6, 1.0):
                zeta = np.linalg.solve(geodesic_point(seg, t), geodesic_velocity(seg, t))
                assert weighted_norm(zeta, p) == pytest.approx(target, abs=1e-10)

    def test_quadrature_length_matches(self):
        rng = np.random.default_rng(113)
        F = random_gl(rng, 2)
        xi = 0.8 * rng.standard_normal((2, 2))
        p = MetricParams(mu=1.0, mu_c=2.0, kappa=0.7)
        seg = GeodesicSegment(base=F, tangent_param=xi, params=p)
        ts = np.linspace(0.0, 1.0, 201)
        mid = (ts[:-1] + ts[1:]) / 2.0
        total = sum(
            weighted_norm(np.linalg.solve(geodesic_point(seg, t), geodesic_velocity(seg, t)), p)
            for t in mid
        ) / len(mid)
        assert total == pytest.approx(geodesic_length(seg), abs=1e-9)


class TestGeodesicResidual:
    def test_zero_tangent(self):
        F = np.array([[1.5, 0.2], [0.0, 0.8]])
        seg = GeodesicSegment(base=F, tangent_param=np.zeros((2, 2)), params=MetricParams())
        assert geodesic_residual(seg, [0.0, 0.5, 1.0], h=1e-4) < 1e-14

    def test_symmetric_tangent_small_residual(self):
        rng = np.random.default_rng(127)
        F = random_gl(rng, 2)
        S = sym_part(rng.standard_normal((2, 2)))
        for mu_c in (0.5, 2.0):
            seg = GeodesicSegment(base=F, tangent_param=S, params=MetricParams(mu=1.0, mu_c=mu_c, kappa=1.0))
            assert geodesic_residual(seg, np.linspace(0.0, 1.0, 7), h=1e-4) < 1e-6

    def test_random_tangent_residual(self):
        rng = np.random.default_rng(131)
        for _ in range(5):
            F = random_gl(rng, 2)
            xi = rng.standard_normal((2, 2))
            p = MetricParams(mu=1.0, mu_c=float(rng.uniform(0.3, 3.0)), kappa=1.0)
            seg = GeodesicSegment(base=F, tangent_param=xi, params=p)
            assert geodesic_residual(seg, np.linspace(0.0, 1.0, 5), h=1e-4) < 1e-5

    def test_second_order_in_h(self):
        # the truncation constant grows with the tangent while the roundoff
        # floor of the chained second difference does not, so the h^2 rate is
        # read off the truncation-dominated aggregate over several draws
        rng = np.random.default_rng(137)
        grid = np.linspace(0.1, 0.9, 5)
        r_coarse, r_fine = 0.0, 0.0
        for _ in range(8):
            F = random_gl(rng, 2)
            xi = rng.standard_normal((2, 2))
            xi *= rng.uniform(1.0, 3.0) / np.linalg.norm(xi)
            seg = GeodesicSegment(
                base=F, tangent_param=xi,
                params=MetricParams(mu=1.0, mu_c=float(rng.uniform(0.3, 3.0)), kappa=1.3),
            )
            r_coarse = max(r_coarse, geodesic_residual(seg, grid, h=1e-3))
            r_fine = max(r_fine, geodesic_residual(seg, grid, h=1e-4))
        order = math.log10(r_coarse / r_fine)
        assert order >= 1.8
        assert r_fine < 1e-5

    def test_step_validation(self):
        seg = GeodesicSegment(base=np.eye(2), tangent_param=np.eye(2), params=MetricParams())
        with pytest.raises(ValueError):
            geodesic_residual(seg, [0.5], h=1e-2)
        with pytest.raises(ValueError):
            geodesic_residual(seg, [0.5], h=1e-7)


class TestDistSquaredToSO:
    def test_identity(self):
        report = dist_squared_to_SO(np.eye(3), MetricParams())
        assert report.squared_distance == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(report.minimizer, np.eye(3), atol=1e-12)
        assert report.method == "closed_form"

    def test_spherical(self):
        report = dist_squared_to_SO(math.e * np.eye(3), MetricParams(mu=1.0, mu_c=1.0, kappa=1.0))
        assert report.squared_distance == pytest.approx(4.5, abs=1e-12)
        assert np.allclose(report.minimizer, np.eye(3), atol=1e-12)

    def test_shear_frozen(self):
        report = dist_squared_to_SO(F_SHEAR, MetricParams(mu=1.0, mu_c=1.0, kappa=1.0))
        assert report.squared_distance == pytest.approx(DIST_SQ_SHEAR, abs=1e-13)
        assert np.allclose(report.minimizer, R_SHEAR, atol=1e-12)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(NonPositiveDeterminantError):
            dist_squared_to_SO(np.diag([1.0, -2.0]), MetricParams())

    def test_spin_weight_independence(self):
        rng = np.random.default_rng(139)
        for _ in range(25):
            F = random_gl(rng, 2)
            mu, kappa = 1.4, 0.9
            values = [
                dist_squared_to_SO(F, MetricParams(mu=mu, mu_c=mu_c, kappa=kappa)).squared_distance
                for mu_c in (mu / 2.0, mu, 2.0 * mu)
            ]
            assert max(values) - min(values) < 1e-12 * max(1.0, values[0])

    def test_inverse_symmetry(self):
        rng = np.random.default_rng(149)
        p = MetricParams(mu=2.0, mu_c=1.0, kappa=0.8)
        for n in (2, 3):
            for _ in range(50):
                F = random_gl(rng, n)
                d1 = dist_squared_to_SO(F, p).squared_distance
                d2 = dist_squared_to_SO(np.linalg.inv(F), p).squared_distance
                assert abs(d1 - d2) < 1e-10 * max(1.0, d1)

    def test_left_right_rotation_invariance(self):
        rng = np.random.default_rng(151)
        p = MetricParams(mu=1.0, mu_c=3.0, kappa=0.5)
        for _ in range(20):
            F = random_gl(rng, 3)
            Q = rot3(rng.standard_normal(3), rng.uniform(-3, 3))
            Qp = rot3(rng.standard_normal(3), rng.uniform(-3, 3))
            d = dist_squared_to_SO(F, p).squared_distance
            assert dist_squared_to_SO(Q @ F, p).squared_distance == pytest.approx(d, rel=1e-10, abs=1e-12)
            assert dist_squared_to_SO(F @ Qp, p).squared_distance == pytest.approx(d, rel=1e-10, abs=1e-12)

    def test_left_stretch_form_agrees(self):
        rng = np.random.default_rng(157)
        p = MetricParams(mu=1.3, mu_c=1.0, kappa=2.1)
        for _ in range(20):
            F = random_gl(rng, 3)
            d_u = dist_squared_to_SO(F, p).squared_distance
            B = F @ F.T
            log_v = 0.5 * principal_log_spd(B)
            d_v = weighted_norm(log_v, p) ** 2
            assert abs(d_u - d_v) < 1e-12 * max(1.0, d_u)

    def test_metric_tensor_chain(self):
        rng = np.random.default_rng(163)
        p = MetricParams(mu=0.9, mu_c=1.0, kappa=1.7)
        for _ in range(15):
            F = random_gl(rng, 3)
            C = F.T @ F
            B = F @ F.T
            d_c = dist_squared_to_SO(C, p).squared_distance
            d_b = dist_squared_to_SO(B, p).squared_distance
            d_cinv = dist_squared_to_SO(np.linalg.inv(C), p).squared_distance
            assert d_c == pytest.approx(d_b, rel=1e-10, abs=1e-12)
            assert d_c == pytest.approx(d_cinv, rel=1e-10, abs=1e-12)
            # and all three are four times the distance of F itself
            assert d_c == pytest.approx(4.0 * dist_squared_to_SO(F, p).squared_distance, rel=1e-10)

class TestOmegas:
    def test_tiny_spherical_scale(self):
        # det F = 1e-450 underflows, but F lies in GL+(3)
        F = 1e-150 * np.eye(3)
        assert omega_vol(F) == pytest.approx(450.0 * math.log(10.0), rel=1e-15)
        assert omega_iso(F) == pytest.approx(0.0, abs=1e-12)

    def test_huge_spherical_scale_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vol, iso = omega_vol(1e150 * np.eye(3)), omega_iso(1e150 * np.eye(3))
            dist2 = dist_squared_to_SO(1e150 * np.eye(3), MetricParams()).squared_distance
        assert vol == pytest.approx(450.0 * math.log(10.0), rel=1e-15)
        assert iso == pytest.approx(0.0, abs=1e-12)
        assert dist2 == pytest.approx(0.5 * vol * vol, rel=1e-14)

    def test_spherical(self):
        for c in (0.5, 2.0):
            F = c * np.eye(3)
            assert omega_iso(F) == pytest.approx(0.0, abs=1e-13)
            assert omega_vol(F) == pytest.approx(3.0 * abs(math.log(c)), abs=1e-12)

    def test_isochoric_diagonal_frozen(self):
        F = np.diag([2.0, 0.5, 1.0])
        assert omega_iso(F) == pytest.approx(math.sqrt(2.0) * math.log(2.0), abs=1e-13)
        assert omega_vol(F) == pytest.approx(0.0, abs=1e-12)

    def test_simple_shear_frozen(self):
        F = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert omega_iso(F) == pytest.approx(math.sqrt(2.0) * math.log(PHI), abs=1e-12)
        assert omega_vol(F) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance_and_isochoric_projection(self):
        rng = np.random.default_rng(173)
        for n in (2, 3):
            for _ in range(25):
                F = random_gl(rng, n)
                a = float(rng.uniform(0.2, 5.0))
                assert abs(omega_iso(a * F) - omega_iso(F)) < 1e-12 * max(1.0, omega_iso(F))
                iso_factor = np.linalg.det(F) ** (-1.0 / n) * F
                assert omega_vol(iso_factor) < 1e-12

    def test_omega_vol_is_log_det(self):
        rng = np.random.default_rng(179)
        for _ in range(20):
            F = random_gl(rng, 3)
            assert omega_vol(F) == pytest.approx(abs(math.log(np.linalg.det(F))), abs=1e-11)

    def test_factorization(self):
        rng = np.random.default_rng(181)
        for _ in range(50):
            F = random_gl(rng, 3)
            mu, kappa = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
            p = MetricParams(mu=mu, mu_c=1.0, kappa=kappa)
            lhs = mu * omega_iso(F) ** 2 + kappa / 2.0 * omega_vol(F) ** 2
            rhs = dist_squared_to_SO(F, p).squared_distance
            assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


class TestCofactorDistance:
    def test_identity(self):
        assert dist_cof_squared_to_SO(np.eye(3), MetricParams()) == pytest.approx(0.0, abs=1e-14)

    def test_spherical_frozen(self):
        value = dist_cof_squared_to_SO(2.0 * np.eye(3), MetricParams(mu=1.0, mu_c=1.0, kappa=1.0))
        assert value == pytest.approx(18.0 * math.log(2.0) ** 2, abs=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(191)
        p = MetricParams(mu=1.6, mu_c=1.0, kappa=0.7)
        for _ in range(50):
            F = random_gl(rng, 3)
            via_formula = dist_cof_squared_to_SO(F, p)
            direct = dist_squared_to_SO(cofactor(F), p).squared_distance
            assert abs(via_formula - direct) < 1e-10 * max(1.0, direct)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_cofactor_stays_representable_at_extreme_scales(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C = cofactor(scale * np.eye(3))
        assert np.max(np.abs(C / scale ** 2 - np.eye(3))) <= 1e-14

    def test_cofactor_helper(self):
        rng = np.random.default_rng(193)
        F = random_gl(rng, 3)
        C = cofactor(F)
        # Cramer's rule: F^T Cof F = det(F) id
        assert np.max(np.abs(F.T @ C - np.linalg.det(F) * np.eye(3))) < 1e-12 * abs(np.linalg.det(F))


class TestEuclidDistToSO:
    def test_identity(self):
        assert euclid_dist_to_SO(np.eye(3)).distance == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        report = euclid_dist_to_SO(np.diag([2.0, 1.0, 1.0]))
        assert report.distance == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(report.minimizer, np.eye(3), atol=1e-12)

    def test_shear_frozen(self):
        report = euclid_dist_to_SO(F_SHEAR)
        assert report.distance == pytest.approx(EUCLID_SHEAR, abs=1e-13)
        assert np.allclose(report.minimizer, R_SHEAR, atol=1e-12)

    def test_inverse_symmetry_violated_witness(self):
        F = np.diag([2.0, 1.0, 1.0])
        d_fwd = euclid_dist_to_SO(F).distance
        d_bwd = euclid_dist_to_SO(np.linalg.inv(F)).distance
        assert d_fwd == pytest.approx(1.0, abs=1e-14)
        assert d_bwd == pytest.approx(0.5, abs=1e-14)
        assert d_fwd - d_bwd == pytest.approx(0.5, abs=1e-14)

    def test_overflow_raises(self):
        # (1e200 - 1)^2 leaves the double range; 1e150 F still fits
        with pytest.raises(OverflowError, match="Euclidean distance overflows"):
            euclid_dist_to_SO(1e200 * np.eye(2))
        assert euclid_dist_to_SO(1e150 * np.eye(2)).distance == pytest.approx(
            math.sqrt(2.0) * 1e150, rel=1e-15)


class TestRotationGroupDistances:
    def test_coincident(self):
        Q = rot3([1, 2, 3], 0.8)
        assert dist_SO(Q, Q) == pytest.approx(0.0, abs=1e-12)

    def test_planar_quarter_turn_frozen(self):
        assert dist_SO(np.eye(2), rot2(math.pi / 2)) == pytest.approx(
            math.sqrt(2.0) * math.pi / 2.0, abs=1e-13
        )

    def test_same_axis(self):
        axis = [0.3, -1.0, 0.5]
        for alpha, beta in ((0.2, 1.1), (-0.7, 0.4), (2.0, 2.9)):
            expected = math.sqrt(2.0) * abs(alpha - beta)
            assert dist_SO(rot3(axis, alpha), rot3(axis, beta)) == pytest.approx(expected, abs=1e-11)

    def test_angle_pi_rejected(self):
        with pytest.raises(AngleAtPiError):
            dist_SO(np.eye(2), -np.eye(2))

    def test_non_rotation_rejected(self):
        with pytest.raises(ValueError):
            dist_SO(np.eye(2), np.diag([1.0, 2.0]))

    def test_cso_trivial_and_frozen(self):
        Q = rot2(0.4)
        assert dist_CSO(1.5, Q, 1.5, Q) == pytest.approx(0.0, abs=1e-12)
        assert dist_CSO(math.e ** 2, Q, 1.0, Q) == pytest.approx(math.sqrt(2.0), abs=1e-13)

    def test_cso_mixed_is_root_sum_square(self):
        Q, R = rot2(0.2), rot2(1.3)
        rot_part = dist_SO(Q, R)
        scale_part = math.log(3.0) ** 2 / 2.0
        assert dist_CSO(3.0, Q, 1.0, R) == pytest.approx(
            math.sqrt(rot_part ** 2 + scale_part), abs=1e-12
        )

    def test_cso_rejects_nonpositive_factors(self):
        with pytest.raises(ValueError):
            dist_CSO(-1.0, np.eye(2), 1.0, np.eye(2))


class TestPsymDistances:
    def test_trace_metric_trivial(self):
        rng = np.random.default_rng(197)
        C = random_spd(rng, 3)
        assert dist_psym_trace_metric(C, C) == pytest.approx(0.0, abs=1e-10)
        assert dist_psym_trace_metric(C, np.eye(3)) == pytest.approx(
            float(np.linalg.norm(principal_log_spd(C))), abs=1e-11
        )

    def test_trace_metric_commuting_frozen(self):
        value = dist_psym_trace_metric(np.diag([4.0, 1.0]), np.diag([1.0, 9.0]))
        assert value == pytest.approx(math.sqrt(math.log(4.0) ** 2 + math.log(9.0) ** 2), abs=1e-12)
        assert value == pytest.approx(2.59800075037001, abs=1e-10)

    def test_log_euclidean_trivial(self):
        rng = np.random.default_rng(199)
        C = random_spd(rng, 3)
        assert dist_log_euclidean(C, C) == pytest.approx(0.0, abs=1e-12)
        assert dist_log_euclidean(C, np.eye(3)) == pytest.approx(
            float(np.linalg.norm(principal_log_spd(C))), abs=1e-12
        )

    def test_commuting_three_way_agreement(self):
        rng = np.random.default_rng(211)
        for _ in range(30):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            w1 = np.exp(rng.uniform(-1.0, 1.0, size=3))
            w2 = np.exp(rng.uniform(-1.0, 1.0, size=3))
            C1, C2 = Q @ np.diag(w1) @ Q.T, Q @ np.diag(w2) @ Q.T
            a = dist_psym_trace_metric(C1, C2)
            b = dist_log_euclidean(C1, C2)
            c = dist_gl_commuting(C1, C2)
            assert abs(a - b) < 1e-9 * max(1.0, a)
            assert abs(a - c) < 1e-9 * max(1.0, a)

    def test_noncommuting_witness_gap(self):
        rng = np.random.default_rng(223)
        best_gap = 0.0
        for _ in range(50):
            C1, C2 = random_spd(rng, 3, 1.2), random_spd(rng, 3, 1.2)
            gap = abs(dist_psym_trace_metric(C1, C2) - dist_log_euclidean(C1, C2))
            best_gap = max(best_gap, gap)
        assert best_gap > 1e-3

    def test_geodesic_point_trivial(self):
        rng = np.random.default_rng(227)
        C1 = random_spd(rng, 3)
        assert np.allclose(psym_geodesic_point(C1, np.zeros((3, 3)), 0.7), C1, atol=1e-12)
        M = sym_part(rng.standard_normal((3, 3)))
        assert np.max(np.abs(psym_geodesic_point(np.eye(3), M, 0.5) - mat_exp(0.5 * M))) < 1e-12

    def test_geodesic_point_endpoint_interpolation(self):
        target = np.diag([4.0, 9.0])
        M = principal_log_spd(target)
        end = psym_geodesic_point(np.eye(2), M, 1.0)
        assert np.max(np.abs(end - target)) < 1e-11

    def test_geodesic_point_stays_spd(self):
        rng = np.random.default_rng(229)
        C1 = random_spd(rng, 3)
        M = sym_part(rng.standard_normal((3, 3)))
        for t in (-1.0, 0.3, 2.0):
            G = psym_geodesic_point(C1, M, t)
            assert np.min(np.linalg.eigvalsh(G)) > 0.0


class TestLinearDistToSo:
    def test_skew_gradient(self):
        W = np.array([[0.0, 0.7], [-0.7, 0.0]])
        assert linear_dist_to_so(W, MetricParams()) == pytest.approx(0.0, abs=1e-14)

    def test_spherical_gradient(self):
        eps = 0.01
        value = linear_dist_to_so(eps * np.eye(3), MetricParams(mu=1.0, mu_c=1.0, kappa=1.0))
        assert value == pytest.approx(0.5 * (3.0 * eps) ** 2, abs=1e-15)

    def test_identity_with_weighted_norm(self):
        rng = np.random.default_rng(233)
        p = MetricParams(mu=1.9, mu_c=4.0, kappa=0.6)
        for _ in range(20):
            G = rng.standard_normal((3, 3))
            s = sym_part(G)
            dev = s - np.trace(s) / 3.0 * np.eye(3)
            expected = p.mu * float(np.sum(dev * dev)) + 0.5 * p.kappa * float(np.trace(G)) ** 2
            assert linear_dist_to_so(G, p) == pytest.approx(expected, abs=1e-12)

    def test_skew_part_is_the_minimizer(self):
        rng = np.random.default_rng(239)
        p = MetricParams(mu=1.0, mu_c=2.5, kappa=1.0)
        G = rng.standard_normal((3, 3))
        value = linear_dist_to_so(G, p)
        W_star = skew_part(G)
        assert weighted_norm(G - W_star, p) ** 2 == pytest.approx(value, abs=1e-12)
        for _ in range(20):
            W = skew_part(rng.standard_normal((3, 3)))
            if np.linalg.norm(W - W_star) < 1e-6:
                continue
            assert weighted_norm(G - W, p) ** 2 > value
