"""Tests for energies, stresses, generalized linear laws and rate identities."""

import math
import warnings

import numpy as np
import pytest

import geolog.matcore
from geolog.matcore import (
    COND_LIMIT,
    MetricParams,
    NonPositiveDeterminantError,
    SingularMatrixError,
    mat_exp,
    polar_decompose,
    principal_log_spd,
    sym_part,
)
from geolog.strain import hencky_tensor, seth_hill, StrainTensor
from geolog.constitutive import (
    MaterialModel,
    MotionSample,
    ParameterOutOfRangeError,
    UnsupportedModelError,
    ZeroDistortionError,
    almansi_rate_check,
    cauchy_stress,
    coaxial_lograte_check,
    criscione_invariants,
    energy,
    energy_from_logs,
    first_piola_fd,
    hill_law,
    kirchhoff_stress,
    lame_lambda,
    oldroyd_rates,
    shield_transform,
    tension_compression_check,
    velocity_split,
    zaremba_jaumann_rate,
)


def rot3(axis, theta):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def axis_cross(axis):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])


def random_gl(rng, n):
    while True:
        F = rng.uniform(-2.0, 2.0, size=(n, n))
        if 0.1 <= np.linalg.det(F) <= 10.0:
            return F


HENCKY = MaterialModel(kind="hencky", mu=1.0, kappa=1.0)
EXP_H = MaterialModel(kind="exp_hencky", mu=1.0, kappa=1.0, k=0.5, khat=0.25)
SVK = MaterialModel(kind="svk", mu=1.0, kappa=1.0)
BIOT = MaterialModel(kind="biot_linear", mu=1.0, kappa=1.0)


class TestMaterialModel:
    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRangeError):
            MaterialModel(kind="hencky", mu=-1.0)
        with pytest.raises(ParameterOutOfRangeError):
            MaterialModel(kind="exp_hencky", k=0.1)
        with pytest.raises(ParameterOutOfRangeError):
            MaterialModel(kind="exp_hencky", khat=0.05)
        with pytest.raises(UnsupportedModelError):
            MaterialModel(kind="ogden")

    def test_lame_conversion(self):
        m = MaterialModel(kind="hencky", mu=1.5, kappa=2.0)
        assert lame_lambda(m, 3) == pytest.approx(2.0 - 1.0, abs=1e-15)

    def test_motion_sample_validation(self):
        with pytest.raises(NonPositiveDeterminantError):
            MotionSample(F=np.diag([1.0, -1.0]), F_dot=np.zeros((2, 2)))

    def test_motion_sample_rejects_exactly_singular(self):
        with pytest.raises(NonPositiveDeterminantError):
            MotionSample(F=np.array([[1.0, 1.0], [1.0, 1.0]]), F_dot=np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_motion_sample_accepts_extreme_scales(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = MotionSample(F=scale * np.eye(3), F_dot=np.zeros((3, 3)), time=0.0)
        assert np.array_equal(s.F, scale * np.eye(3))

    def test_parameter_error_is_shared_with_matcore(self):
        assert ParameterOutOfRangeError is geolog.matcore.ParameterOutOfRangeError
        assert issubclass(ParameterOutOfRangeError, ValueError)


class TestEnergy:
    def test_hencky_at_tiny_spherical_scale(self):
        # det F = 1e-450 underflows; the energy only sees log s = -150 ln 10
        model = MaterialModel(kind="hencky", mu=1.0, kappa=0.7)
        expected = 0.5 * 0.7 * (450.0 * math.log(10.0)) ** 2
        assert energy(model, 1e-150 * np.eye(3)) == pytest.approx(expected, rel=1e-14)

    def test_huge_spherical_scale_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = energy(HENCKY, 1e150 * np.eye(3))
            tau = kirchhoff_stress(HENCKY, 1e150 * np.eye(3))
        vol = 450.0 * math.log(10.0)
        assert w == pytest.approx(0.5 * vol * vol, rel=1e-14)
        assert np.allclose(tau, vol * np.eye(3), rtol=1e-14, atol=0.0)

    def test_zero_on_rotations(self):
        rng = np.random.default_rng(71)
        exp_norm = MaterialModel(kind="exp_hencky", mu=1.3, kappa=0.8, k=0.3, khat=0.2, normalized=True)
        for _ in range(5):
            Q = rot3(rng.standard_normal(3), rng.uniform(-3, 3))
            for m in (HENCKY, SVK, BIOT, exp_norm):
                assert energy(m, Q) == pytest.approx(0.0, abs=1e-12)

    def test_hencky_uniaxial_incompressible(self):
        mu, lam = 1.3, 1.9
        m = MaterialModel(kind="hencky", mu=mu, kappa=0.7)
        F = np.diag([lam, lam ** -0.5, lam ** -0.5])
        assert energy(m, F) == pytest.approx(1.5 * mu * math.log(lam) ** 2, abs=1e-12)

    def test_exp_hencky_identity_offset(self):
        raw = MaterialModel(kind="exp_hencky", mu=2.0, kappa=3.0, k=0.5, khat=0.25)
        assert energy(raw, np.eye(3)) == pytest.approx(2.0 / 0.5 + 3.0 / (2 * 0.25), abs=1e-12)
        norm = MaterialModel(kind="exp_hencky", mu=2.0, kappa=3.0, k=0.5, khat=0.25, normalized=True)
        assert energy(norm, np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("l", [1e-3, 1e-5, 1e-7])
    def test_normalized_exp_hencky_near_rest(self, l):
        # (mu/k) e^{k iso^2} - mu/k cancels near rest; 6.4e-6 relative error
        # at l = 1e-5 and 2.5% at l = 1e-7 before expm1
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        m = MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3, normalized=True)
        logs = [l, -0.3 * l, -0.3 * l]
        exact_logs = [mpmath.mpf(x) for x in logs]
        t = sum(exact_logs)
        iso2 = sum((x - t / 3) ** 2 for x in exact_logs)
        exact = (
            mpmath.mpf(0.5) / mpmath.mpf(0.8) * mpmath.expm1(mpmath.mpf(0.8) * iso2)
            + mpmath.mpf(1.5) / (2 * mpmath.mpf(0.3)) * mpmath.expm1(mpmath.mpf(0.3) * t * t)
        )
        assert abs(energy_from_logs(m, logs) - exact) <= 1e-15 * exact
        # log(exp(l)) is off by up to about 1e-16 / l relative
        assert energy(m, np.diag(np.exp(logs))) == pytest.approx(float(exact), rel=1e-8)

    def test_one_dimensional_section(self):
        # with kappa = 2 mu / 3 the trace term folds into the full norm and
        # the energy along diag(l, 1, 1) is exactly ln^2 l
        m = MaterialModel(kind="hencky", mu=1.0, kappa=2.0 / 3.0)
        for lam in (0.3, 0.9, 1.7, 4.2):
            F = np.diag([lam, 1.0, 1.0])
            assert energy(m, F) == pytest.approx(math.log(lam) ** 2, abs=1e-12)

    def test_biot_diagonal(self):
        # lame_lambda = kappa - 2 mu / 3 = 0.5
        m = MaterialModel(kind="biot_linear", mu=1.0, kappa=7.0 / 6.0)
        assert energy(m, np.diag([2.0, 1.0, 1.0])) == pytest.approx(1.25, abs=1e-13)

    def test_objectivity_and_isotropy(self):
        rng = np.random.default_rng(73)
        for m in (HENCKY, EXP_H, SVK, BIOT):
            for _ in range(10):
                F = random_gl(rng, 3)
                Q = rot3(rng.standard_normal(3), rng.uniform(-3, 3))
                Qp = rot3(rng.standard_normal(3), rng.uniform(-3, 3))
                w = energy(m, F)
                assert energy(m, Q @ F) == pytest.approx(w, rel=1e-10, abs=1e-12)
                assert energy(m, F @ Qp) == pytest.approx(w, rel=1e-10, abs=1e-12)

    def test_rejects_nonpositive_det(self):
        with pytest.raises(NonPositiveDeterminantError):
            energy(HENCKY, np.diag([1.0, -2.0, 1.0]))

    def test_linearization_order(self):
        # the quadratic form in the displacement gradient is the exact
        # second-order expansion, so the defect drops at third order
        rng = np.random.default_rng(79)
        mu, kappa = 1.0, 2.0 / 3.0
        m = MaterialModel(kind="hencky", mu=mu, kappa=kappa)
        candidates = [np.diag([1.0, 0.0, 0.0])]
        for _ in range(4):
            H = rng.standard_normal((3, 3))
            candidates.append(H / np.linalg.norm(H))
        err = {1e-2: 0.0, 1e-3: 0.0}
        for H in candidates:
            s = sym_part(H)
            dev = s - np.trace(s) / 3.0 * np.eye(3)
            quad = mu * float(np.sum(dev * dev)) + 0.5 * kappa * float(np.trace(H)) ** 2
            for eps in err:
                w = energy(m, np.eye(3) + eps * H)
                err[eps] = max(err[eps], abs(w - quad * eps * eps))
        order = math.log10(err[1e-2] / err[1e-3])
        assert order >= 2.7


class TestKirchhoffStress:
    def test_identity(self):
        for m in (HENCKY, EXP_H):
            assert np.allclose(kirchhoff_stress(m, np.eye(3)), 0.0, atol=1e-12)

    def test_spherical_hencky(self):
        kappa = 1.7
        m = MaterialModel(kind="hencky", mu=0.4, kappa=kappa)
        for a in (0.5, 2.0):
            tau = kirchhoff_stress(m, a * np.eye(3))
            assert np.allclose(tau, 3.0 * kappa * math.log(a) * np.eye(3), atol=1e-12)

    def test_hencky_eos(self):
        m = MaterialModel(kind="hencky", mu=1.0, kappa=1.0)
        for x in (0.4, 0.9, 1.37, 3.0):
            F = x ** (1.0 / 3.0) * np.eye(3)
            sigma = cauchy_stress(kirchhoff_stress(m, F), F)
            assert float(np.trace(sigma)) / 3.0 == pytest.approx(math.log(x) / x, abs=1e-12)

    def test_exp_hencky_eos(self):
        m = MaterialModel(kind="exp_hencky", mu=1.0, kappa=1.0, k=0.25, khat=4.0)
        for x in (0.5, 1.37, 2.2):
            F = x ** (1.0 / 3.0) * np.eye(3)
            sigma = cauchy_stress(kirchhoff_stress(m, F), F)
            expected = (math.log(x) / x) * math.exp(4.0 * math.log(x) ** 2)
            assert float(np.trace(sigma)) / 3.0 == pytest.approx(expected, abs=1e-12)

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedModelError):
            kirchhoff_stress(SVK, np.eye(3))

    def test_linearity_in_log_stretch(self):
        # replacing V by V^2 doubles log V, and the quadratic energy's stress
        # is exactly linear in log V
        rng = np.random.default_rng(83)
        m = MaterialModel(kind="hencky", mu=1.1, kappa=2.3)
        for _ in range(10):
            F = random_gl(rng, 3)
            V = polar_decompose(F).left_stretch
            tau1 = kirchhoff_stress(m, F)
            tau2 = kirchhoff_stress(m, V @ F)
            assert np.max(np.abs(tau2 - 2.0 * tau1)) < 1e-10 * max(1.0, np.max(np.abs(tau1)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_ill_conditioned_frames(self, n):
        # F = Q diag(s) R^T with cond(F) up to 1e6.  The reference is built
        # from the known log s and left frame Q, not from an SVD.  Rounding F
        # moves log s_min by about eps cond(F), which the exponential gain
        # amplifies by 2 k |dev log s|; at k = 1/4 that stays below 1e-9.
        rng = np.random.default_rng(97 + n)
        exp_h = MaterialModel(kind="exp_hencky", mu=1.0, kappa=1.0, k=0.25, khat=0.125)
        for cond in (1e4, 1e5, 1e6):
            for _ in range(5):
                Q, R = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
                Q[:, 0] *= np.sign(np.linalg.det(Q))
                R[:, 0] *= np.sign(np.linalg.det(R))
                half = 0.5 * math.log(cond)
                logs = np.r_[half, rng.uniform(-half, half, n - 2), -half] + rng.uniform(-0.3, 0.3)
                F = Q @ np.diag(np.exp(logs)) @ R.T
                t = float(np.sum(logs))
                dev = logs - t / n
                for m, gain_iso, gain_vol in (
                    (HENCKY, 1.0, 1.0),
                    (exp_h, math.exp(exp_h.k * float(dev @ dev)), math.exp(exp_h.khat * t * t)),
                ):
                    tau_ref = Q @ np.diag(2.0 * m.mu * gain_iso * dev + m.kappa * gain_vol * t) @ Q.T
                    tau = kirchhoff_stress(m, F)
                    sigma = cauchy_stress(tau, F)
                    scale = float(np.max(np.abs(tau_ref)))
                    assert np.max(np.abs(tau - tau_ref)) <= 1e-9 * scale
                    assert np.max(np.abs(sigma - tau_ref / math.exp(t))) <= 1e-9 * scale / math.exp(t)

    def test_matches_gradient_in_log_stretch(self):
        # directional finite differences of the energy as a function of log V
        rng = np.random.default_rng(89)
        for m in (HENCKY, EXP_H):
            for _ in range(8):
                H = 0.6 * sym_part(rng.standard_normal((3, 3)))
                tau = kirchhoff_stress(m, mat_exp(H))
                delta = sym_part(rng.standard_normal((3, 3)))
                h = 1e-5
                w_plus = energy(m, mat_exp(H + h * delta))
                w_minus = energy(m, mat_exp(H - h * delta))
                directional = (w_plus - w_minus) / (2.0 * h)
                assert directional == pytest.approx(float(np.sum(tau * delta)), abs=1e-6)


class TestCauchyStress:
    def test_zero(self):
        assert np.allclose(cauchy_stress(np.zeros((3, 3)), 2.0 * np.eye(3)), 0.0, atol=1e-15)

    def test_unimodular(self):
        tau = np.diag([1.0, 2.0, 3.0])
        F = np.diag([2.0, 1.0, 0.5])
        assert np.allclose(cauchy_stress(tau, F), tau, atol=1e-14)

    def test_rejects_nonpositive_det(self):
        with pytest.raises(NonPositiveDeterminantError):
            cauchy_stress(np.eye(2), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_condition_numbers_above_the_limit(self, n):
        # log det F comes from the stretch spectrum, whose checks apply
        F = np.diag([1.0] * (n - 1) + [0.5 / COND_LIMIT])
        with pytest.raises(SingularMatrixError):
            cauchy_stress(np.eye(n), F)

    @pytest.mark.filterwarnings("error")
    def test_det_outside_the_double_range(self):
        # det F = 1e-450 and 1e450: the stress overflows or underflows, never inf or nan
        tau = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(OverflowError):
            cauchy_stress(tau, 1e-150 * np.eye(3))
        assert np.array_equal(cauchy_stress(tau, 1e150 * np.eye(3)), np.zeros((3, 3)))
        assert cauchy_stress(tau[:2, :2], 1e-150 * np.eye(2)) == pytest.approx(1e300 * tau[:2, :2], rel=1e-12)


class TestFirstPiola:
    def test_identity_hencky(self):
        assert np.max(np.abs(first_piola_fd(HENCKY, np.eye(3)))) < 1e-9

    def test_contraction_matches_kirchhoff(self):
        rng = np.random.default_rng(97)
        for m in (HENCKY, EXP_H):
            for _ in range(10):
                F = random_gl(rng, 3)
                S1 = first_piola_fd(m, F, h=1e-5)
                tau = kirchhoff_stress(m, F)
                assert np.max(np.abs(S1 @ F.T - tau)) < 1e-5 * max(1.0, np.max(np.abs(tau)))

    def test_svk_analytic_structure(self):
        rng = np.random.default_rng(101)
        m = MaterialModel(kind="svk", mu=1.4, kappa=0.9)
        for _ in range(10):
            F = random_gl(rng, 3)
            E = (F.T @ F - np.eye(3)) / 2.0
            lam = m.kappa - 2.0 * m.mu / 3.0
            S2 = 2.0 * m.mu * E + lam * np.trace(E) * np.eye(3)
            S1_analytic = F @ S2
            S1_fd = first_piola_fd(m, F, h=1e-5)
            assert np.max(np.abs(S1_fd - S1_analytic)) < 1e-5 * max(1.0, np.max(np.abs(S1_analytic)))


class TestHillLaw:
    def test_zero_strain(self):
        E = StrainTensor(value=np.zeros((3, 3)), kind="material", order=1.0)
        assert np.allclose(hill_law(1.0, E, 2.0, 0.7), 0.0, atol=1e-15)

    def test_spherical_strain(self):
        eps, mu, lam = 0.01, 2.0, 0.7
        E = StrainTensor(value=eps * np.eye(3), kind="material", order=1.0)
        expected = (2.0 * mu + 3.0 * lam) * eps * np.eye(3)
        assert np.allclose(hill_law(1.0, E, mu, lam), expected, atol=1e-14)

    def test_green_strain_example(self):
        mu, lam = 1.3, 0.4
        E = seth_hill(np.diag([2.0, 1.0, 1.0]), 1.0)  # C = diag(4, 1, 1)
        T = hill_law(1.0, E, mu, lam)
        expected = mu * np.diag([3.0, 0.0, 0.0]) + 1.5 * lam * np.eye(3)
        assert np.allclose(T, expected, atol=1e-13)

    def test_named_instance_green_strain_law(self):
        # the r = 1 material law with lambda = kappa - 2 mu / 3 is the second
        # Piola-Kirchhoff stress of the quadratic Green-strain energy
        rng = np.random.default_rng(103)
        m = MaterialModel(kind="svk", mu=1.2, kappa=2.1)
        F = random_gl(rng, 3)
        U = polar_decompose(F).right_stretch
        E1 = seth_hill(U, 1.0)
        S2 = hill_law(1.0, E1, m.mu, lame_lambda(m, 3))
        S1 = first_piola_fd(m, F, h=1e-5)
        assert np.max(np.abs(F @ S2 - S1)) < 1e-4 * max(1.0, np.max(np.abs(S1)))

    def test_named_instance_becker(self):
        mu, lam = 1.1, 0.6
        U = np.diag([2.0, 0.5, 1.3])
        T = hill_law(0.0, seth_hill(U, 0.0), mu, lam)
        log_u = principal_log_spd(U)
        expected = 2.0 * mu * log_u + lam * np.trace(log_u) * np.eye(3)
        assert np.allclose(T, expected, atol=1e-13)

    def test_named_instance_almansi_signorini(self):
        rng = np.random.default_rng(107)
        F = random_gl(rng, 3)
        V = polar_decompose(F).left_stretch
        E = seth_hill(V, -1.0, kind="spatial")
        B_inv = np.linalg.inv(F @ F.T)
        assert np.max(np.abs(E.value - (np.eye(3) - B_inv) / 2.0)) < 1e-11

    def test_order_mismatch_rejected(self):
        E = seth_hill(np.diag([2.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            hill_law(0.5, E, 1.0, 0.5)

    def test_requires_strain_tensor(self):
        with pytest.raises(TypeError):
            hill_law(1.0, np.eye(3), 1.0, 0.5)


class TestKinematics:
    def test_velocity_split_trivial(self):
        s = MotionSample(F=np.diag([2.0, 1.0]), F_dot=np.zeros((2, 2)))
        L, D, W = velocity_split(s)
        assert np.allclose(L, 0.0, atol=1e-15)
        assert np.allclose(D, 0.0, atol=1e-15)
        assert np.allclose(W, 0.0, atol=1e-15)

    def test_velocity_split_symmetric_at_identity(self):
        S = np.array([[0.1, 0.2], [0.2, -0.3]])
        L, D, W = velocity_split(MotionSample(F=np.eye(2), F_dot=S))
        assert np.allclose(D, S, atol=1e-15)
        assert np.allclose(W, 0.0, atol=1e-15)

    def test_rigid_rotation_has_no_stretching(self):
        omega = 0.7
        K = axis_cross([0.2, -1.0, 0.5])
        for t in (0.0, 0.4, 1.1):
            Q = mat_exp(t * omega * K)
            s = MotionSample(F=Q, F_dot=omega * K @ Q, time=t)
            L, D, W = velocity_split(s)
            assert np.max(np.abs(D)) < 1e-13
            assert np.max(np.abs(W - omega * K)) < 1e-13

    def test_zaremba_jaumann(self):
        X_dot = np.diag([1.0, 2.0])
        X = np.diag([3.0, 4.0])
        assert np.allclose(zaremba_jaumann_rate(X_dot, X, np.zeros((2, 2))), X_dot, atol=1e-15)
        W = np.array([[0.0, 0.5], [-0.5, 0.0]])
        assert np.allclose(zaremba_jaumann_rate(X_dot, np.eye(2), W), X_dot, atol=1e-15)
        X_comm = W @ W  # commutes with W
        assert np.allclose(zaremba_jaumann_rate(X_dot, X_comm, W), X_dot, atol=1e-15)

    def test_oldroyd_trivial(self):
        X_dot = np.diag([1.0, -1.0])
        X = np.diag([2.0, 5.0])
        lower, upper = oldroyd_rates(X_dot, X, np.zeros((2, 2)))
        assert np.allclose(lower, X_dot, atol=1e-15)
        assert np.allclose(upper, X_dot, atol=1e-15)
        lower, upper = oldroyd_rates(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        assert np.allclose(lower, 0.0, atol=1e-15)
        assert np.allclose(upper, 0.0, atol=1e-15)


def rigid_rotation_path(steps, omega=0.9):
    K = axis_cross([0.3, 0.4, -1.0])
    path = []
    for t in np.linspace(0.0, 1.0, steps):
        Q = mat_exp(t * omega * K)
        path.append(MotionSample(F=Q, F_dot=omega * K @ Q, time=float(t)))
    return path


def diagonal_stretch_path(steps):
    path = []
    for t in np.linspace(0.0, 1.0, steps):
        lam = 1.0 + t / 2.0
        F = np.diag([lam, 1.0, 1.0])
        F_dot = np.diag([0.5, 0.0, 0.0])
        path.append(MotionSample(F=F, F_dot=F_dot, time=float(t)))
    return path


def rotation_stretch_path(steps, omega=1.1):
    K = axis_cross([1.0, -0.5, 0.2])
    path = []
    for t in np.linspace(0.0, 1.0, steps):
        lam = 1.0 + t / 2.0
        Q = mat_exp(t * omega * K)
        S = np.diag([lam, 1.0, 1.0])
        S_dot = np.diag([0.5, 0.0, 0.0])
        F = Q @ S
        F_dot = omega * K @ Q @ S + Q @ S_dot
        path.append(MotionSample(F=F, F_dot=F_dot, time=float(t)))
    return path


class TestRateIdentities:
    def test_almansi_static(self):
        F = np.diag([1.3, 0.8, 1.1])
        path = [MotionSample(F=F, F_dot=np.zeros((3, 3)), time=float(t)) for t in (0.0, 0.5, 1.0)]
        assert almansi_rate_check(path) < 1e-14

    def test_almansi_rigid_rotation(self):
        assert almansi_rate_check(rigid_rotation_path(1000)) < 1e-6

    def test_almansi_diagonal_stretch(self):
        assert almansi_rate_check(diagonal_stretch_path(1000)) < 1e-5

    def test_almansi_rotation_with_stretch(self):
        assert almansi_rate_check(rotation_stretch_path(1000)) < 1e-5

    def test_almansi_requires_timestamps(self):
        F = np.eye(3)
        path = [MotionSample(F=F, F_dot=np.zeros((3, 3))) for _ in range(3)]
        with pytest.raises(ValueError):
            almansi_rate_check(path)

    def test_coaxial_constant(self):
        F = np.diag([1.5, 0.7, 1.0])
        path = [MotionSample(F=F, F_dot=np.zeros((3, 3)), time=float(t)) for t in (0.0, 0.5, 1.0)]
        assert coaxial_lograte_check(path) < 1e-14

    def test_coaxial_dilation(self):
        path = []
        for t in np.linspace(0.0, 1.0, 1000):
            a = 1.0 + 0.8 * t
            path.append(MotionSample(F=a * np.eye(3), F_dot=0.8 * np.eye(3), time=float(t)))
        assert coaxial_lograte_check(path) < 1e-5

    def test_coaxial_isochoric_stretch(self):
        path = []
        for t in np.linspace(0.0, 1.0, 1000):
            lam = 1.0 + t / 2.0
            F = np.diag([lam, 1.0 / lam, 1.0])
            F_dot = np.diag([0.5, -0.5 / lam ** 2, 0.0])
            path.append(MotionSample(F=F, F_dot=F_dot, time=float(t)))
        assert coaxial_lograte_check(path) < 1e-5

    def test_coaxial_rejects_non_diagonal(self):
        F = rot3([0, 0, 1], 0.3)
        path = [MotionSample(F=F, F_dot=np.zeros((3, 3)), time=float(t)) for t in (0.0, 0.5, 1.0)]
        with pytest.raises(ValueError):
            coaxial_lograte_check(path)


class TestSymmetryTransforms:
    def test_shield_at_identity(self):
        assert shield_transform(HENCKY, np.eye(3)) == pytest.approx(0.0, abs=1e-13)
        assert shield_transform(EXP_H, np.eye(3)) == pytest.approx(energy(EXP_H, np.eye(3)), abs=1e-12)

    def test_shield_fixes_isochoric_log_energies(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            lam = float(rng.uniform(0.5, 2.0))
            mu_lat = float(rng.uniform(0.5, 2.0))
            F = np.diag([lam, mu_lat, 1.0 / (lam * mu_lat)])  # det 1
            for m in (HENCKY, EXP_H):
                assert shield_transform(m, F) == pytest.approx(energy(m, F), rel=1e-10, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_shield_with_det_outside_the_double_range(self):
        with pytest.raises(OverflowError):
            shield_transform(HENCKY, 1e150 * np.eye(3))
        assert shield_transform(HENCKY, 1e-150 * np.eye(3)) == 0.0

    def test_shield_moves_green_strain_energy(self):
        rng = np.random.default_rng(113)
        best = 0.0
        for _ in range(30):
            F = random_gl(rng, 3)
            best = max(best, abs(shield_transform(SVK, F) - energy(SVK, F)))
        assert best > 1e-3

    def test_tension_compression_log_energies(self):
        for m in (HENCKY, EXP_H):
            report = tension_compression_check(m, samples=50, seed=7)
            assert report.symmetric
            assert report.max_gap <= 1e-10
            assert report.witness is None

    def test_tension_compression_svk_witness(self):
        report = tension_compression_check(SVK, samples=50, seed=7)
        assert not report.symmetric
        assert report.witness is not None
        F = np.diag([2.0, 1.0, 1.0])
        gap = abs(energy(SVK, F) - energy(SVK, np.linalg.inv(F)))
        assert gap > 0.1
        assert gap == pytest.approx(2.4609375, abs=1e-12)

    def test_tension_compression_determinism(self):
        r1 = tension_compression_check(SVK, samples=20, seed=42)
        r2 = tension_compression_check(SVK, samples=20, seed=42)
        assert r1.max_gap == r2.max_gap
        assert np.array_equal(r1.witness, r2.witness)


class TestCriscione:
    def test_spherical_raises(self):
        with pytest.raises(ZeroDistortionError):
            criscione_invariants(2.0 * np.eye(3))

    def test_uniaxial_incompressible(self):
        lam = 1.7
        U = np.diag([lam, lam ** -0.5, lam ** -0.5])
        k1, k2, k3 = criscione_invariants(U)
        assert k1 == pytest.approx(0.0, abs=1e-12)
        assert k2 == pytest.approx(math.sqrt(1.5) * math.log(lam), abs=1e-12)
        assert k3 == pytest.approx(1.0 / math.sqrt(54.0), abs=1e-12)

    def test_uniaxial_compression_mode(self):
        lam = 0.6
        U = np.diag([lam, lam ** -0.5, lam ** -0.5])
        _, _, k3 = criscione_invariants(U)
        assert k3 == pytest.approx(-1.0 / math.sqrt(54.0), abs=1e-12)

    def test_simple_shear_mode(self):
        F = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        U = polar_decompose(F).right_stretch
        k1, k2, k3 = criscione_invariants(U)
        assert k1 == pytest.approx(0.0, abs=1e-12)
        assert k2 == pytest.approx(math.sqrt(2.0) * math.log((1 + math.sqrt(5.0)) / 2.0), abs=1e-12)
        assert k3 == pytest.approx(0.0, abs=1e-12)

    def test_mode_bound(self):
        rng = np.random.default_rng(127)
        bound = 1.0 / math.sqrt(54.0)
        for _ in range(200):
            A = rng.standard_normal((3, 3))
            U = sym_part(A @ A.T) + 0.2 * np.eye(3)
            try:
                _, _, k3 = criscione_invariants(U)
            except ZeroDistortionError:
                continue
            assert abs(k3) <= bound + 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            criscione_invariants(np.diag([2.0, 1.0]))


class TestPlanarRankOneConvexity:
    def test_sampled_second_differences(self):
        rng = np.random.default_rng(131)
        for k in (0.25, 1.0):
            m = MaterialModel(kind="exp_hencky", mu=1.0, kappa=1.0, k=k, khat=0.5)
            for _ in range(60):
                F = random_gl(rng, 2)
                a = rng.standard_normal(2)
                b = rng.standard_normal(2)
                rank_one = np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
                ts = np.linspace(-0.2, 0.2, 9)
                vals = []
                ok = True
                for t in ts:
                    Ft = F + t * rank_one
                    if np.linalg.det(Ft) <= 1e-8:
                        ok = False
                        break
                    vals.append(energy(m, Ft))
                if not ok:
                    continue
                second = np.diff(vals, 2)
                assert np.min(second) >= -1e-8
