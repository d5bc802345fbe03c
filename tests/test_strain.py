"""Tests for the strain tensor family."""

import math

import numpy as np
import pytest

from geolog.matcore import NotSPDError, mat_exp, principal_log_spd, sqrt_spd
from geolog.strain import (
    StrainTensor,
    bazant_approx,
    hencky_tensor,
    linear_strain,
    principal_strains,
    scale_function,
    scale_function_check,
    seth_hill,
    vol_iso_split,
)


def random_spd(rng, n, spread=1.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    w = np.exp(rng.uniform(-spread, spread, size=n))
    return Q @ np.diag(w) @ Q.T


def commuting_spd_pair(rng, n, spread=1.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w1 = np.exp(rng.uniform(-spread, spread, size=n))
    w2 = np.exp(rng.uniform(-spread, spread, size=n))
    return Q @ np.diag(w1) @ Q.T, Q @ np.diag(w2) @ Q.T


class TestSethHill:
    def test_order_one_frozen(self):
        E = seth_hill(np.diag([2.0, 1.0, 1.0]), 1.0)
        assert np.allclose(E.value, np.diag([1.5, 0.0, 0.0]), atol=1e-14)
        assert E.order == 1.0
        assert E.kind == "material"

    def test_order_zero_is_log(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            U = random_spd(rng, 3)
            E = seth_hill(U, 0.0)
            assert np.allclose(E.value, principal_log_spd(U), atol=1e-13)

    def test_negative_order(self):
        U = np.diag([2.0, 0.5])
        E = seth_hill(U, -1.0)
        expected = (np.eye(2) - np.diag([0.25, 4.0])) / 2.0
        assert np.allclose(E.value, expected, atol=1e-14)

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            U = random_spd(rng, 3)
            E_small = seth_hill(U, 1e-6).value
            E_log = seth_hill(U, 0.0).value
            assert np.max(np.abs(E_small - E_log)) < 1e-4

    def test_rejects_non_spd(self):
        with pytest.raises(NotSPDError):
            seth_hill(np.diag([1.0, -1.0]), 0.5)
        with pytest.raises(NotSPDError):
            seth_hill(np.array([[1.0, 0.2], [0.0, 1.0]]), 1.0)

    def test_isotropy_under_conjugation(self):
        rng = np.random.default_rng(7)
        for r in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            U = random_spd(rng, 3)
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            if np.linalg.det(Q) < 0:
                Q[:, 0] *= -1
            lhs = seth_hill(Q.T @ U @ Q, r).value
            rhs = Q.T @ seth_hill(U, r).value @ Q
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_vanishes_only_at_identity(self):
        rng = np.random.default_rng(9)
        for r in (-1.0, 0.0, 0.5, 1.0):
            assert np.allclose(seth_hill(np.eye(3), r).value, 0.0, atol=1e-14)
            for _ in range(10):
                U = random_spd(rng, 3)
                if np.max(np.abs(U - np.eye(3))) < 0.1:
                    continue
                assert np.linalg.norm(seth_hill(U, r).value) > 1e-3

    def test_spatial_kind_tag(self):
        E = seth_hill(np.diag([2.0, 3.0]), 0.5, kind="spatial")
        assert E.kind == "spatial"


class TestHenckyAndBazant:
    def test_hencky_is_order_zero(self):
        rng = np.random.default_rng(11)
        U = random_spd(rng, 3)
        assert np.allclose(hencky_tensor(U).value, seth_hill(U, 0.0).value, atol=1e-14)
        assert hencky_tensor(U).order == "hencky"

    def test_bazant_is_mean_of_half_orders(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            U = random_spd(rng, 3, spread=1.5)
            B = bazant_approx(U).value
            mean = 0.5 * (seth_hill(U, 0.5).value + seth_hill(U, -0.5).value)
            assert np.max(np.abs(B - mean)) < 1e-12
            direct = 0.5 * (U - np.linalg.inv(U))
            assert np.max(np.abs(B - direct)) < 1e-12

    def test_bazant_close_to_log_near_identity(self):
        U = np.diag([1.05, 0.97, 1.01])
        gap = np.max(np.abs(bazant_approx(U).value - hencky_tensor(U).value))
        assert gap < 1e-4

    def test_hencky_monotonicity(self):
        # the logarithm is a monotone operator function on SPD matrices
        rng = np.random.default_rng(17)
        for _ in range(25):
            U1, U2 = random_spd(rng, 3), random_spd(rng, 3)
            dE = hencky_tensor(U1).value - hencky_tensor(U2).value
            dU = U1 - U2
            if np.linalg.norm(dU) < 1e-8:
                continue
            assert float(np.sum(dE * dU)) > 0.0


class TestSuperposition:
    def test_coaxial_additivity_of_log(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            U1, U2 = commuting_spd_pair(rng, 3)
            lhs = hencky_tensor(U1 @ U2).value
            rhs = hencky_tensor(U1).value + hencky_tensor(U2).value
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_order_one_violates_additivity_even_coaxially(self):
        U1 = np.diag([2.0, 1.0, 1.0])
        U2 = np.diag([2.0, 1.0, 1.0])
        lhs = seth_hill(U1 @ U2, 1.0).value
        rhs = seth_hill(U1, 1.0).value + seth_hill(U2, 1.0).value
        assert np.max(np.abs(lhs - rhs)) > 1.0

    def test_noncommuting_stretches_break_log_additivity(self):
        # successive stretches U1 then U2 compose to the right stretch
        # sqrt(U2 U1^2 U2); additivity of the log requires commutation
        U1 = np.diag([4.0, 1.0, 1.0])
        R = np.array([
            [math.cos(0.7), -math.sin(0.7), 0.0],
            [math.sin(0.7), math.cos(0.7), 0.0],
            [0.0, 0.0, 1.0],
        ])
        U2 = R @ np.diag([2.0, 0.5, 1.0]) @ R.T
        U_comp = sqrt_spd(U2 @ U1 @ U1 @ U2)
        lhs = hencky_tensor(U_comp).value
        rhs = hencky_tensor(U1).value + hencky_tensor(U2).value
        assert np.max(np.abs(lhs - rhs)) > 1e-3


class TestVolIsoSplit:
    def test_frozen_planar_example(self):
        H = hencky_tensor(np.diag([4.0, 1.0]))
        iso, vol = vol_iso_split(H)
        assert np.allclose(iso.value, np.diag([math.log(2.0), -math.log(2.0)]), atol=1e-13)
        assert np.allclose(vol.value, math.log(2.0) * np.eye(2), atol=1e-13)

    def test_isochoric_part_is_unimodular(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            U = random_spd(rng, 3, spread=1.5)
            iso, _ = vol_iso_split(hencky_tensor(U))
            det = float(np.linalg.det(mat_exp(iso.value)))
            assert abs(det - 1.0) < 1e-10

    def test_recomposition_and_tags(self):
        rng = np.random.default_rng(29)
        H = seth_hill(random_spd(rng, 3), 0.5, kind="spatial")
        iso, vol = vol_iso_split(H)
        assert np.max(np.abs(iso.value + vol.value - H.value)) < 1e-13
        assert iso.kind == vol.kind == "spatial"
        assert iso.order == vol.order == 0.5
        assert abs(np.trace(iso.value)) < 1e-12


class TestLinearStrain:
    def test_symmetric_part(self):
        G = np.array([[0.1, 0.3], [0.1, -0.2]])
        eps = linear_strain(G)
        assert np.allclose(eps.value, [[0.1, 0.2], [0.2, -0.2]], atol=1e-14)
        assert eps.order == "linear"

    def test_skew_gradient_gives_zero(self):
        W = np.array([[0.0, 0.4], [-0.4, 0.0]])
        assert np.allclose(linear_strain(W).value, 0.0, atol=1e-14)


class TestScaleFunction:
    @pytest.mark.parametrize("r", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.3])
    def test_normalization_and_monotonicity(self, r):
        report = scale_function_check(r)
        assert report.passed
        assert report.value_at_one == pytest.approx(0.0, abs=1e-12)
        assert report.fd_derivative_at_one == pytest.approx(1.0, abs=1e-6)
        assert report.strictly_increasing

    def test_log_limit_scalar(self):
        lam = 1.8
        assert scale_function(0.0, lam) == pytest.approx(math.log(lam), abs=1e-15)
        assert scale_function(1e-7, lam) == pytest.approx(math.log(lam), abs=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.3, -0.5, -1.0])
    def test_past_the_double_range_is_inf(self, r):
        lam = np.array([1e300, 2.0, 1e-300])
        out = scale_function(r, lam)
        assert out.shape == (3,)
        # lambda^{2r} overflows at 1e300 for 2r >= 2 and at 1e-300 for 2r <= -2
        assert (out[0] == math.inf) == (r >= 1.0) and (out[2] == -math.inf) == (r <= -1.0)
        assert out[1] == pytest.approx((2.0 ** (2.0 * r) - 1.0) / (2.0 * r), rel=1e-15)

    @pytest.mark.parametrize("r,lam", [(0.25, -1.0), (-0.5, 0.0)])
    def test_undefined_power_is_named(self, r, lam):
        with pytest.raises(ValueError, match=f"^e_r with r = {r:g} is undefined at lambda = {lam!r}$"):
            scale_function(r, np.array([2.0, lam]))

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_green_and_biot_strains_keep_numpy_bits(self, r):
        # lambda^1 and lambda^2 round as numpy's power does (a copy, a square)
        lam = np.random.default_rng(5).uniform(0.05, 20.0, 2000)
        expected = (lam ** (2.0 * r) - 1.0) / (2.0 * r)
        assert np.array_equal(scale_function(r, lam), expected)
        assert principal_strains(r, lam.tolist()) == expected.tolist()


class TestStrainTensorValidation:
    def test_rejects_asymmetric_value(self):
        with pytest.raises(ValueError):
            StrainTensor(value=np.array([[0.0, 1.0], [0.0, 0.0]]), kind="material", order=0.0)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            StrainTensor(value=np.zeros((2, 2)), kind="mixed", order=0.0)

    def test_rejects_bad_named_order(self):
        with pytest.raises(ValueError):
            StrainTensor(value=np.zeros((2, 2)), kind="material", order="quadratic")


class TestAlternativeShearScalars:
    def test_planar_shear_scalars_are_distinct(self):
        # several scalar measures of the amount of simple shear; they are
        # genuinely different functions of gamma, recorded here side by side
        gamma = 1.0
        F = np.array([[1.0, gamma], [0.0, 1.0]])
        U = sqrt_spd(F.T @ F)
        log_u = principal_log_spd(U)
        dev_log_norm = float(np.linalg.norm(log_u - np.trace(log_u) / 2.0 * np.eye(2)))
        quadratic = 0.5 * gamma ** 2
        linear_scaled = abs(gamma) / math.sqrt(3.0)
        asinh_form = (2.0 / math.sqrt(3.0)) * math.log(gamma / 2.0 + math.sqrt(1.0 + gamma ** 2 / 4.0))
        values = [dev_log_norm, quadratic, linear_scaled, asinh_form]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i] - values[j]) > 1e-3
