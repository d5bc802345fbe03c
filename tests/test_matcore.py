"""Tests for the dense matrix kernel.

Frozen constants were computed independently with numpy/scipy spectral
decompositions (notes/derive_expected.py in the build log) before the
implementation existed.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import geolog.matcore as matcore
from geolog.matcore import (
    AngleAtPiError,
    MetricParams,
    NonPositiveDeterminantError,
    NotSPDError,
    ParameterOutOfRangeError,
    SingularMatrixError,
    _spectrum_of,
    gl_plus_log_det,
    is_rotation,
    is_skew,
    is_spd,
    is_symmetric,
    mat_exp,
    polar_decompose,
    principal_log_rotation,
    principal_log_spd,
    require_gl_plus,
    skew_part,
    split_orthogonal,
    sqrt_spd,
    stretch_spectrum,
    sym_part,
    weighted_inner,
    weighted_norm,
)
from geolog.constitutive import MaterialModel, cauchy_stress, energy, kirchhoff_stress, principal_kirchhoff
from geolog.geodesy import dist_cof_squared_to_SO, dist_squared_to_SO, euclid_dist_to_SO, omega_iso, omega_vol
from geolog.strain import seth_hill

PHI = (1.0 + math.sqrt(5.0)) / 2.0
F_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
U_SHEAR = np.array([[2.0, 1.0], [1.0, 3.0]]) / math.sqrt(5.0)
R_SHEAR = np.array([[2.0, 1.0], [-1.0, 2.0]]) / math.sqrt(5.0)
LOGU_SHEAR = (math.log(PHI) / math.sqrt(5.0)) * np.array([[-1.0, 2.0], [2.0, 1.0]])


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
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)


def random_matrix(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


class TestSplitOrthogonal:
    def test_identity(self):
        s = split_orthogonal(np.eye(3))
        assert np.allclose(s.dev_sym, 0.0, atol=1e-14)
        assert np.allclose(s.skew, 0.0, atol=1e-14)
        assert s.spherical_coeff == pytest.approx(1.0, abs=1e-14)

    def test_pure_skew(self):
        W = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]])
        s = split_orthogonal(W)
        assert np.allclose(s.dev_sym, 0.0, atol=1e-14)
        assert np.allclose(s.skew, W, atol=1e-14)
        assert s.spherical_coeff == pytest.approx(0.0, abs=1e-14)

    def test_shear_example(self):
        s = split_orthogonal(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.allclose(s.dev_sym, [[-1.0, 1.0], [1.0, 1.0]], atol=1e-14)
        assert np.allclose(s.skew, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
        assert s.spherical_coeff == pytest.approx(2.0, abs=1e-14)

    def test_recompose_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            for _ in range(20):
                X = random_matrix(rng, n, 3.0)
                s = split_orthogonal(X)
                assert np.max(np.abs(s.recompose() - X)) < 1e-12 * max(1.0, np.max(np.abs(X)))
                assert abs(np.trace(s.dev_sym)) < 1e-12 * n * max(1.0, np.max(np.abs(X)))
                assert is_symmetric(s.dev_sym)
                assert is_skew(s.skew)
                # the three components are pairwise Frobenius-orthogonal
                assert abs(np.sum(s.dev_sym * s.skew)) < 1e-12
                assert abs(np.trace(s.dev_sym)) < 1e-11
                assert abs(np.trace(s.skew)) < 1e-14


class TestWeightedInner:
    def test_frobenius_reduction(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            p = MetricParams.frobenius(n)
            for _ in range(25):
                X, Y = random_matrix(rng, n), random_matrix(rng, n)
                assert weighted_inner(X, Y, p) == pytest.approx(float(np.sum(X * Y)), abs=1e-12)

    def test_identity_value(self):
        p = MetricParams(mu=1.0, mu_c=1.0, kappa=1.0)
        assert weighted_inner(np.eye(3), np.eye(3), p) == pytest.approx(4.5, abs=1e-14)

    def test_orthogonality_of_parts(self):
        X = np.array([[1.0, 0.5], [0.5, -1.0]])  # trace-free symmetric
        Y = np.array([[0.0, 2.0], [-2.0, 0.0]])  # skew
        p = MetricParams(mu=3.0, mu_c=5.0, kappa=2.0)
        assert weighted_inner(X, Y, p) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_inner(np.eye(2), np.eye(3), MetricParams())

    def test_bilinearity_and_symmetry(self):
        rng = np.random.default_rng(13)
        p = MetricParams(mu=2.0, mu_c=0.5, kappa=3.0)
        X, Y, Z = (random_matrix(rng, 3) for _ in range(3))
        a, b = 1.7, -0.3
        lhs = weighted_inner(a * X + b * Y, Z, p)
        rhs = a * weighted_inner(X, Z, p) + b * weighted_inner(Y, Z, p)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert weighted_inner(X, Y, p) == pytest.approx(weighted_inner(Y, X, p), abs=1e-12)


class TestWeightedNorm:
    def test_zero(self):
        assert weighted_norm(np.zeros((3, 3)), MetricParams()) == 0.0

    def test_identity(self):
        assert weighted_norm(np.eye(3), MetricParams(mu=1.0, mu_c=1.0, kappa=1.0)) == pytest.approx(
            math.sqrt(4.5), abs=1e-14
        )

    def test_pure_skew(self):
        gamma = 0.37
        W = np.array([[0.0, gamma], [-gamma, 0.0]])
        for kappa in (0.5, 1.0, 4.0):
            p = MetricParams(mu=9.0, mu_c=1.0, kappa=kappa)
            assert weighted_norm(W, p) == pytest.approx(gamma * math.sqrt(2.0), abs=1e-14)

    def test_positive_definite(self):
        rng = np.random.default_rng(17)
        p = MetricParams(mu=0.4, mu_c=2.0, kappa=1.3)
        for _ in range(30):
            X = random_matrix(rng, 3)
            assert weighted_norm(X, p) > 0.0

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(19)
        p = MetricParams(mu=2.0, mu_c=0.7, kappa=1.9)
        for _ in range(20):
            X = random_matrix(rng, 3, 2.0)
            Q = rot3(rng.standard_normal(3), rng.uniform(-3.0, 3.0))
            assert weighted_norm(Q.T @ X @ Q, p) == pytest.approx(weighted_norm(X, p), abs=1e-10)

    def test_one_sided_multiplication_not_invariant(self):
        # concrete witness: with mu != mu_c, left multiplication by a rotation
        # moves weight between the symmetric and skew parts
        X = np.array([[1.0, 1.0], [0.0, 1.0]])
        Q = rot2(math.pi / 2)
        p = MetricParams(mu=1.0, mu_c=4.0, kappa=1.0)
        gap = abs(weighted_norm(Q @ X, p) - weighted_norm(X, p))
        assert gap > 1e-3


class TestPolarDecompose:
    def test_identity(self):
        pd = polar_decompose(np.eye(3))
        for part in (pd.rotation, pd.right_stretch, pd.left_stretch):
            assert np.allclose(part, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        pd = polar_decompose(np.diag([2.0, 3.0]))
        assert np.allclose(pd.rotation, np.eye(2), atol=1e-12)
        assert np.allclose(pd.right_stretch, np.diag([2.0, 3.0]), atol=1e-12)
        assert np.allclose(pd.left_stretch, np.diag([2.0, 3.0]), atol=1e-12)

    def test_shear_frozen_factors(self):
        pd = polar_decompose(F_SHEAR)
        assert np.allclose(pd.right_stretch, U_SHEAR, atol=1e-12)
        assert np.allclose(pd.rotation, R_SHEAR, atol=1e-12)
        V_expected = np.array([[3.0, 1.0], [1.0, 2.0]]) / math.sqrt(5.0)
        assert np.allclose(pd.left_stretch, V_expected, atol=1e-12)

    def test_reconstruction_and_spectra(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            done = 0
            while done < 40:
                F = random_matrix(rng, n, 1.5)
                if np.linalg.det(F) < 0.05:
                    continue
                done += 1
                pd = polar_decompose(F)
                scale = max(1.0, np.max(np.abs(F)))
                assert np.max(np.abs(pd.rotation @ pd.right_stretch - F)) < 1e-10 * scale
                assert np.max(np.abs(pd.left_stretch @ pd.rotation - F)) < 1e-10 * scale
                assert is_rotation(pd.rotation)
                assert is_spd(pd.right_stretch)
                assert is_spd(pd.left_stretch)
                su = np.sort(np.linalg.eigvalsh(pd.right_stretch))
                sv = np.sort(np.linalg.eigvalsh(pd.left_stretch))
                assert np.max(np.abs(su - sv)) < 1e-10 * max(1.0, su[-1])

    def test_spd_input_gives_identity_rotation(self):
        rng = np.random.default_rng(29)
        A = random_matrix(rng, 3)
        P = A @ A.T + 3.0 * np.eye(3)
        pd = polar_decompose(P)
        assert np.allclose(pd.rotation, np.eye(3), atol=1e-10)

    def test_negative_determinant_rejected(self):
        with pytest.raises(NonPositiveDeterminantError):
            polar_decompose(np.diag([-1.0, 2.0]))
        with pytest.raises(NonPositiveDeterminantError):
            polar_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_near_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            polar_decompose(np.diag([1.0, 1e-15]))


class TestPositiveDeterminantGate:
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scales_are_accepted_without_warnings(self, scale):
        # det F = scale^3 under- or overflows a double; its sign does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A, s, B = stretch_spectrum(scale * np.eye(3))
            R = polar_decompose(scale * np.eye(3)).rotation
        assert np.all(s == scale)
        assert np.array_equal(A @ B.T, np.eye(3))
        assert np.array_equal(R, np.eye(3))

    @pytest.mark.parametrize("F", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]]])
    def test_exactly_singular_is_a_nonpositive_determinant(self, F):
        with pytest.raises(NonPositiveDeterminantError, match="= 0"):
            require_gl_plus(F)
        with pytest.raises(NonPositiveDeterminantError):
            stretch_spectrum(F)

    def test_negative_determinant_named(self):
        with pytest.raises(NonPositiveDeterminantError, match="det base < 0"):
            require_gl_plus(np.diag([1.0, -1e-200, 1.0]), "base")

    def test_returns_the_float_array(self):
        F = require_gl_plus([[2, 0], [0, 3]])
        assert F.dtype == float and np.array_equal(F, np.diag([2.0, 3.0]))

    def test_log_det_comes_with_the_array(self):
        F, log_det = gl_plus_log_det([[2, 1], [0, 3]])
        assert F.dtype == float and log_det == pytest.approx(math.log(6.0), rel=1e-15)
        # 1e-150 id: det F underflows, its logarithm does not
        assert gl_plus_log_det(1e-150 * np.eye(3))[1] == np.linalg.slogdet(1e-150 * np.eye(3))[1]
        with pytest.raises(NonPositiveDeterminantError, match="det G < 0"):
            gl_plus_log_det(np.diag([1.0, -2.0]), "G")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count np.linalg.svd and np.linalg.slogdet calls, starting from an empty memo."""
    calls = {"svd": 0, "slogdet": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    _spectrum_of.cache_clear()
    return calls


@pytest.fixture
def planar_calls(monkeypatch):
    """Count calls of the 2x2 spectrum kernel, starting from an empty memo."""
    calls = []
    real = matcore._planar_svd

    def counted(*entries):
        calls.append(entries)
        return real(*entries)

    monkeypatch.setattr(matcore, "_planar_svd", counted)
    _spectrum_of.cache_clear()
    return calls


class TestSpectrumMemo:
    F = np.array([[1.5, 0.4], [-0.2, 0.8]])
    F3 = np.array([[1.5, 0.4, 0.1], [-0.2, 0.8, 0.3], [0.2, -0.1, 1.1]])

    def test_a_hit_makes_no_svd_or_slogdet_call(self, linalg_calls):
        first = stretch_spectrum(self.F3)
        assert linalg_calls == {"svd": 1, "slogdet": 1}
        # the key is the content, so an equal copy hits too
        again = stretch_spectrum(self.F3.copy())
        assert linalg_calls == {"svd": 1, "slogdet": 1}
        assert all(x is y for x, y in zip(first, again))

    def test_2x2_hit_makes_no_kernel_call(self, planar_calls, linalg_calls):
        first = stretch_spectrum(self.F)
        assert len(planar_calls) == 1
        again = stretch_spectrum(self.F.copy())
        assert len(planar_calls) == 1
        assert all(x is y for x, y in zip(first, again))
        assert linalg_calls == {"svd": 0, "slogdet": 0}

    def test_is_the_svd_of_F_bit_for_bit(self):
        _spectrum_of.cache_clear()
        A, s, B = stretch_spectrum(self.F3)
        A0, s0, Bt0 = np.linalg.svd(self.F3)
        assert np.array_equal(A, A0) and np.array_equal(s, s0) and np.array_equal(B, Bt0.T)

    def test_2x2_is_the_kernel_of_F_bit_for_bit(self, planar_calls):
        A, s, B = stretch_spectrum(self.F)
        assert planar_calls == [tuple(self.F.ravel().tolist())]
        A0, s0, B0 = matcore._planar_svd(*self.F.ravel().tolist())
        assert np.array_equal(A, A0) and np.array_equal(s, s0) and np.array_equal(B, B0)

    def test_returned_arrays_are_read_only(self):
        for X in stretch_spectrum(self.F):
            assert not X.flags.writeable
            with pytest.raises(ValueError):
                X[(0,) * X.ndim] = 0.0

    def test_F_changed_in_place_is_decomposed_again(self, linalg_calls):
        F = self.F3.copy()
        before = stretch_spectrum(F)[1].copy()
        F[0, 0] = 3.0
        after = stretch_spectrum(F)[1]
        assert linalg_calls["svd"] == 2
        # the full SVD's s: at 3x3 the values-only route may differ in the last bit
        assert np.array_equal(after, np.linalg.svd(F)[1])
        assert not np.array_equal(after, before)

    def test_2x2_F_changed_in_place_is_decomposed_again(self, planar_calls):
        F = self.F.copy()
        before = stretch_spectrum(F)[1].copy()
        F[0, 0] = 3.0
        after = stretch_spectrum(F)[1]
        assert len(planar_calls) == 2
        assert np.array_equal(after, matcore._planar_svd(*F.ravel().tolist())[1])
        assert not np.array_equal(after, before)

    def test_negative_determinant_is_not_remembered(self, linalg_calls):
        for _ in range(2):
            with pytest.raises(NonPositiveDeterminantError):
                stretch_spectrum(np.diag([1.0, -2.0, 1.0]))
        assert linalg_calls == {"svd": 0, "slogdet": 2}

    def test_2x2_negative_determinant_is_not_remembered(self, planar_calls):
        for _ in range(2):
            with pytest.raises(NonPositiveDeterminantError):
                stretch_spectrum(np.diag([1.0, -2.0]))
        assert len(planar_calls) == 2

    def test_non_finite_F_raises_right_after_a_valid_call(self):
        stretch_spectrum(self.F)
        bad = self.F.copy()
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            stretch_spectrum(bad)
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            stretch_spectrum(bad)

    def test_ill_conditioned_F_is_not_remembered(self, linalg_calls):
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                stretch_spectrum(np.diag([1.0, 1.0, 1e-15]))
        assert linalg_calls["svd"] == 2

    def test_2x2_ill_conditioned_F_is_not_remembered(self, planar_calls):
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                stretch_spectrum(np.diag([1.0, 1e-15]))
        assert len(planar_calls) == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_logs_and_rotation_are_formed_once_per_F(self, monkeypatch, n):
        # every closed form of one F reads log s and A B^T from its record: one
        # np.log and one np.matmul call (the n >= 3 tensors use the @ operator)
        calls = {"log": 0, "matmul": 0}

        def counting(name):
            real = getattr(np, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(np, name, counting(name))
        _spectrum_of.cache_clear()
        F = self.F if n == 2 else self.F3
        p = MetricParams(mu=2.0, mu_c=1.0, kappa=0.5)
        hencky = MaterialModel(kind="hencky", mu=0.5, kappa=1.5)
        exp_hencky = MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3)
        rotations = []
        for _ in range(2):
            rotations += [
                dist_squared_to_SO(F, p).minimizer,
                euclid_dist_to_SO(F).minimizer,
                polar_decompose(F).rotation,
            ]
            omega_iso(F), omega_vol(F), dist_cof_squared_to_SO(F, p)
            for model in (hencky, exp_hencky):
                energy(model, F)
                cauchy_stress(kirchhoff_stress(model, F), F)
        assert calls == {"log": 1, "matmul": 1}
        assert stretch_spectrum(F)[0] is matcore.spectral_record(F).A
        # each caller gets a fresh, writable copy of the one remembered rotation
        remembered = matcore.spectral_record(F).rotation
        assert not remembered.flags.writeable
        for R in rotations:
            assert R is not remembered and R.flags.writeable
            assert np.array_equal(R, remembered)
        rotations[0][0, 0] = 7.0
        assert np.array_equal(polar_decompose(F).rotation, remembered)
        assert calls == {"log": 1, "matmul": 1}

    @pytest.mark.parametrize("shape", [(4,), (1, 4)])
    def test_shape_is_part_of_the_key(self, shape):
        stretch_spectrum(self.F)
        with pytest.raises(ValueError, match="must be square"):
            stretch_spectrum(self.F.reshape(shape))

    def test_views_give_the_bits_of_their_contiguous_copy(self):
        big = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 6)) + 2.0 * np.eye(6)
        for view in (self.F.T, big[::2, ::2], np.asfortranarray(big[:3, :3])):
            assert not view.flags.c_contiguous
            _spectrum_of.cache_clear()
            from_view = stretch_spectrum(view)
            _spectrum_of.cache_clear()
            from_copy = stretch_spectrum(np.ascontiguousarray(view))
            assert all(np.array_equal(x, y) for x, y in zip(from_view, from_copy))


EPS = float(np.finfo(float).eps)


def _gl_plus_draws(count, seed):
    """2x2 draws with entries uniform in [-2, 2] and det in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        F = rng.uniform(-2.0, 2.0, size=(2, 2))
        if 0.1 <= np.linalg.det(F) <= 10.0:
            draws.append(F)
    return draws


def _hard_planar(seed):
    """c Q, diagonal, next to a rotation, condition number 1e13 to 1e13.9 and
    1e+-200 times P diag(s) Q^T, under seeded rotations P, Q."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(40):
        P, Q = rot2(rng.uniform(-math.pi, math.pi)), rot2(rng.uniform(-math.pi, math.pi))
        s = rng.uniform(0.2, 5.0, size=2)
        out += [
            rng.uniform(0.1, 10.0) * Q,
            np.diag(s),
            Q + 1e-6 * rng.standard_normal((2, 2)),
            P @ np.diag([s[0], s[0] * 10.0 ** -rng.uniform(13.0, 13.9)]) @ Q.T,
            10.0 ** rng.choice([-200, 200]) * (P @ np.diag(s) @ Q.T),
        ]
    return out


class TestPlanarKernels:
    """The written-out 2x2 SVD and symmetric eigendecomposition against LAPACK."""

    SVD_INPUTS = _gl_plus_draws(1000, 97) + _hard_planar(101)

    def test_svd_matches_lapack(self):
        for F in self.SVD_INPUTS:
            A, s, B = matcore._planar_svd(*F.ravel().tolist())
            s_ref = np.linalg.svd(F, compute_uv=False)
            # each s_i to a few eps s_0 (the SVD backward error), so to eps cond
            # relative for s_1
            assert np.all(np.abs(s - s_ref) <= 8.0 * EPS * s_ref[0]), F.tolist()
            assert np.max(np.abs(A @ (s[:, None] * B.T) - F)) <= 4.0 * EPS * s_ref[0], F.tolist()
            for X in (A, B):
                assert abs(np.linalg.det(X) - 1.0) <= 2.0 * EPS
                assert np.max(np.abs(X.T @ X - np.eye(2))) <= 2.0 * EPS

    def test_spectrum_takes_the_kernel_and_its_checks(self, planar_calls, linalg_calls):
        spectra = [stretch_spectrum(F) for F in self.SVD_INPUTS[:50]]
        assert len(planar_calls) == 50
        assert linalg_calls == {"svd": 0, "slogdet": 0}
        for F, spectrum in zip(self.SVD_INPUTS, spectra):
            kernel = matcore._planar_svd(*F.ravel().tolist())
            assert all(np.array_equal(x, y) for x, y in zip(spectrum, kernel))

    @pytest.mark.parametrize(
        "F,error,match",
        [
            ([[1.0, 0.0], [0.0, -2.0]], NonPositiveDeterminantError, "det F < 0"),
            ([[1.0, 1.0], [1.0, 1.0]], NonPositiveDeterminantError, "det F = 0"),
            ([[0.0, 0.0], [0.0, 0.0]], NonPositiveDeterminantError, "det F = 0"),
            ([[1.0, 0.0], [0.0, 0.5e-14]], SingularMatrixError, "condition number"),
            ([[1e200, 1e200], [1e200, 1.000000000000002e200]], SingularMatrixError, "condition number"),
            ([[1.0, np.nan], [0.0, 1.0]], ValueError, "non-finite"),
            ([[np.inf, 0.0], [0.0, 1.0]], ValueError, "non-finite"),
        ],
    )
    def test_named_errors_are_not_remembered(self, planar_calls, F, error, match):
        for _ in range(2):
            with pytest.raises(error, match=match):
                stretch_spectrum(np.array(F))
        assert len(planar_calls) == 2
        good = np.array([[1.5, 0.4], [-0.2, 0.8]])
        assert np.array_equal(stretch_spectrum(good)[1], matcore._planar_svd(*good.ravel().tolist())[1])

    @staticmethod
    def _spd_inputs():
        draws = [F @ F.T for F in _gl_plus_draws(1000, 103)]
        rng = np.random.default_rng(107)
        for _ in range(40):
            Q = rot2(rng.uniform(-math.pi, math.pi))
            w = rng.uniform(0.2, 5.0, size=2)
            draws += [
                rng.uniform(0.1, 10.0) * np.eye(2),
                np.diag(w),
                sym_part(np.eye(2) + 1e-6 * rng.standard_normal((2, 2))),
                sym_part(Q @ np.diag([w[0], w[0] * 10.0 ** -rng.uniform(13.0, 13.9)]) @ Q.T),
                10.0 ** rng.choice([-200, 200]) * sym_part(Q @ np.diag(w) @ Q.T),
            ]
        return draws

    def test_eigh_matches_lapack(self):
        for P in self._spd_inputs():
            (a, b), (c, d) = P.tolist()
            w, V = matcore._planar_eigh(a, (b + c) / 2.0, d)
            w_ref = np.linalg.eigvalsh(P)
            assert w[0] <= w[1]
            assert np.all(np.abs(w - w_ref) <= 8.0 * EPS * w_ref[1]), P.tolist()
            assert np.max(np.abs(V @ (w[:, None] * V.T) - P)) <= 4.0 * EPS * w_ref[1], P.tolist()
            assert abs(np.linalg.det(V) - 1.0) <= 2.0 * EPS
            assert np.max(np.abs(V.T @ V - np.eye(2))) <= 2.0 * EPS

    def test_diagonal_spd_keeps_an_exact_frame(self):
        for P in (np.diag([2.0, 5.0]), np.diag([5.0, 2.0]), 3.0 * np.eye(2)):
            assert np.array_equal(principal_log_spd(P), np.diag(np.log(np.diag(P))))

    @pytest.mark.parametrize(
        "P",
        [
            [[1.0, 2.0], [2.0, 1.0]],  # indefinite
            [[1.0, 1.0], [1.0, 1.0]],  # semidefinite
            [[1.0, 0.0], [0.0, 0.0]],
            [[-1.0, 0.0], [0.0, -2.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[1e200, 0.0], [0.0, -1e-200]],
        ],
    )
    def test_not_spd_is_named(self, P):
        for spd_form in (principal_log_spd, sqrt_spd, lambda U: seth_hill(U, 0.5)):
            with pytest.raises(NotSPDError, match="non-positive eigenvalue"):
                spd_form(np.array(P))


class TestPlanarAssembly:
    """R diag(x, y) R^T written out for 2x2 rotation frames (the polar
    stretches and the Kirchhoff stress) against matmul and sym_part in the
    same frame, and the SPD functions on the planar eigenframe: a few eps of
    max |x|, and exactly symmetric."""

    MODELS = (
        MaterialModel(kind="hencky", mu=0.5, kappa=1.5),
        MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3),
    )

    @staticmethod
    def _assert_assembled(X, V, x):
        assert np.array_equal(X, X.T)
        reference = sym_part(V @ (np.asarray(x, dtype=float)[:, None] * V.T))
        assert np.max(np.abs(X - reference)) <= 4.0 * EPS * max(abs(v) for v in x), (X, reference)

    def test_polar_stretches(self):
        for F in TestPlanarKernels.SVD_INPUTS:
            A, s, B = stretch_spectrum(F)
            pol = polar_decompose(F)
            self._assert_assembled(pol.right_stretch, B, s)
            self._assert_assembled(pol.left_stretch, A, s)
            assert pol.right_stretch.flags.writeable and pol.left_stretch.flags.writeable

    def test_kirchhoff_stresses(self):
        overflows = 0
        for F in TestPlanarKernels.SVD_INPUTS:
            A, s, _ = stretch_spectrum(F)
            for model in self.MODELS:
                try:
                    tau = principal_kirchhoff(model, np.log(s).tolist())
                    finite = all(math.isfinite(t + t) for t in tau)
                except OverflowError:
                    finite = False
                if not finite:  # the exponentiated energy at 1e+-200 F
                    overflows += 1
                    with pytest.raises(OverflowError, match="^Kirchhoff stress overflows double precision$"):
                        kirchhoff_stress(model, F)
                    continue
                self._assert_assembled(kirchhoff_stress(model, F), A, tau)
        assert 0 < overflows < len(TestPlanarKernels.SVD_INPUTS)

    def test_spd_functions(self):
        for P in TestPlanarKernels._spd_inputs():
            (a, b), (c, d) = P.tolist()
            w, V = matcore._planar_eigh(a, (b + c) / 2.0, d)
            self._assert_assembled(principal_log_spd(P), V, np.log(w))
            self._assert_assembled(sqrt_spd(P), V, np.sqrt(w))

    @pytest.mark.parametrize("n", [2, 3])
    def test_entries_near_the_double_range_do_not_overflow(self, n):
        P = np.diag([1e308] + [1.0] * (n - 1))
        expected = np.diag([math.log(1e308)] + [0.0] * (n - 1))
        assert np.max(np.abs(principal_log_spd(P) - expected)) <= 4.0 * EPS * math.log(1e308)
        X = np.full((n, n), 1.5e308)
        assert np.array_equal(sym_part(X), X)
        W = np.triu(X, 1) - np.tril(X, -1)
        assert np.array_equal(skew_part(W), W)


class TestSqrtSpd:
    def test_identity(self):
        assert np.allclose(sqrt_spd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13)

    def test_shear_metric_tensor(self):
        C = F_SHEAR.T @ F_SHEAR
        assert np.allclose(sqrt_spd(C), U_SHEAR, atol=1e-12)

    def test_square_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            A = random_matrix(rng, 3)
            P = A @ A.T + 0.5 * np.eye(3)
            S = sqrt_spd(P)
            assert is_spd(S)
            assert np.max(np.abs(S @ S - P)) < 1e-11 * max(1.0, np.max(np.abs(P)))

    def test_rejects_non_spd(self):
        with pytest.raises(NotSPDError):
            sqrt_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSPDError):
            sqrt_spd(np.diag([1.0, -2.0]))


class TestMatExp:
    def test_zero(self):
        assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        E = mat_exp(np.diag([1.0, -1.0]))
        assert np.allclose(E, np.diag([math.e, 1.0 / math.e]), atol=1e-14)

    def test_planar_skew_gives_rotation(self):
        for theta in (0.1, 1.0, 2.5, -1.7):
            W = np.array([[0.0, theta], [-theta, 0.0]])
            expected = np.array(
                [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
            )
            assert np.max(np.abs(mat_exp(W) - expected)) < 1e-13

    def test_semigroup_identity(self):
        # an exact solution of E' = X E satisfies E(1) = E(1/2)^2; this is the
        # defining-ODE consistency check at machine accuracy
        rng = np.random.default_rng(37)
        for n in (2, 3):
            for _ in range(25):
                X = random_matrix(rng, n)
                X *= rng.uniform(0.1, 10.0) / max(np.linalg.norm(X), 1e-12)
                E = mat_exp(X)
                H = mat_exp(X / 2.0)
                rel = np.max(np.abs(H @ H - E)) / max(np.max(np.abs(E)), 1.0)
                assert rel < 1e-12

    def test_against_independent_library(self):
        rng = np.random.default_rng(41)
        for n in (2, 3):
            for _ in range(25):
                X = random_matrix(rng, n)
                X *= rng.uniform(0.1, 10.0) / max(np.linalg.norm(X), 1e-12)
                E = mat_exp(X)
                E_ref = sla.expm(X)
                rel = np.max(np.abs(E - E_ref)) / max(np.max(np.abs(E_ref)), 1.0)
                assert rel < 1e-12

    def test_overflow(self):
        with pytest.raises(OverflowError):
            mat_exp(np.diag([1000.0, 1000.0]))
        with pytest.raises(OverflowError):
            mat_exp(np.array([[800.0, 1.0], [0.0, 790.0]]))


class TestPrincipalLogSpd:
    def test_identity(self):
        assert np.allclose(principal_log_spd(np.eye(3)), 0.0, atol=1e-14)

    def test_diagonal(self):
        L = principal_log_spd(np.diag([math.e ** 2, 1.0]))
        assert np.allclose(L, np.diag([2.0, 0.0]), atol=1e-13)

    def test_shear_stretch_frozen_log(self):
        assert np.allclose(principal_log_spd(U_SHEAR), LOGU_SHEAR, atol=1e-12)

    def test_exp_roundtrip(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            A = random_matrix(rng, 3)
            P = A @ A.T + 0.3 * np.eye(3)
            L = principal_log_spd(P)
            assert is_symmetric(L)
            rel = np.max(np.abs(mat_exp(L) - P)) / max(1.0, np.max(np.abs(P)))
            assert rel < 1e-10

    def test_rejects_non_spd(self):
        with pytest.raises(NotSPDError):
            principal_log_spd(np.diag([1.0, 0.0]))
        with pytest.raises(NotSPDError):
            principal_log_spd(np.array([[1.0, 0.3], [0.0, 1.0]]))


class TestPrincipalLogRotation:
    def test_identity(self):
        for n in (2, 3):
            assert np.allclose(principal_log_rotation(np.eye(n)), 0.0, atol=1e-14)

    def test_planar_quarter_turn(self):
        W = principal_log_rotation(rot2(math.pi / 2))
        assert np.allclose(W, [[0.0, -math.pi / 2], [math.pi / 2, 0.0]], atol=1e-14)

    def test_z_axis_rotation(self):
        W = principal_log_rotation(rot3([0, 0, 1], 0.3))
        expected = np.array([[0.0, -0.3, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(W, expected, atol=1e-13)

    @pytest.mark.parametrize("theta", [1e-9, 1e-5, 0.5, 2.0, 3.05, math.pi - 1e-3])
    def test_roundtrip_various_angles(self, theta):
        rng = np.random.default_rng(47)
        for _ in range(5):
            axis = rng.standard_normal(3)
            Q = rot3(axis, theta)
            W = principal_log_rotation(Q)
            assert is_skew(W)
            assert np.max(np.abs(mat_exp(W) - Q)) < 1e-9

    def test_angle_pi_rejected(self):
        with pytest.raises(AngleAtPiError):
            principal_log_rotation(-np.eye(2))
        with pytest.raises(AngleAtPiError):
            principal_log_rotation(np.diag([1.0, -1.0, -1.0]))

    def test_general_dimension_spectral(self):
        W4 = np.zeros((4, 4))
        W4[0, 1], W4[1, 0] = -0.9, 0.9
        W4[2, 3], W4[3, 2] = 1.4, -1.4
        Q = mat_exp(W4)
        W_rec = principal_log_rotation(Q)
        assert np.max(np.abs(W_rec - W4)) < 1e-10

    def test_general_dimension_angle_pi_rejected(self):
        Q = np.diag([1.0, 1.0, -1.0, -1.0])
        with pytest.raises(AngleAtPiError):
            principal_log_rotation(Q)

    def test_non_rotation_rejected(self):
        with pytest.raises(ValueError):
            principal_log_rotation(np.diag([2.0, 0.5]))


class TestLogExpRules:
    def test_log_exp_roundtrip_symmetric(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            S = sym_part(random_matrix(rng, 3))
            S *= rng.uniform(0.1, 5.0) / max(np.linalg.norm(S), 1e-12)
            S_rec = principal_log_spd(mat_exp(S))
            assert np.max(np.abs(S_rec - S)) < 1e-9

    def test_det_exp_equals_exp_trace(self):
        rng = np.random.default_rng(59)
        for n in (2, 3):
            for _ in range(25):
                X = random_matrix(rng, n)
                X *= rng.uniform(0.1, 3.0) / max(np.linalg.norm(X), 1e-12)
                lhs = float(np.linalg.det(mat_exp(X)))
                rhs = math.exp(float(np.trace(X)))
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_exp_of_deviator(self):
        rng = np.random.default_rng(61)
        for n in (2, 3):
            for _ in range(25):
                X = random_matrix(rng, n)
                X *= rng.uniform(0.1, 3.0) / max(np.linalg.norm(X), 1e-12)
                dev = X - np.trace(X) / n * np.eye(n)
                lhs = mat_exp(dev)
                rhs = math.exp(-np.trace(X) / n) * mat_exp(X)
                assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_log_of_scaled_identity(self):
        for c in (0.2, 1.0, 7.5):
            L = principal_log_spd(c * np.eye(3))
            assert np.allclose(L, math.log(c) * np.eye(3), atol=1e-13)

    def test_log_of_unimodular_scaling(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            A = random_matrix(rng, 3)
            P = A @ A.T + 0.4 * np.eye(3)
            detP = float(np.linalg.det(P))
            lhs = principal_log_spd(detP ** (-1.0 / 3.0) * P)
            L = principal_log_spd(P)
            rhs = L - np.trace(L) / 3.0 * np.eye(3)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestPredicates:
    def test_symmetric_and_skew(self):
        assert is_symmetric(np.eye(3))
        assert not is_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert is_skew(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not is_skew(np.eye(2))

    def test_spd(self):
        assert is_spd(np.diag([1.0, 2.0]))
        assert not is_spd(np.diag([1.0, -2.0]))
        assert not is_spd(np.array([[1.0, 3.0], [0.0, 1.0]]))

    def test_rotation(self):
        assert is_rotation(rot2(1.2))
        assert is_rotation(rot3([1, 1, 0], -0.4))
        assert not is_rotation(np.diag([1.0, -1.0]))  # orthogonal, det -1
        assert not is_rotation(2.0 * np.eye(2))

    def test_metric_params_validation(self):
        with pytest.raises(ValueError):
            MetricParams(mu=0.0)
        with pytest.raises(ValueError):
            MetricParams(kappa=-1.0)
        with pytest.raises(ValueError):
            MetricParams(mu_c=0.0)

    @pytest.mark.parametrize("kwargs", [{"mu": 0.0}, {"mu_c": -1.0}, {"kappa": 0.0}])
    def test_metric_params_raise_the_named_parameter_error(self, kwargs):
        with pytest.raises(ParameterOutOfRangeError) as info:
            MetricParams(**kwargs)
        assert isinstance(info.value, ValueError)
