"""Property tests of the closed forms on hard inputs.

The closed forms share one SVD per F through the stretch-spectrum memo
(matcore._spectrum_of). Whether a call finds the spectrum remembered, finds
it forgotten, or follows a call on another F, it must return the same bits.
The draws cover generic F, repeated singular values, F near a rotation and
F scaled by 1e+-150, in two and three dimensions.

The principal log of a rotation is checked against 50-digit references at
hard angles: tiny, near pi, repeated over several planes, and distinct
but all near pi.

The squared distance, the two logarithmic measures, every energy and the
Kirchhoff and Cauchy stresses of the logarithmic energies are checked
against 50-digit references at repeated singular values, singular values
1 +- 1e-8, condition numbers near matcore.COND_LIMIT and F scaled by
1e+-150; a value past the double range must raise OverflowError.
"""

import math

import numpy as np
import pytest

from geolog.constitutive import (
    MaterialModel,
    cauchy_stress,
    energy,
    kirchhoff_stress,
    shield_transform,
)
from geolog.geodesy import (
    cofactor,
    dist_cof_squared_to_SO,
    dist_squared_to_SO,
    euclid_dist_to_SO,
    omega_iso,
    omega_vol,
)
from geolog.matcore import (
    COND_LIMIT,
    AngleAtPiError,
    MetricParams,
    _spectrum_of,
    polar_decompose,
    principal_log_rotation,
)

METRIC = MetricParams(mu=2.0, mu_c=1.0, kappa=0.5)
HENCKY = MaterialModel(kind="hencky", mu=0.5, kappa=1.5)
EXP_HENCKY = MaterialModel(kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3)
BIOT = MaterialModel(kind="biot_linear", mu=0.5, kappa=1.5)


def _report(r):
    return r.squared_distance, r.minimizer


def _polar(pol):
    return pol.rotation, pol.right_stretch, pol.left_stretch


CLOSED_FORMS = {
    "dist_squared_to_SO": lambda F: _report(dist_squared_to_SO(F, METRIC)),
    "omega_iso": omega_iso,
    "omega_vol": omega_vol,
    "euclid_dist_to_SO": lambda F: _report(euclid_dist_to_SO(F)),
    "dist_cof_squared_to_SO": lambda F: dist_cof_squared_to_SO(F, METRIC),
    "cofactor": cofactor,
    "polar_decompose": lambda F: _polar(polar_decompose(F)),
    "energy.hencky": lambda F: energy(HENCKY, F),
    "energy.exp_hencky": lambda F: energy(EXP_HENCKY, F),
    "energy.biot_linear": lambda F: energy(BIOT, F),
    "kirchhoff.hencky": lambda F: kirchhoff_stress(HENCKY, F),
    "kirchhoff.exp_hencky": lambda F: kirchhoff_stress(EXP_HENCKY, F),
    "cauchy.hencky": lambda F: cauchy_stress(kirchhoff_stress(HENCKY, F), F),
    "shield.hencky": lambda F: shield_transform(HENCKY, F),
}


def _bits(value):
    """The exact bits of a result: a float, an array or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return np.asarray(value, dtype=float).tobytes()


def _outcome(form, F):
    """The bits of form(F), or the named error it raised."""
    try:
        return _bits(form(F))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _rotation(n, angles):
    if n == 2:
        c, s = math.cos(angles[0]), math.sin(angles[0])
        return np.array([[c, -s], [s, c]])
    axis = np.array([math.cos(angles[1]) * math.sin(angles[2]),
                     math.sin(angles[1]) * math.sin(angles[2]),
                     math.cos(angles[2])])
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angles[0]) * K + (1.0 - math.cos(angles[0])) * (K @ K)


def _hard_F(kind, n, entries, angles, stretches, exponent):
    """One F of the given kind from the drawn numbers (see the module docstring)."""
    P, Q = _rotation(n, angles[:3]), _rotation(n, angles[3:])
    if kind == "generic":
        return np.array(entries[: n * n]).reshape(n, n) + 2.5 * np.eye(n)
    if kind == "repeated":
        s = [stretches[0], stretches[0], stretches[2]][:n]
        return P @ np.diag(s) @ Q.T
    if kind == "near_rotation":
        return P + 1e-6 * np.array(entries[: n * n]).reshape(n, n)
    return 10.0 ** exponent * (P @ np.diag(stretches[:n]) @ Q.T)  # "scaled"


def test_closed_forms_of_one_F_share_one_svd(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    _spectrum_of.cache_clear()
    F = np.array([[1.2, 0.3, -0.1], [0.2, 0.9, 0.4], [0.05, -0.3, 1.4]])
    for name, form in CLOSED_FORMS.items():
        if name != "shield.hencky":  # decomposes F^{-1}, another matrix
            form(F)
    assert len(calls) == 1


def test_closed_forms_give_the_same_bits_on_a_hit_a_miss_and_after_another_F():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(
        st.sampled_from(("generic", "repeated", "near_rotation", "scaled")),
        st.sampled_from((2, 3)),
        st.lists(unit, min_size=9, max_size=9),
        st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6),
        st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
        st.sampled_from((-150, 150)),
    )
    def check(kind, n, entries, angles, stretches, exponent):
        F = _hard_F(kind, n, entries, angles, stretches, exponent)
        other = 2.0 * F + np.eye(n)
        for name, form in CLOSED_FORMS.items():
            _spectrum_of.cache_clear()
            miss = _outcome(form, F)
            _outcome(form, F.copy())  # remembers F's spectrum, unless F is rejected
            hit = _outcome(form, F)
            _outcome(form, other)
            after_other = _outcome(form, F)
            assert hit == miss, (name, kind, F.tolist())
            assert after_other == miss, (name, kind, F.tolist())

    check()


# (n, number of planes turned by the same angle)
PLANE_LAYOUTS = [(2, 1), (3, 1), (4, 2), (6, 3)]


def _theta(mpmath, angle):
    """An angle given as a number, "pi" or "pi-d" for pi - d, at working precision."""
    return mpmath.pi - mpmath.mpf(angle[3:] or 0) if angle.startswith("pi") else mpmath.mpf(angle)


def _planted_rotation(n, angles):
    """A rotation of R^n turning its first planes by `angles` (see _theta) in a
    fixed oblique frame, rounded to doubles, and its principal log, both from
    50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        A = mpmath.zeros(n, n)  # skew, so its Cayley transform P is orthogonal
        for i in range(n):
            for j in range(i + 1, n):
                A[i, j] = mpmath.mpf((3 * i + 5 * j) % 7 - 3) / 5
                A[j, i] = -A[i, j]
        P = mpmath.inverse(mpmath.eye(n) - A) * (mpmath.eye(n) + A)
        R, W = mpmath.eye(n), mpmath.zeros(n, n)
        for b, angle in enumerate(angles):
            theta = _theta(mpmath, angle)
            i, j = 2 * b, 2 * b + 1
            R[i, i] = R[j, j] = mpmath.cos(theta)
            R[j, i], R[i, j] = mpmath.sin(theta), -mpmath.sin(theta)
            W[j, i], W[i, j] = theta, -theta
        return tuple(np.array((P * X * P.T).tolist(), dtype=float) for X in (R, W))


@pytest.mark.parametrize("angle", ["1e-9", "1e-4", "0.5", "3.0", "pi-1e-6", "pi-1e-9", "pi-5e-10"])
@pytest.mark.parametrize("n,planes", PLANE_LAYOUTS)
def test_rotation_log_at_hard_angles(n, planes, angle):
    Q, W = _planted_rotation(n, (angle,) * planes)
    assert float(np.max(np.abs(principal_log_rotation(Q) - W))) <= 1e-13


@pytest.mark.parametrize("angle", ["pi-5e-11", "pi"])
@pytest.mark.parametrize("n,planes", PLANE_LAYOUTS)
def test_rotation_log_rejects_angles_at_pi(n, planes, angle):
    Q, _ = _planted_rotation(n, (angle,) * planes)
    with pytest.raises(AngleAtPiError):
        principal_log_rotation(Q)


@pytest.mark.parametrize(
    "n,angles",
    [
        (4, ("pi-1e-6", "pi-2e-6")),
        (5, ("pi-1e-9", "pi-2e-9")),
        (6, ("pi-1e-9", "pi-1e-6", "pi-1e-3")),
        (8, ("0.3", "pi-1e-6", "pi-2e-6", "1e-9")),
    ],
)
def test_rotation_log_splits_distinct_angles_near_pi(n, angles):
    # The cosines of planes at pi - d1 and pi - d2 differ only by about
    # (d2^2 - d1^2) / 2, so a split by cos theta mixes them. The log itself is
    # conditioned like 2 pi u / (d1 + d2) there (u the unit roundoff), and the
    # result must be that accurate.
    Q, W = _planted_rotation(n, angles)
    d = sorted(float(angle[3:]) for angle in angles if angle.startswith("pi-"))
    tol = 2.0 * math.pi * (np.finfo(float).eps / 2.0) / (d[0] + d[1])
    assert float(np.max(np.abs(principal_log_rotation(Q) - W))) <= tol


SVK = MaterialModel(kind="svk", mu=0.5, kappa=1.5)
EXP_HENCKY_NORMALIZED = MaterialModel(
    kind="exp_hencky", mu=0.5, kappa=1.5, k=0.8, khat=0.3, normalized=True
)
EPS = float(np.finfo(float).eps)


def _potential(mp, mu, kappa, e):
    mean = mp.fsum(e) / len(e)
    return mu * mp.fsum((x - mean) ** 2 for x in e) + kappa / 2 * mp.fsum(e) ** 2


def _exp_hencky(mp, model, l):
    mean = mp.fsum(l) / len(l)
    grow = mp.expm1 if model.normalized else mp.exp
    iso = model.mu * grow(model.k * mp.fsum((x - mean) ** 2 for x in l)) / model.k
    return iso + model.kappa * grow(model.khat * mp.fsum(l) ** 2) / (2 * model.khat)


# name: (closed form of F, its value from the singular values s at working precision)
SPECTRAL_FORMS = {
    "dist_squared_to_SO": (
        lambda F: dist_squared_to_SO(F, METRIC).squared_distance,
        lambda mp, s: _potential(mp, METRIC.mu, METRIC.kappa, [mp.log(x) for x in s]),
    ),
    "omega_iso": (omega_iso, lambda mp, s: mp.sqrt(_potential(mp, 1, 0, [mp.log(x) for x in s]))),
    "omega_vol": (omega_vol, lambda mp, s: abs(mp.fsum(mp.log(x) for x in s))),
    "energy.hencky": (
        lambda F: energy(HENCKY, F),
        lambda mp, s: _potential(mp, HENCKY.mu, HENCKY.kappa, [mp.log(x) for x in s]),
    ),
    "energy.exp_hencky": (
        lambda F: energy(EXP_HENCKY, F),
        lambda mp, s: _exp_hencky(mp, EXP_HENCKY, [mp.log(x) for x in s]),
    ),
    "energy.exp_hencky.normalized": (
        lambda F: energy(EXP_HENCKY_NORMALIZED, F),
        lambda mp, s: _exp_hencky(mp, EXP_HENCKY_NORMALIZED, [mp.log(x) for x in s]),
    ),
    "energy.biot_linear": (
        lambda F: energy(BIOT, F),
        lambda mp, s: _potential(mp, BIOT.mu, BIOT.kappa, [x - 1 for x in s]),
    ),
    "energy.svk": (
        lambda F: energy(SVK, F),
        lambda mp, s: _potential(mp, SVK.mu, SVK.kappa, [(x * x - 1) / 2 for x in s]),
    ),
}


def _reference(mp, value_of, s):
    """The 50-digit value of a spectral form at singular values s, and its
    tolerance: how far the value moves when one log-stretch log s_i moves
    by delta_i = 8 eps s_0 / s_i + 4 eps max_j |log s_j| either way, summed
    over i, plus 16 eps of the value. The first term of delta_i is the
    backward error of the SVD, which gets each s_i only to about
    eps s_0 (as in bench/reference.py); the second covers the rounding of
    log s_i and of the sums over the log-stretches; 16 eps covers the
    rounding of the final few operations."""
    value = value_of(mp, s)
    reach = 4 * EPS * max(abs(mp.log(x)) for x in s)
    tol = 16 * EPS * abs(value)
    for i in range(len(s)):
        delta = 8 * EPS * s[0] / s[i] + reach
        moved = (value_of(mp, s[:i] + [s[i] * mp.exp(sign * delta)] + s[i + 1:]) for sign in (1, -1))
        tol += max(abs(m - value) for m in moved)
    return value, tol


def _spectral_F(kind, n, angles, a, b, c):
    """F = P diag(s) Q^T of one hard kind, from numbers a, b, c in [0, 1]."""
    P, Q = _rotation(n, angles[:3]), _rotation(n, angles[3:])
    if kind == "repeated":
        s = [10.0 ** (2 * a - 1)] * 2 + [10.0 ** (2 * b - 1)]
    elif kind == "near_one":
        s = [1.0 + 1e-8 * (2 * x - 1) for x in (a, b, c)]
    elif kind == "ill_conditioned":  # cond 10^12.5 to 10^13.7
        top, span = 2 * a - 1, 12.5 + 1.2 * b
        s = [10.0 ** top, 10.0 ** (top - c * span), 10.0 ** (top - span)]
        s = s[:1] + s[2:] if n == 2 else s
    else:  # "scaled": 1e+-150 times a repeated or generic spectrum
        s = [10.0 ** (150 * (1 if c > 0.5 else -1) + a - 0.5)] * 3
        s[-1] *= 10.0 ** (b - 0.5)
        s[0] *= 10.0 ** ((c % 0.5) - 0.25)
    return P @ np.diag(s[:n]) @ Q.T


def test_spectral_forms_match_50_digit_references_on_hard_inputs():
    pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    from hypothesis import given, settings, strategies as st

    unit = st.floats(0.0, 1.0)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        st.sampled_from(("repeated", "near_one", "ill_conditioned", "scaled")),
        st.sampled_from((2, 3)),
        st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6),
        unit, unit, unit,
    )
    def check(kind, n, angles, a, b, c):
        F = _spectral_F(kind, n, angles, a, b, c)
        with mpmath.workdps(50):
            s = sorted(mpmath.svd_r(mpmath.matrix(F.tolist()), compute_uv=False), reverse=True)
            assert s[0] / s[-1] < COND_LIMIT
            for name, (form, value_of) in SPECTRAL_FORMS.items():
                ref, tol = _reference(mpmath, value_of, list(s))
                try:
                    value = form(F)
                except OverflowError:
                    assert ref + tol > np.finfo(float).max, (name, kind, F.tolist())
                else:
                    assert abs(value - ref) <= tol, (name, kind, F.tolist(), value, ref, tol)

    check()


def _principal_tau(mp, model, l):
    """Principal Kirchhoff stresses of a logarithmic model at log-stretches l."""
    t = mp.fsum(l)
    dev = [x - t / len(l) for x in l]
    gain_iso = gain_vol = 1
    if model.kind == "exp_hencky":
        gain_iso = mp.exp(model.k * mp.fsum(d * d for d in dev))
        gain_vol = mp.exp(model.khat * t * t)
    return [2 * model.mu * gain_iso * d + model.kappa * gain_vol * t for d in dev]


# name: (stress of F, its principal values from the log-stretches l at working precision)
STRESS_FORMS = {
    "kirchhoff.hencky": (
        lambda F: kirchhoff_stress(HENCKY, F),
        lambda mp, l: _principal_tau(mp, HENCKY, l),
    ),
    "kirchhoff.exp_hencky": (
        lambda F: kirchhoff_stress(EXP_HENCKY, F),
        lambda mp, l: _principal_tau(mp, EXP_HENCKY, l),
    ),
    "cauchy.hencky": (
        lambda F: cauchy_stress(kirchhoff_stress(HENCKY, F), F),
        lambda mp, l: [x * mp.exp(-mp.fsum(l)) for x in _principal_tau(mp, HENCKY, l)],
    ),
    "cauchy.exp_hencky": (
        lambda F: cauchy_stress(kirchhoff_stress(EXP_HENCKY, F), F),
        lambda mp, l: [x * mp.exp(-mp.fsum(l)) for x in _principal_tau(mp, EXP_HENCKY, l)],
    ),
}


def _stress_reference(mp, principal_of, s, P):
    """The 50-digit stress P diag(g(s)) P^T of F = P diag(s) Q^T, with g the
    principal values of a STRESS_FORMS entry, and its tolerance on every
    entry, from the backward error of the SVD that the stress is computed
    from: F + E = A' diag(s') B'^T with ||E|| <= 8 eps s_0.

    - In s: each log s_i moves by delta_i = 8 eps s_0 / s_i + 4 eps
      max_j |log s_j|, either way, as in _reference; the tensor moves by the
      largest change of a principal value, summed over i.
    - In the frame: E turns the left frame in the plane of i and j by up to
      8 eps s_0 / |s_i - s_j| (Wedin's bound), which moves P diag(g) P^T
      by that angle times |g_i - g_j|, summed over i < j.  Where s_i = s_j,
      g_i = g_j and the turn moves nothing.
    - 16 n eps max |g_i| covers the rounding of the principal values, the
      assembly and the frame's orthogonality, and (1 + max |g|) 2^-1074 the
      spacing of subnormal results, as where 1 / det F underflows."""
    n = len(s)
    l = [mp.log(x) for x in s]
    g = principal_of(mp, l)
    reach = 4 * EPS * max(abs(x) for x in l)
    tol = 16 * n * EPS * max(abs(x) for x in g) + (1 + max(abs(x) for x in g)) * mp.mpf(2) ** -1074
    for i in range(n):
        delta = 8 * EPS * s[0] / s[i] + reach
        moved = (principal_of(mp, l[:i] + [l[i] + sign * delta] + l[i + 1:]) for sign in (1, -1))
        tol += max(abs(a - b) for m in moved for a, b in zip(m, g))
        for j in range(i + 1, n):
            if s[i] != s[j]:
                tol += 8 * EPS * s[0] * abs(g[i] - g[j]) / abs(s[i] - s[j])
    reference = P * mp.diag(g) * P.T
    return reference, tol, max(abs(x) for x in g)


def test_stresses_match_50_digit_references_on_hard_inputs():
    pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    from hypothesis import given, settings, strategies as st

    unit = st.floats(0.0, 1.0)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(
        st.sampled_from(("repeated", "near_one", "ill_conditioned", "scaled")),
        st.sampled_from((2, 3)),
        st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6),
        unit, unit, unit,
    )
    def check(kind, n, angles, a, b, c):
        F = _spectral_F(kind, n, angles, a, b, c)
        with mpmath.workdps(50):
            P, S, _ = mpmath.svd_r(mpmath.matrix(F.tolist()))
            order = sorted(range(n), key=lambda i: -S[i])
            s = [S[i] for i in order]
            P = mpmath.matrix([[P[r, i] for i in order] for r in range(n)])
            for name, (form, principal_of) in STRESS_FORMS.items():
                ref, tol, top = _stress_reference(mpmath, principal_of, s, P)
                try:
                    value = form(F)
                except OverflowError:  # twice a principal stress is past the range
                    assert 2 * top + tol > np.finfo(float).max, (name, kind, F.tolist())
                else:
                    gap = max(abs(value[i, j] - ref[i, j]) for i in range(n) for j in range(n))
                    assert gap <= tol, (name, kind, F.tolist(), gap, tol)

    check()


@pytest.mark.parametrize("model", [BIOT, SVK, HENCKY, EXP_HENCKY], ids=lambda m: m.kind)
def test_energy_past_the_double_range_raises(model):
    # 1e160 id: the Biot energy is about 5e320 and the svk one about 1e641;
    # the logarithmic ones stay finite (hencky) or overflow in exp (exp_hencky).
    # The spread diagonals overflow a squared strain deviator in Python's
    # float **, which raises before the sum could reach inf
    F = 1e160 * np.eye(3)
    spread = {"svk": np.diag([1e150, 1e140, 1e145]), "biot_linear": np.diag([1e300, 1e290, 1e295])}
    if model.kind == "hencky":
        assert energy(model, F) == pytest.approx(1.5 * 0.5 * (3 * 160 * math.log(10)) ** 2, rel=1e-14)
        return
    for G in [F] + ([spread[model.kind]] if model.kind in spread else []):
        with pytest.raises(OverflowError, match=f"^{model.kind} energy overflows double precision$"):
            energy(model, G)


@pytest.mark.parametrize("log_stretch", [9.4, 9.3952])
def test_kirchhoff_stress_past_the_double_range_raises(log_stretch):
    # at 9.4 the energy is 2.47e306, but 2 mu exp(k ||dev log U||^2) dev_i is
    # not finite; at 9.3952 it is 9.0e307, and twice it, as the symmetrization
    # of the stress tensor adds it to itself, is not
    model = MaterialModel(kind="exp_hencky", mu=1.0, kappa=1.0, k=4.0, khat=0.5)
    F = np.diag([math.exp(log_stretch), math.exp(-log_stretch)])
    assert math.isfinite(energy(model, F))
    with pytest.raises(OverflowError):
        kirchhoff_stress(model, F)
