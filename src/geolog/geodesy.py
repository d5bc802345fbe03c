"""Geodesics and distances on the matrix groups of finite elasticity.

This module carries the Riemannian side of the library: geodesic curves of
the weighted left-invariant metric on the group of orientation-preserving
invertible matrices, the closed-form squared geodesic distance from a
deformation gradient to the rotation group, the isochoric and volumetric
logarithmic strain measures that the distance factors into, and the
neighbouring distances used for comparison (Euclidean distance to the
rotation group, geodesic distances on the rotation and conformal groups, and
the trace-metric and Log-Euclidean distances on the positive definite cone).

The closed forms only ever see the stretch spectrum, so every distance and
measure of F here is scalar work on the log singular values of one record
of F (matcore.spectral_record: one SVD, its log-stretches as floats and its
polar rotation, each formed once per F), with the two matrix exponentials of
the geodesic curve as the only transcendental matrix functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    Mat,
    MetricParams,
    as_square,
    is_rotation,
    is_spd,
    log_invariants,
    mat_exp,
    principal_log_rotation,
    principal_log_spd,
    quadratic_potential,
    require_gl_plus,
    skew_part,
    spd_function,
    spectral_record,
    stretch_spectrum,
    sym_part,
    weighted_inner,
    weighted_norm,
)

__all__ = [
    "GeodesicSegment",
    "DistanceReport",
    "geodesic_point",
    "geodesic_velocity",
    "geodesic_residual",
    "geodesic_length",
    "dist_squared_to_SO",
    "omega_iso",
    "omega_vol",
    "dist_cof_squared_to_SO",
    "cofactor",
    "euclid_dist_to_SO",
    "dist_SO",
    "dist_CSO",
    "dist_psym_trace_metric",
    "dist_log_euclidean",
    "dist_gl_commuting",
    "psym_geodesic_point",
    "linear_dist_to_so",
]


@dataclass(frozen=True)
class GeodesicSegment:
    """A geodesic through ``base`` with initial velocity ``base @ tangent_param``.

    The curve is evaluated by :func:`geodesic_point`; its length over the
    parameter interval [0, 1] equals the weighted norm of ``tangent_param``.
    """

    base: Mat
    tangent_param: Mat
    params: MetricParams

    def __post_init__(self) -> None:
        require_gl_plus(self.base, "base")
        as_square(self.tangent_param, "tangent_param")


@dataclass(frozen=True)
class DistanceReport:
    """A squared distance together with the minimizing element, when known."""

    squared_distance: float
    minimizer: "Mat | None"
    method: str

    def __post_init__(self) -> None:
        if self.squared_distance < 0.0:
            raise ValueError("squared distance cannot be negative")
        if self.method not in ("closed_form", "numeric"):
            raise ValueError(f"unknown method label {self.method!r}")

    @property
    def distance(self) -> float:
        return math.sqrt(self.squared_distance)


def _generators(seg: GeodesicSegment) -> tuple[Mat, Mat]:
    """The two exponential generators of the closed-form geodesic curve."""
    xi = seg.tangent_param
    a = seg.params.mu_c / seg.params.mu
    S = sym_part(xi)
    W = skew_part(xi)
    return S - a * W, (1.0 + a) * W


def geodesic_point(seg: GeodesicSegment, t: float) -> Mat:
    """Point gamma(t) = F exp(t (sym xi - a skew xi)) exp(t (1 + a) skew xi), a = mu_c/mu."""
    A, B = _generators(seg)
    return seg.base @ mat_exp(t * A) @ mat_exp(t * B)


def geodesic_velocity(seg: GeodesicSegment, t: float) -> Mat:
    """Exact derivative of the geodesic curve at parameter t."""
    A, B = _generators(seg)
    EA = mat_exp(t * A)
    EB = mat_exp(t * B)
    return seg.base @ (EA @ A @ EB + EA @ EB @ B)


def geodesic_residual(seg: GeodesicSegment, t_grid, h: float) -> float:
    """Maximal defect of the geodesic equation along the curve, by central differences.

    At every grid parameter t the left-translated velocity
    zeta(t) = gamma(t)^{-1} gamma'(t) is formed with central differences of
    step ``h`` and inserted into the first-order form of the geodesic
    equation, zeta' = c (zeta^T zeta - zeta zeta^T) with c = (mu + mu_c) /
    (2 mu).  Returns the largest Frobenius norm of the defect; for the
    closed-form curves this shrinks like h^2.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError(f"step h must lie in [1e-6, 1e-3], got {h:g}")
    c = (seg.params.mu + seg.params.mu_c) / (2.0 * seg.params.mu)

    def zeta(t: float) -> Mat:
        g_minus = geodesic_point(seg, t - h)
        g_plus = geodesic_point(seg, t + h)
        g_dot = (g_plus - g_minus) / (2.0 * h)
        return np.linalg.solve(geodesic_point(seg, t), g_dot)

    worst = 0.0
    for t in t_grid:
        z_minus, z_mid, z_plus = zeta(t - h), zeta(t), zeta(t + h)
        z_dot = (z_plus - z_minus) / (2.0 * h)
        defect = z_dot - c * (z_mid.T @ z_mid - z_mid @ z_mid.T)
        worst = max(worst, float(np.linalg.norm(defect)))
    return worst


def geodesic_length(seg: GeodesicSegment) -> float:
    """Length of the segment over [0, 1], the weighted norm of the tangent parameter."""
    return weighted_norm(seg.tangent_param, seg.params)


def dist_squared_to_SO(F: Mat, p: MetricParams) -> DistanceReport:
    """Squared geodesic distance from F to the rotation group.

    The closed form is mu ||dev_n log U||^2 + (kappa/2) tr(log U)^2 with
    U = sqrt(F^T F); the unique minimizer is the polar rotation.  The value
    does not involve the spin weight mu_c at all, because log U is symmetric.

    Raises
    ------
    NonPositiveDeterminantError
        If det F <= 0.
    """
    record = spectral_record(F)
    value = quadratic_potential(p.mu, p.kappa, record.logs)
    return DistanceReport(squared_distance=value, minimizer=record.rotation.copy(), method="closed_form")


def omega_iso(F: Mat) -> float:
    """Isochoric logarithmic strain measure ||dev_n log U||."""
    iso2, _ = log_invariants(spectral_record(F).logs)
    return math.sqrt(iso2)


def omega_vol(F: Mat) -> float:
    """Volumetric logarithmic strain measure |tr log U|, equal to |ln det F|."""
    _, tr = log_invariants(spectral_record(F).logs)
    return abs(tr)


def cofactor(F: Mat) -> Mat:
    """Cofactor matrix det(F) F^{-T} = A diag(prod_{j != i} s_j) B^T of F in
    GL+, from its stretch spectrum: no det F is formed, so it stays
    representable where det F under- or overflows (entries near 1e+-150).
    Raises as stretch_spectrum does."""
    A, s, B = stretch_spectrum(F)
    return (A * [math.prod(np.delete(s, i)) for i in range(s.size)]) @ B.T


def dist_cof_squared_to_SO(F: Mat, p: MetricParams) -> float:
    """Squared geodesic distance from Cof F to the rotation group, in closed form.

    Equals mu ||dev_n log U||^2 + kappa (n-1)^2 / 2 tr(log U)^2: taking the
    cofactor maps each singular value to the product of the others, which
    flips the deviatoric part of the logarithm (leaving its norm unchanged)
    and scales the trace by n - 1.
    """
    logs = spectral_record(F).logs
    return quadratic_potential(p.mu, p.kappa * (len(logs) - 1) ** 2, logs)


def euclid_dist_to_SO(F: Mat) -> DistanceReport:
    """Euclidean (Frobenius) distance from F to the rotation group.

    The minimum of ||F - Q|| over rotations Q is ||U - id||, the root of the
    sum of (s_i - 1)^2, attained at the polar rotation.
    """
    record = spectral_record(F)
    d2 = sum([(x - 1.0) * (x - 1.0) for x in record.stretches])
    return DistanceReport(squared_distance=d2, minimizer=record.rotation.copy(), method="closed_form")


def dist_SO(Q: Mat, R: Mat) -> float:
    """Geodesic distance ||log(Q^T R)|| between two rotations.

    Raises
    ------
    AngleAtPiError
        If the relative rotation has angle pi, where the principal logarithm
        branch is ambiguous.
    """
    Q = as_square(Q, "Q")
    R = as_square(R, "R")
    if not (is_rotation(Q) and is_rotation(R)):
        raise ValueError("both arguments must be rotations")
    return float(np.linalg.norm(principal_log_rotation(Q.T @ R)))


def dist_CSO(c: float, Q: Mat, d: float, R: Mat) -> float:
    """Geodesic distance between c Q and d R in the conformal rotation group."""
    if not (c > 0.0 and d > 0.0):
        raise ValueError("conformal factors must be positive")
    n = Q.shape[0]
    rot = dist_SO(Q, R)
    return math.sqrt(rot * rot + math.log(c / d) ** 2 / n)


def dist_psym_trace_metric(C1: Mat, C2: Mat) -> float:
    """Trace-metric geodesic distance ||log(C2^{-1/2} C1 C2^{-1/2})|| on the SPD cone.

    The conjugated product is formed explicitly (rather than the similar but
    non-normal C2^{-1} C1) so that the logarithm is taken of an SPD matrix.
    """
    S = spd_function(C2, lambda w: w ** -0.5, "C2")
    M = sym_part(S @ as_square(C1, "C1") @ S)
    return float(np.linalg.norm(principal_log_spd(M)))


def dist_log_euclidean(C1: Mat, C2: Mat) -> float:
    """Log-Euclidean distance ||log C1 - log C2|| on the SPD cone."""
    return float(np.linalg.norm(principal_log_spd(C1) - principal_log_spd(C2)))


def dist_gl_commuting(C1: Mat, C2: Mat) -> float:
    """Frobenius norm of the principal logarithm of C2^{-1} C1 for SPD arguments.

    C2^{-1} C1 = C2^{-1/2} M C2^{1/2} with M = C2^{-1/2} C1 C2^{-1/2} SPD, so
    its principal logarithm is C2^{-1/2} log(M) C2^{1/2}, formed here from
    symmetric eigendecompositions only (the product itself is generally not
    normal).  For commuting pairs this agrees with the trace-metric and
    Log-Euclidean distances; for non-commuting pairs it is a genuinely
    different number.
    """
    if not (is_spd(C1) and is_spd(C2)):
        raise ValueError("both arguments must be SPD")
    C2 = as_square(C2, "C2")
    S = spd_function(C2, lambda w: w ** -0.5, "C2")
    M = sym_part(S @ as_square(C1, "C1") @ S)
    # C2 S = C2^{1/2}, so one eigendecomposition of C2 gives both roots
    return float(np.linalg.norm(S @ principal_log_spd(M) @ (C2 @ S)))


def psym_geodesic_point(C1: Mat, M: Mat, t: float) -> Mat:
    """Point of the SPD-cone geodesic C1^{1/2} exp(t C1^{-1/2} M C1^{-1/2}) C1^{1/2}.

    ``M`` is the symmetric tangent at C1; the result stays SPD for every t.
    """
    M = as_square(M, "M")
    root = spd_function(C1, np.sqrt, "C1")
    inv_root = spd_function(C1, lambda w: 1.0 / np.sqrt(w), "C1")
    inner = sym_part(inv_root @ M @ inv_root)
    return sym_part(root @ mat_exp(t * inner) @ root)


def linear_dist_to_so(grad_u: Mat, p: MetricParams) -> float:
    """Squared weighted distance from a displacement gradient to the skew matrices.

    Equals mu ||dev_n sym grad_u||^2 + (kappa/2) tr(grad_u)^2; the nearest
    skew matrix is the skew part of grad_u itself, since the weighted inner
    product splits orthogonally.
    """
    S = sym_part(as_square(grad_u, "grad_u"))
    return weighted_inner(S, S, p)
