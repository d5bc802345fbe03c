"""Hyperelastic energies, stresses and rate identities on logarithmic strains.

The quadratic energies are one potential mu ||dev E_r||^2 + (kappa/2) tr(E_r)^2
on the Seth-Hill strains E_r: Hencky (r = 0, log U), Biot (r = 1/2) and
Saint-Venant-Kirchhoff (r = 1, the Green strain), beside the exponentiated
Hencky energy.  The stress side provides the Kirchhoff stress of the two
logarithmic energies in closed form, the Cauchy conversion, a
finite-difference first Piola-Kirchhoff gradient for cross-checking, and the
generalized linear stress-strain laws T_r = 2 mu E_r + lambda tr(E_r) id with
their classically named members.  Kinematics helpers split a velocity
gradient, evaluate corotational and convected rates along sampled motions,
and check the two rate identities that hold exactly for the Almansi strain
and for coaxial logarithmic strain.

Every energy, the Kirchhoff stress and the Cauchy conversion are scalar work
on the singular values of one SVD of F (matcore.stretch_spectrum, written out
for 2x2 F), the left frame carrying the stress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matcore import (
    Mat,
    ParameterOutOfRangeError,
    as_square,
    gl_plus_log_det,
    log_invariants,
    principal_log_spd,
    quadratic_potential,
    require_gl_plus,
    skew_part,
    stretch_spectrum,
    sym_part,
)
from .strain import StrainTensor, scale_function

__all__ = [
    "MaterialModel",
    "MotionSample",
    "TensionCompressionReport",
    "ParameterOutOfRangeError",
    "UnsupportedModelError",
    "ZeroDistortionError",
    "lame_lambda",
    "energy",
    "energy_from_logs",
    "kirchhoff_stress",
    "principal_kirchhoff",
    "cauchy_stress",
    "first_piola_fd",
    "hill_law",
    "velocity_split",
    "zaremba_jaumann_rate",
    "oldroyd_rates",
    "almansi_rate_check",
    "coaxial_lograte_check",
    "shield_transform",
    "criscione_invariants",
    "sample_gl",
    "tension_compression_check",
]

MODEL_KINDS = {"hencky": 0.0, "exp_hencky": 0.0, "svk": 1.0, "biot_linear": 0.5}  # kind: Seth-Hill r

class UnsupportedModelError(ValueError):
    """The requested operation is not defined for this model kind."""


class ZeroDistortionError(ValueError):
    """The distortional invariant vanishes, so the mode invariant is undefined."""


@dataclass(frozen=True)
class MaterialModel:
    """A named hyperelastic model with its parameter set.

    ``mu`` and ``kappa`` are the shear and bulk moduli; hencky, biot_linear
    and svk are one quadratic potential on the Seth-Hill strains of order
    r = 0, 1/2 and 1 (first Lame constant kappa - 2 mu / n).  ``k`` >= 1/4
    and ``khat`` >= 1/8 are the exponents of the exponentiated energy; with
    ``normalized`` set, it subtracts its value at the identity so that it
    vanishes on the rotation group like the others.
    """

    kind: str
    mu: float = 1.0
    kappa: float = 1.0
    k: float = 0.25
    khat: float = 0.125
    normalized: bool = False

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise UnsupportedModelError(f"unknown model kind {self.kind!r}")
        if not (self.mu > 0.0 and self.kappa > 0.0):
            raise ParameterOutOfRangeError("mu and kappa must be strictly positive")
        if self.kind == "exp_hencky":
            if self.k < 0.25:
                raise ParameterOutOfRangeError(f"exp energy requires k >= 1/4, got {self.k}")
            if self.khat < 0.125:
                raise ParameterOutOfRangeError(f"exp energy requires khat >= 1/8, got {self.khat}")


@dataclass(frozen=True)
class MotionSample:
    """Deformation gradient and its time derivative at one instant of a motion."""

    F: Mat
    F_dot: Mat
    time: "float | None" = None

    def __post_init__(self) -> None:
        require_gl_plus(self.F)
        as_square(self.F_dot, "F_dot")


def lame_lambda(model: MaterialModel, n: int) -> float:
    """First Lame constant kappa - 2 mu / n in dimension n."""
    return model.kappa - 2.0 * model.mu / n


def energy_from_logs(model: MaterialModel, logs: Sequence[float]) -> float:
    """Energy of a logarithmic model from the principal log stretches."""
    if model.kind == "hencky":
        return quadratic_potential(model.mu, model.kappa, logs)
    if model.kind == "exp_hencky":
        iso2, t = log_invariants(logs)
        # normalized, it vanishes at rest; expm1 keeps the digits exp - 1 cancels
        grow = math.expm1 if model.normalized else math.exp
        iso_part = model.mu * grow(model.k * iso2) / model.k
        return iso_part + model.kappa * grow(model.khat * t * t) / (2.0 * model.khat)
    raise UnsupportedModelError(f"model kind {model.kind!r} has no energy in log stretches")


def principal_kirchhoff(model: MaterialModel, logs: Sequence[float]) -> list[float]:
    """Principal Kirchhoff stresses of a logarithmic model from the principal log stretches.

    For the quadratic energy tau_i = 2 mu dev_i + kappa tr; the exponentiated
    energy scales the two parts by exp(k omega_iso^2) and exp(khat omega_vol^2)
    respectively (chain rule through the log stretches).
    """
    n = len(logs)
    t = sum(logs)
    mean = t / n
    dev = [l - mean for l in logs]
    if model.kind == "hencky":
        gain_iso = gain_vol = 1.0
    elif model.kind == "exp_hencky":
        dev2 = sum(d * d for d in dev)
        gain_iso = math.exp(model.k * dev2)
        gain_vol = math.exp(model.khat * t * t)
    else:
        raise UnsupportedModelError(f"model kind {model.kind!r} has no stress in log stretches")
    return [2.0 * model.mu * gain_iso * d + model.kappa * gain_vol * t for d in dev]


def energy(model: MaterialModel, F: Mat) -> float:
    """Strain energy density of the model at the deformation gradient F.

    It reads the principal strains scale_function(r, s) of the singular values
    s of F, r = 0 (log s) for both Hencky kinds, 1/2 for biot_linear and 1 for
    svk; every kind but exp_hencky is their quadratic potential.

    Raises
    ------
    NonPositiveDeterminantError
        If det F <= 0.
    SingularMatrixError
        If the condition number of F exceeds ``matcore.COND_LIMIT``.
    OverflowError
        If the energy leaves the double range.
    """
    e = scale_function(MODEL_KINDS[model.kind], stretch_spectrum(F)[1]).tolist()
    try:
        if model.kind == "exp_hencky":
            value = energy_from_logs(model, e)
        else:
            value = quadratic_potential(model.mu, model.kappa, e)
    except OverflowError:  # Python's float ** and math.exp raise rather than reach inf
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"{model.kind} energy overflows double precision")
    return value


def kirchhoff_stress(model: MaterialModel, F: Mat) -> Mat:
    """Kirchhoff stress tensor of the logarithmic energies.

    With F = A diag(s) B^T, tau = A diag(tau_i) A^T where tau_i are the
    :func:`principal_kirchhoff` stresses of log s; for the quadratic energy
    this is tau = 2 mu dev_n log V + kappa tr(log V) id.  Taking log s from
    the SVD of F, not the log of F F^T, keeps the condition number of F from
    being squared.

    Raises
    ------
    NonPositiveDeterminantError
        If det F <= 0.
    UnsupportedModelError
        For kinds other than the two logarithmic energies.
    OverflowError
        If a principal stress, or twice one, is not finite.
    """
    if model.kind not in ("hencky", "exp_hencky"):
        raise UnsupportedModelError(f"kirchhoff_stress supports the logarithmic energies, not {model.kind!r}")
    A, s, _ = stretch_spectrum(F)
    tau = principal_kirchhoff(model, np.log(s).tolist())
    if not all(math.isfinite(t + t) for t in tau):  # sym_part adds two copies of each
        raise OverflowError("Kirchhoff stress overflows double precision")
    return sym_part(A @ (np.array(tau)[:, None] * A.T))


def cauchy_stress(tau: Mat, F: Mat) -> Mat:
    """Cauchy stress from a Kirchhoff stress: sigma = tau / det F.

    log det F is the sum of the log singular values from the
    :func:`matcore.stretch_spectrum` of F, which the Kirchhoff stress of the
    same F has already paid for, and whose checks and errors apply.  1 / det F
    comes from log det F through math.exp, so it stays right where det F
    itself under- or overflows (1e-150 id in 3D).  A stress that underflows
    is 0.

    Raises
    ------
    NonPositiveDeterminantError
        If det F <= 0.
    SingularMatrixError
        If the condition number of F exceeds ``matcore.COND_LIMIT``.
    OverflowError
        If 1 / det F or the stress leaves the double range.
    """
    tau = as_square(tau, "tau")
    log_det = sum(map(math.log, stretch_spectrum(F)[1].tolist()))
    with np.errstate(over="ignore"):
        sigma = tau * math.exp(-log_det)
    if not np.isfinite(sigma).all():
        raise OverflowError("Cauchy stress overflows double precision")
    return sigma


def first_piola_fd(model: MaterialModel, F: Mat, h: "float | None" = None) -> Mat:
    """First Piola-Kirchhoff stress by central differences of the energy.

    The step defaults to 1e-5 (1 + ||F||), balancing truncation against
    roundoff at double precision.  For the logarithmic energies the contraction
    S1 F^T reproduces :func:`kirchhoff_stress` to O(h^2).
    """
    F = require_gl_plus(F)
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(F)))
    n = F.shape[0]
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            Fp = F.copy()
            Fm = F.copy()
            Fp[i, j] += h
            Fm[i, j] -= h
            S[i, j] = (energy(model, Fp) - energy(model, Fm)) / (2.0 * h)
    return S


def hill_law(r: float, E: StrainTensor, mu: float, lam: float) -> Mat:
    """Generalized linear stress law T_r = 2 mu E_r + lam tr(E_r) id.

    The classical members are r = 1 on the material strain (second
    Piola-Kirchhoff law of the quadratic Green-strain energy), r = 1 on the
    spatial strain (Neo-Hooke type Cauchy law), r = -1 on the spatial strain
    (Almansi-Signorini law) and r = 0 paired with the Biot stress (Becker's
    law).  ``lam`` is the first Lame constant (a keyword in Python, hence the
    short name).
    """
    if not isinstance(E, StrainTensor):
        raise TypeError("E must be a StrainTensor")
    numeric_order = {"hencky": 0.0}.get(E.order) if isinstance(E.order, str) else E.order
    if numeric_order is not None and numeric_order != float(r):
        raise ValueError(
            f"strain tensor is the r = {numeric_order:g} member, but the law was asked for r = {r:g}"
        )
    X = E.value
    n = X.shape[0]
    return 2.0 * mu * X + lam * float(np.trace(X)) * np.eye(n)


def velocity_split(s: MotionSample) -> tuple[Mat, Mat, Mat]:
    """Velocity gradient L = F_dot F^{-1} with its symmetric and skew parts."""
    L = s.F_dot @ np.linalg.inv(s.F)
    return L, sym_part(L), skew_part(L)


def zaremba_jaumann_rate(X_dot: Mat, X: Mat, Wspin: Mat) -> Mat:
    """Corotational rate X_dot - Wspin X + X Wspin."""
    return X_dot - Wspin @ X + X @ Wspin


def oldroyd_rates(X_dot: Mat, X: Mat, L: Mat) -> tuple[Mat, Mat]:
    """Lower and upper convected rates (X_dot + L^T X + X L, X_dot - L X - X L^T)."""
    lower = X_dot + L.T @ X + X @ L
    upper = X_dot - L @ X - X @ L.T
    return lower, upper


def _check_timestamps(path: "list[MotionSample]") -> np.ndarray:
    if len(path) < 3:
        raise ValueError("a sampled path needs at least three samples")
    times = [s.time for s in path]
    if any(t is None for t in times):
        raise ValueError("every motion sample on a path needs a timestamp")
    t = np.asarray(times, dtype=float)
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("timestamps must be strictly increasing")
    return t


def almansi_rate_check(path: "list[MotionSample]") -> float:
    """Largest defect of the Almansi strain rate identity along a sampled motion.

    For A(t) = (id - B(t)^{-1}) / 2 the lower convected rate of A equals the
    stretching D exactly.  A_dot is approximated by central differences over
    the neighbouring samples, so the returned maximum shrinks like the square
    of the time step for smooth motions.
    """
    t = _check_timestamps(path)
    n = path[0].F.shape[0]
    ident = np.eye(n)

    def almansi(s: MotionSample) -> Mat:
        B = s.F @ s.F.T
        return (ident - np.linalg.inv(B)) / 2.0

    worst = 0.0
    for i in range(1, len(path) - 1):
        A_dot = (almansi(path[i + 1]) - almansi(path[i - 1])) / (t[i + 1] - t[i - 1])
        L, D, _ = velocity_split(path[i])
        lower, _ = oldroyd_rates(A_dot, almansi(path[i]), L)
        worst = max(worst, float(np.linalg.norm(lower - D)))
    return worst


def coaxial_lograte_check(path: "list[MotionSample]") -> float:
    """Largest defect of d/dt log V = D along a diagonal (hence coaxial) motion.

    Raises
    ------
    ValueError
        If any sample's deformation gradient is not diagonal.
    """
    t = _check_timestamps(path)
    for s in path:
        off = s.F - np.diag(np.diag(s.F))
        if float(np.max(np.abs(off))) > 1e-12 * max(1.0, float(np.max(np.abs(s.F)))):
            raise ValueError("coaxial log-rate check requires diagonal deformation gradients")

    def log_v(s: MotionSample) -> Mat:
        return np.diag(np.log(np.diag(s.F)))

    worst = 0.0
    for i in range(1, len(path) - 1):
        H_dot = (log_v(path[i + 1]) - log_v(path[i - 1])) / (t[i + 1] - t[i - 1])
        _, D, _ = velocity_split(path[i])
        worst = max(worst, float(np.linalg.norm(H_dot - D)))
    return worst


def shield_transform(model: MaterialModel, F: Mat) -> float:
    """Shield's transformation W*(F) = det F * W(F^{-1}) of the model's energy.

    det F comes from log det F through math.exp.  Raises OverflowError when
    det F or the result leaves the double range; a result that underflows
    is 0.
    """
    F, log_det = gl_plus_log_det(F)
    value = math.exp(log_det) * energy(model, np.linalg.inv(F))
    if not math.isfinite(value):
        raise OverflowError("Shield transform overflows double precision")
    return value


def criscione_invariants(U: Mat) -> tuple[float, float, float]:
    """Volumetric, distortional and mode invariants of a three-dimensional stretch.

    K1 = tr(log U) measures volume change, K2 = ||dev log U|| the amount of
    distortion and K3 = det(dev log U / K2) the distortion mode, bounded by
    |K3| <= 1/sqrt(54) with the extremes at uniaxial eigenvalue patterns.

    Raises
    ------
    ZeroDistortionError
        When K2 vanishes (below 1e-12), leaving K3 undefined.
    """
    U = as_square(U, "U")
    if U.shape[0] != 3:
        raise ValueError("the invariant triple is defined for 3 by 3 stretches")
    log_u = principal_log_spd(U)
    k1 = float(np.trace(log_u))
    dev = log_u - k1 / 3.0 * np.eye(3)
    k2 = float(np.linalg.norm(dev))
    if k2 < 1e-12:
        raise ZeroDistortionError("purely volumetric stretch: the mode invariant is undefined")
    k3 = float(np.linalg.det(dev / k2))
    return k1, k2, k3


@dataclass(frozen=True)
class TensionCompressionReport:
    """Outcome of sampling W(F) against W(F^{-1}) for one model."""

    kind: str
    samples: int
    max_gap: float
    symmetric: bool
    witness: "Mat | None"


def sample_gl(rng: np.random.Generator, n: int) -> Mat:
    """Draw an n x n matrix with entries uniform in [-2, 2] and 0.1 <= det <= 10."""
    while True:
        F = rng.uniform(-2.0, 2.0, size=(n, n))
        if 0.1 <= float(np.linalg.det(F)) <= 10.0:
            return F


def tension_compression_check(model: MaterialModel, samples: int, seed: int) -> TensionCompressionReport:
    """Sample whether the model's energy is invariant under F -> F^{-1}.

    The two logarithmic energies are even in the logarithmic strain measures
    and must pass at tolerance 1e-10; the Green-strain energy is not, and the
    report then carries the most violating sample as a witness.
    """
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    witness = None
    for _ in range(samples):
        F = sample_gl(rng, 3)
        w = energy(model, F)
        w_inv = energy(model, np.linalg.inv(F))
        gap = abs(w - w_inv) / max(1.0, abs(w))
        if gap > max_gap:
            max_gap = gap
            witness = F
    symmetric = max_gap <= 1e-10
    return TensionCompressionReport(
        kind=model.kind,
        samples=samples,
        max_gap=max_gap,
        symmetric=symmetric,
        witness=None if symmetric else witness,
    )
