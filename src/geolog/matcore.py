"""Dense matrix kernel underneath the strain-measure library.

Everything downstream (strain tensors, geodesic distances, constitutive laws,
brute-force verification) rests on the primitives collected here: the
orthogonal sym/skew/spherical splitting, the weighted inner product it
induces, the stretch spectrum (one SVD of F) with the polar decomposition
built on it, one quadratic potential of principal strains, and principal
matrix functions on the classes that occur in elasticity (symmetric positive
definite matrices, rotations, and general square matrices for exp).

All functions are pure and operate on ``numpy.ndarray`` values of shape
``(n, n)``.  Comparisons are made relative to ``n`` times the max-entry
magnitude of the operands, with an absolute floor of 1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

Mat = np.ndarray

ABS_FLOOR = 1e-14
# largest condition number s[0] / s[-1] the stretch spectrum accepts
COND_LIMIT = 1e14


class NonPositiveDeterminantError(ValueError):
    """The matrix was required to have positive determinant but does not."""


class SingularMatrixError(ValueError):
    """The matrix is too ill-conditioned for a reliable decomposition."""


class NotSPDError(ValueError):
    """The argument must be symmetric positive definite but is not."""


class AngleAtPiError(ValueError):
    """A rotation angle sits at pi, where the principal logarithm branch is ambiguous."""


class ParameterOutOfRangeError(ValueError):
    """A material, metric or oracle parameter violates its admissible range."""


def as_square(X: "Mat | list", name: str = "matrix") -> Mat:
    """Coerce to a square float array and validate finiteness."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def gl_plus_log_det(F: "Mat | list", name: str = "F") -> tuple[Mat, float]:
    """Coerce to a square finite float array with positive determinant, and
    return it with log det F.

    Both the sign and log |det F| come from one ``np.linalg.slogdet``, which
    neither underflows (1e-150 id in 3D) nor overflows (1e150 id).

    Raises
    ------
    NonPositiveDeterminantError
        If det F <= 0.
    """
    F = as_square(F, name)
    sign, log_det = np.linalg.slogdet(F)
    if sign <= 0.0:
        raise NonPositiveDeterminantError(f"det {name} {'= 0' if sign == 0.0 else '< 0'} is not positive")
    return F, float(log_det)


def require_gl_plus(F: "Mat | list", name: str = "F") -> Mat:
    """Coerce to a square finite float array with positive determinant (the
    rule of :func:`gl_plus_log_det`, whose errors apply)."""
    return gl_plus_log_det(F, name)[0]


def _tol(rel: float, *mats: Mat) -> float:
    scale = max((m.shape[0] * float(np.max(np.abs(m))) for m in mats), default=1.0)
    return max(rel * max(scale, 1.0), ABS_FLOOR)


def sym_part(X: Mat) -> Mat:
    return (X + X.T) / 2.0


def skew_part(X: Mat) -> Mat:
    return (X - X.T) / 2.0


def deviatoric(X: Mat) -> Mat:
    """Trace-free part X - (tr X / n) id."""
    n = X.shape[0]
    return X - (np.trace(X) / n) * np.eye(n)


def is_symmetric(X: Mat, tol: float = 1e-10) -> bool:
    X = as_square(X)
    return float(np.max(np.abs(X - X.T))) <= _tol(tol, X)


def is_skew(X: Mat, tol: float = 1e-10) -> bool:
    X = as_square(X)
    return float(np.max(np.abs(X + X.T))) <= _tol(tol, X)


def is_spd(X: Mat, tol: float = 1e-10) -> bool:
    X = as_square(X)
    if not is_symmetric(X, tol):
        return False
    w = np.linalg.eigvalsh(sym_part(X))
    return bool(w[0] > 0.0)


def is_rotation(Q: Mat, tol: float = 1e-10) -> bool:
    Q = as_square(Q)
    n = Q.shape[0]
    ortho = float(np.max(np.abs(Q.T @ Q - np.eye(n)))) <= _tol(tol, Q)
    return ortho and np.linalg.det(Q) > 0.0


@dataclass(frozen=True)
class MetricParams:
    """Weights (mu, mu_c, kappa) of the isotropic inner product on square matrices.

    ``mu`` weights the trace-free symmetric part, ``mu_c`` the skew part and
    ``kappa`` (through kappa/2) the trace component.  All three must be
    strictly positive.  The plain Frobenius inner product is recovered at
    mu = mu_c = 1, kappa = 2/n, available as :meth:`frobenius`.
    """

    mu: float = 1.0
    mu_c: float = 1.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if not (self.mu > 0.0 and self.mu_c > 0.0 and self.kappa > 0.0):
            raise ParameterOutOfRangeError(
                f"metric weights must be strictly positive, got "
                f"mu={self.mu}, mu_c={self.mu_c}, kappa={self.kappa}"
            )

    @classmethod
    def frobenius(cls, n: int) -> "MetricParams":
        """Weights that reduce the weighted norm to the Frobenius norm in dimension n."""
        return cls(mu=1.0, mu_c=1.0, kappa=2.0 / n)


@dataclass(frozen=True)
class OrthogonalSplit:
    """Result of the orthogonal decomposition X = dev_sym + skew + coeff * id."""

    dev_sym: Mat
    skew: Mat
    spherical_coeff: float

    def recompose(self) -> Mat:
        n = self.dev_sym.shape[0]
        return self.dev_sym + self.skew + self.spherical_coeff * np.eye(n)


@dataclass(frozen=True)
class PolarDecomposition:
    """Rotation and stretch factors of F: F = rotation @ right_stretch = left_stretch @ rotation."""

    rotation: Mat
    right_stretch: Mat
    left_stretch: Mat


def split_orthogonal(X: Mat) -> OrthogonalSplit:
    """Split X into trace-free symmetric, skew and spherical components.

    The three pieces are mutually orthogonal in the Frobenius inner product
    and recompose exactly: X = dev_sym + skew + spherical_coeff * id.
    """
    X = as_square(X)
    n = X.shape[0]
    S = sym_part(X)
    coeff = float(np.trace(X)) / n
    return OrthogonalSplit(
        dev_sym=S - coeff * np.eye(n),
        skew=skew_part(X),
        spherical_coeff=coeff,
    )


def weighted_inner(X: Mat, Y: Mat, p: MetricParams) -> float:
    """Isotropic inner product mu<dev sym X, dev sym Y> + mu_c<skew X, skew Y> + (kappa/2) tr X tr Y."""
    X = as_square(X, "X")
    Y = as_square(Y, "Y")
    if X.shape != Y.shape:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    sx, sy = split_orthogonal(X), split_orthogonal(Y)
    n = X.shape[0]
    dev_term = float(np.sum(sx.dev_sym * sy.dev_sym))
    skew_term = float(np.sum(sx.skew * sy.skew))
    tr_term = (sx.spherical_coeff * n) * (sy.spherical_coeff * n)
    return p.mu * dev_term + p.mu_c * skew_term + 0.5 * p.kappa * tr_term


def weighted_norm(X: Mat, p: MetricParams) -> float:
    """Norm induced by :func:`weighted_inner`; zero exactly when X is zero."""
    return math.sqrt(max(weighted_inner(X, X, p), 0.0))


def stretch_spectrum(F: Mat) -> tuple[Mat, np.ndarray, Mat]:
    """SVD F = A diag(s) B^T of an orientation-preserving invertible matrix.

    Every isotropic closed form of F in the package is scalar work on the
    singular values s in one of these frames: A B^T is the polar rotation,
    U = B diag(s) B^T and V = A diag(s) A^T are the stretches.  With
    det F > 0 and the condition number bounded, det(A B^T) = +1, so A B^T is
    a rotation.

    The spectrum of the last F is remembered, keyed on its shape and bytes,
    so the closed forms evaluated one after another on one F share one SVD.
    A, s and B are therefore read-only; an F changed in place, or any other
    F, is decomposed afresh and checked again.  Errors are never remembered.

    Raises
    ------
    NonPositiveDeterminantError
        If det F <= 0 (see :func:`require_gl_plus`).
    SingularMatrixError
        If s[0] / s[-1], the condition number, exceeds ``COND_LIMIT``.
    """
    F = np.asarray(F, dtype=float)
    return _spectrum_of(F.tobytes(), F.shape)


# One entry: the closed forms of one F run back to back, and a longer memory
# would serve repeats of earlier inputs from a table.
@lru_cache(maxsize=1)
def _spectrum_of(key: bytes, shape: tuple[int, ...]) -> tuple[Mat, np.ndarray, Mat]:
    F = np.frombuffer(key).reshape(shape)
    A, s, Bt = np.linalg.svd(require_gl_plus(F))
    if s[-1] <= 0.0 or s[0] / s[-1] > COND_LIMIT:
        raise SingularMatrixError(
            f"condition number {s[0] / max(s[-1], 1e-300):.3e} exceeds {COND_LIMIT:g}"
        )
    for X in (A, s, Bt):
        X.setflags(write=False)
    return A, s, Bt.T


def log_invariants(logs: Sequence[float]) -> tuple[float, float]:
    """Squared norm of the deviator and the sum of the principal log stretches.

    For logs = log s these are ||dev_n log U||^2 and tr log U, the two
    invariants every logarithmic distance, measure and energy is built from.
    """
    n = len(logs)
    t = sum(logs)
    mean = t / n
    return sum((l - mean) ** 2 for l in logs), t


def quadratic_potential(mu: float, kappa: float, e: Sequence[float]) -> float:
    """mu ||dev e||^2 + (kappa/2) (sum e)^2 of principal strains e (log s or Seth-Hill)."""
    iso2, t = log_invariants(e)
    return mu * iso2 + 0.5 * kappa * t * t


def polar_decompose(F: Mat) -> PolarDecomposition:
    """Polar factors of an orientation-preserving invertible matrix.

    Returns rotation R = A B^T, right stretch U = sqrt(F^T F) and left
    stretch V = sqrt(F F^T), satisfying F = R U = V R, from the
    :func:`stretch_spectrum` of F, whose checks and errors apply.
    """
    A, s, B = stretch_spectrum(F)
    R = A @ B.T
    U = B @ (s[:, None] * B.T)
    V = A @ (s[:, None] * A.T)
    return PolarDecomposition(rotation=R, right_stretch=sym_part(U), left_stretch=sym_part(V))


def _assert_spd(P: Mat, name: str) -> tuple[np.ndarray, np.ndarray]:
    P = as_square(P, name)
    if not is_symmetric(P):
        raise NotSPDError(f"{name} is not symmetric")
    w, V = np.linalg.eigh(sym_part(P))
    if w[0] <= 0.0:
        raise NotSPDError(f"{name} has non-positive eigenvalue {w[0]:g}")
    return w, V


def spd_function(P: Mat, f, name: str = "P") -> Mat:
    """Apply a scalar function to an SPD matrix through its eigendecomposition."""
    w, V = _assert_spd(P, name)
    return sym_part(V @ (f(w)[:, None] * V.T))


def sqrt_spd(P: Mat) -> Mat:
    """SPD square root via spectral decomposition."""
    return spd_function(P, np.sqrt, "P")


def principal_log_spd(P: Mat) -> Mat:
    """Principal (symmetric) logarithm of an SPD matrix."""
    return spd_function(P, np.log, "P")


# Pade numerator coefficients for the order-9 diagonal approximant to exp.
# Integers, so the approximant is identical across platforms.
_PADE9_B = (
    17643225600.0,
    8821612800.0,
    2075673600.0,
    302702400.0,
    30270240.0,
    2162160.0,
    110880.0,
    3960.0,
    90.0,
    1.0,
)


def mat_exp(X: Mat) -> Mat:
    """Matrix exponential.

    Symmetric input goes through the eigendecomposition.  General input uses
    scaling and squaring with the fixed order-9 diagonal rational approximant,
    squaring whenever the 1-norm exceeds 1; the fixed order and threshold keep
    the result deterministic across platforms.

    Raises
    ------
    OverflowError
        If any entry of the result leaves the double-precision range.
    """
    X = as_square(X, "X")
    n = X.shape[0]
    if is_symmetric(X, tol=1e-13):
        S = sym_part(X)
        w, V = np.linalg.eigh(S)
        with np.errstate(over="ignore", invalid="ignore"):
            E = V @ (np.exp(w)[:, None] * V.T)
        E = sym_part(E)
        if not np.all(np.isfinite(E)):
            raise OverflowError("matrix exponential overflows double precision")
        return E

    norm1 = float(np.max(np.sum(np.abs(X), axis=0))) if n else 0.0
    squarings = 0
    Xs = X
    if norm1 > 1.0:
        squarings = max(int(math.ceil(math.log2(norm1))), 1)
        Xs = X / (2.0 ** squarings)

    ident = np.eye(n)
    X2 = Xs @ Xs
    X4 = X2 @ X2
    X6 = X4 @ X2
    X8 = X4 @ X4
    b = _PADE9_B
    U = Xs @ (b[9] * X8 + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = b[8] * X8 + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            E = E @ E
    if not np.all(np.isfinite(E)):
        raise OverflowError("matrix exponential overflows double precision")
    return E


def principal_log_rotation(Q: Mat) -> Mat:
    """Principal logarithm of a rotation, a skew matrix W with exp(W) = Q.

    One route for every n: the SVD I + Q = U diag(2 cos(theta/2)) V^T splits
    the planes linearly in theta, also near pi, where eigh(sym Q) would mix
    planes whose cosines meet quadratically. In the frame V, K = V^T (skew Q) V
    is block diagonal with row norms sin theta, so theta = atan2(sin, cos) is
    accurate up to pi. W = V (g * K) V^T with g_ij the smaller of theta / sin
    theta over rows i and j (1 on fixed axes), so roundoff across planes is
    not amplified near pi. Angles within 1e-10 of pi are rejected: the
    principal branch is not defined there.
    """
    Q = as_square(Q, "Q")
    if not is_rotation(Q):
        raise ValueError("argument is not a rotation matrix")
    _, sigma, Vt = np.linalg.svd(np.eye(Q.shape[0]) + Q)
    c = 0.5 * sigma * sigma - 1.0  # 2 + 2 cos theta = sigma^2
    K = skew_part(Vt @ skew_part(Q) @ Vt.T)  # skew again: a plane's two rows get one norm
    s = np.sqrt(np.sum(K * K, axis=1))
    theta = np.arctan2(s, c)
    if np.any(theta >= math.pi - 1e-10):
        raise AngleAtPiError("rotation angle at pi: principal log branch ambiguous")
    f = np.divide(theta, s, out=np.ones_like(s), where=s > 0.0)
    return skew_part(Vt.T @ (np.minimum.outer(f, f) * K) @ Vt)
