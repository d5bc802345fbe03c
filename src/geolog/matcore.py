"""Dense matrix kernel underneath the strain-measure library.

Everything downstream (strain tensors, geodesic distances, constitutive laws,
brute-force verification) rests on the primitives collected here: the
orthogonal sym/skew/spherical splitting, the weighted inner product it
induces, the stretch spectrum (one SVD of F) with the polar decomposition
built on it, one quadratic potential of principal strains, and principal
matrix functions on the classes that occur in elasticity (symmetric positive
definite matrices, rotations, and general square matrices for exp).

The stretch spectrum is kept as one record per F (:class:`SpectralRecord`,
the one entry of the memo behind :func:`spectral_record`): the SVD
F = A diag(s) B^T, the stretches s and log-stretches log s as Python floats,
and the polar rotation A B^T, each formed once per F however many closed
forms read them.  For n = 2 the SVD of F and the eigendecomposition of an
SPD matrix are written out in closed form (:func:`_planar_svd`,
:func:`_planar_eigh`), and so are the tensors R diag(x, y) R^T in the
record's rotation frames (:func:`_frame_diag`: the polar stretches and the
Kirchhoff stress), exactly symmetric; larger matrices go through LAPACK,
matmul and :func:`sym_part`, as do the SPD functions of every n.  Both
routes apply the same checks and raise the same errors.

All functions are pure and operate on ``numpy.ndarray`` values of shape
``(n, n)``.  Comparisons are made relative to ``n`` times the max-entry
magnitude of the operands, with an absolute floor of 1e-14.
"""

from __future__ import annotations

import math
import struct
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


def _square_array(X: "Mat | list", name: str = "matrix") -> Mat:
    """Coerce to a square float array, without checking its entries."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def as_square(X: "Mat | list", name: str = "matrix") -> Mat:
    """Coerce to a square float array and validate finiteness."""
    A = _square_array(X, name)
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
    scale = max((m.shape[0] * float(abs(m).max()) for m in mats), default=1.0)
    return max(rel * max(scale, 1.0), ABS_FLOOR)


def sym_part(X: Mat) -> Mat:
    """(X + X^T) / 2, halved before the sum so entries near the double range
    do not overflow; the same bits as (X + X^T) / 2 for normal entries."""
    half = X * 0.5
    return half + half.T


def skew_part(X: Mat) -> Mat:
    return (X - X.T) / 2.0


def deviatoric(X: Mat) -> Mat:
    """Trace-free part X - (tr X / n) id."""
    n = X.shape[0]
    return X - (np.trace(X) / n) * np.eye(n)


def is_symmetric(X: Mat, tol: float = 1e-10) -> bool:
    return _symmetric(as_square(X), tol)


def _symmetric(X: Mat, tol: float) -> bool:
    """is_symmetric of an array as_square already returned; an exact match
    returns at once, comparing bytes, before any array arithmetic."""
    if X.tobytes() == X.T.tobytes():
        return True
    return float(abs(X - X.T).max()) <= _tol(tol, X)


def is_skew(X: Mat, tol: float = 1e-10) -> bool:
    X = as_square(X)
    return float(np.max(np.abs(X + X.T))) <= _tol(tol, X)


def is_spd(X: Mat, tol: float = 1e-10) -> bool:
    X = as_square(X)
    if not _symmetric(X, tol):
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


class SpectralRecord:
    """The stretch spectrum of one F, as every closed form of F reads it.

    ``A``, ``s``, ``B`` are the SVD F = A diag(s) B^T as read-only arrays;
    ``stretches`` and ``logs`` are s and log s as Python floats (log s from
    one ``np.log`` call).  The polar rotation A B^T is formed on first use
    and kept, read-only (:attr:`rotation`).  :meth:`left` and :meth:`right`
    give A diag(x) A^T and B diag(x) B^T as fresh arrays; for n = 2, where A
    and B are rotations, they are written out (:func:`_frame_diag`).
    """

    __slots__ = ("A", "s", "B", "stretches", "logs", "_rotation")

    def __init__(self, A: Mat, s: np.ndarray, B: Mat, stretches: list) -> None:
        self.A, self.s, self.B, self.stretches = A, s, B, stretches
        self.logs = np.log(s).tolist()
        self._rotation = None

    @property
    def rotation(self) -> Mat:
        """The polar rotation A B^T (read-only), formed once per F."""
        if self._rotation is None:
            R = np.matmul(self.A, self.B.T)
            R.setflags(write=False)
            self._rotation = R
        return self._rotation

    def left(self, x: Sequence[float]) -> Mat:
        """A diag(x) A^T, a fresh symmetric array."""
        return _frame_diag(self.A, x)

    def right(self, x: Sequence[float]) -> Mat:
        """B diag(x) B^T, a fresh symmetric array."""
        return _frame_diag(self.B, x)


def spectral_record(F: Mat) -> SpectralRecord:
    """The :class:`SpectralRecord` of an orientation-preserving invertible F.

    Every isotropic closed form of F in the package is scalar work on the
    singular values s in one of the frames of F = A diag(s) B^T: A B^T is the
    polar rotation, U = B diag(s) B^T and V = A diag(s) A^T are the
    stretches.  With det F > 0 and the condition number bounded,
    det(A B^T) = +1, so A B^T is a rotation.

    A 2x2 F has its spectrum written out (:func:`_planar_svd`), with A and B
    rotations, and so are the tensors in its frames (:meth:`SpectralRecord.left`,
    :meth:`SpectralRecord.right`); larger F go through LAPACK, matmul and
    :func:`sym_part`.  Both routes apply the same checks and raise the same
    errors.

    The record of the last F is remembered, keyed on its shape and bytes, so
    the closed forms evaluated one after another on one F share one SVD, one
    ``np.log`` of s and one product A B^T.  Its arrays are therefore
    read-only; an F changed in place, or any other F, is decomposed afresh
    and checked again.  Errors are never remembered.

    Raises
    ------
    NonPositiveDeterminantError
        If det F <= 0 (see :func:`require_gl_plus`).
    SingularMatrixError
        If s[0] / s[-1], the condition number, exceeds ``COND_LIMIT``.
    """
    F = np.asarray(F, dtype=float)
    return _spectrum_of(F.tobytes(), F.shape)


def stretch_spectrum(F: Mat) -> tuple[Mat, np.ndarray, Mat]:
    """SVD F = A diag(s) B^T of an orientation-preserving invertible matrix:
    the read-only arrays A, s, B of its :func:`spectral_record`, whose checks,
    errors and memo apply.  The record also carries s and log s as floats,
    the polar rotation A B^T and the tensors A diag(x) A^T, B diag(x) B^T,
    written out for n = 2."""
    record = spectral_record(F)
    return record.A, record.s, record.B


_FOUR_DOUBLES = struct.Struct("4d")  # the bytes of a 2x2 float array


# One entry: the closed forms of one F run back to back, and a longer memory
# would serve repeats of earlier inputs from a table.
@lru_cache(maxsize=1)
def _spectrum_of(key: bytes, shape: tuple[int, ...]) -> SpectralRecord:
    if shape == (2, 2):
        A, s, B = _planar_svd(*_FOUR_DOUBLES.unpack(key))
    else:
        A, s, Bt = np.linalg.svd(require_gl_plus(np.frombuffer(key).reshape(shape)))
        for X in (A, s, Bt):
            X.setflags(write=False)
        B = Bt.T
    values = s.tolist()
    hi, lo = values[0], values[-1]
    if lo <= 0.0 or hi / lo > COND_LIMIT:
        raise SingularMatrixError(f"condition number {hi / max(lo, 1e-300):.3e} exceeds {COND_LIMIT:g}")
    return SpectralRecord(A, s, B, values)


def _planar_svd(a: float, b: float, c: float, d: float) -> tuple[Mat, np.ndarray, Mat]:
    """SVD of F = [[a, b], [c, d]] in closed form, with the checks of
    :func:`require_gl_plus` (Blinn, "Consider the lowly 2x2 matrix", 1996);
    A, s and B are read-only.

    F = E id + K J + G diag(1, -1) + H [[0, 1], [1, 0]] with E = (a+d)/2,
    G = (a-d)/2, H = (c+b)/2, K = (c-b)/2 and J the quarter turn: a scaled
    rotation by alpha = atan2(K, E) plus a scaled reflection at angle
    beta = atan2(H, G).  So s_0 = hypot(E, K) + hypot(G, H), s_1 = det F / s_0,
    and A, B are the rotations by (alpha + beta)/2 and (beta - alpha)/2.
    F is first divided by a power of two, so det F neither under- nor
    overflows; s_1 carries det F's absolute error, about eps s_0, as LAPACK's
    does.
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise ValueError("F has non-finite entries")
    # 2^-k max |entry| lies in [1/2, 1): dividing by 2^k is exact, and keeps
    # products of two entries inside the double range
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a, b, c, d = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(c, -k), math.ldexp(d, -k)
    det = a * d - b * c
    if det <= 0.0:
        raise NonPositiveDeterminantError(f"det F {'= 0' if det == 0.0 else '< 0'} is not positive")
    e, g, h, q = (a + d) / 2.0, (a - d) / 2.0, (c + b) / 2.0, (c - b) / 2.0
    top = math.hypot(e, q) + math.hypot(g, h)
    alpha, beta = math.atan2(q, e), math.atan2(h, g)
    phi, theta = (alpha + beta) / 2.0, (beta - alpha) / 2.0
    cp, sp, ct, st = math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta)
    # read-only views of one array: each np.array or setflags call costs
    # about as much as the arithmetic above
    out = np.array((cp, -sp, sp, cp, ct, -st, st, ct, math.ldexp(top, k), math.ldexp(det / top, k)))
    out.setflags(write=False)
    frames = out[:8].reshape(2, 2, 2)
    return frames[0], out[8:], frames[1]


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

    Returns rotation R = A B^T, right stretch U = sqrt(F^T F) = B diag(s) B^T
    and left stretch V = sqrt(F F^T) = A diag(s) A^T, satisfying
    F = R U = V R, as fresh arrays from the :func:`spectral_record` of F,
    whose checks and errors apply.
    """
    record = spectral_record(F)
    return PolarDecomposition(
        rotation=record.rotation.copy(),
        right_stretch=record.right(record.stretches),
        left_stretch=record.left(record.stretches),
    )


def _assert_spd(P: Mat, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of sym P, for P symmetric to
    1e-10 and positive definite; a 2x2 P goes through :func:`_planar_eigh`."""
    P = as_square(P, name)
    if not _symmetric(P, 1e-10):
        raise NotSPDError(f"{name} is not symmetric")
    if P.shape == (2, 2):
        (a, b), (c, d) = P.tolist()
        w, V = _planar_eigh(a, (b + c) / 2.0, d)
    else:
        w, V = np.linalg.eigh(sym_part(P))
    if w[0] <= 0.0:
        raise NotSPDError(f"{name} has non-positive eigenvalue {w[0]:g}")
    return w, V


def _planar_eigh(a: float, h: float, d: float) -> tuple[np.ndarray, Mat]:
    """Ascending eigenvalues and rotation eigenframe of [[a, h], [h, d]]:
    the closed form of :func:`_planar_svd` with K = 0.

    The larger eigenvalue is E + hypot(G, H); when it is positive the smaller
    is det / larger, so it keeps det's absolute error, about eps of the
    larger, as LAPACK's does.  The frame turns by half of atan2(H, G) (of
    atan2(-H, -G) when G < 0), so a diagonal matrix keeps an exact frame.
    """
    k = math.frexp(max(abs(a), abs(h), abs(d)))[1]  # as in _planar_svd
    a, h, d = math.ldexp(a, -k), math.ldexp(h, -k), math.ldexp(d, -k)
    e, g = (a + d) / 2.0, (a - d) / 2.0
    top = e + math.hypot(g, h)
    low = (a * d - h * h) / top if top > 0.0 else e - math.hypot(g, h)
    w = np.array([math.ldexp(low, k), math.ldexp(top, k)])
    if g >= 0.0:  # (cos t, sin t) spans the larger eigenvalue's axis
        t = math.atan2(h, g) / 2.0
        c, s = math.sin(t), -math.cos(t)
    else:  # (cos t, sin t) spans the smaller one's
        t = math.atan2(-h, -g) / 2.0
        c, s = math.cos(t), math.sin(t)
    return w, np.array([[c, -s], [s, c]])


def _frame_diag(V: Mat, x: Sequence[float]) -> Mat:
    """V diag(x) V^T as a fresh array, for a frame V of a spectral record.

    A 2x2 V is a rotation [[c, -s], [s, c]] (the planar kernels give no
    other), and the product is written out: [[x0 c^2 + x1 s^2,
    (x0 - x1) c s], [(x0 - x1) c s, x0 s^2 + x1 c^2]], exactly symmetric.
    Larger V take matmul and :func:`sym_part`.
    """
    if V.shape != (2, 2):
        return sym_part(V @ (np.asarray(x)[:, None] * V.T))
    (c, _), (s, _) = V.tolist()
    x0, x1 = x
    cc, ss, off = c * c, s * s, (x0 - x1) * c * s
    return np.array(((x0 * cc + x1 * ss, off), (off, x0 * ss + x1 * cc)))


def spd_function(P: Mat, f, name: str = "P") -> Mat:
    """Apply a scalar function to an SPD matrix through its eigendecomposition.

    The product V diag(f(w)) V^T is matmul and :func:`sym_part` for every n,
    also after the written-out 2x2 eigendecomposition: BLAS rounds a 2x2
    product with fused multiply-adds, which Python floats cannot repeat, so
    a written-out product would move the last bits of every SPD function.
    """
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
    if _symmetric(X, 1e-13):
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
