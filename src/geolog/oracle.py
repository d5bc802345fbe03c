"""Brute-force numerical cross-checks for the closed-form distance results.

Every engine in this module re-derives a minimum by direct search so the
closed forms elsewhere in the package can be checked against something that
does not share their code path: multi-start Newton descent on SO(3)
(planar inputs embedded as diag(F, s)), discrete geodesics on GL+(2)
(Newton's method on the discrete path energy of a matrix polyline, whose
Hessian is block tridiagonal, from one start that turns and stretches
together, judged by the polyline's length), and
large-sample admissible-logarithm sweeps.

All randomness is drawn from counter-derived Philox substreams, so a verdict
is a pure function of the inputs and the config (bitwise, independent of how
the evaluation might be scheduled); reductions always run in sample order.
Only the wall time in a verdict's stats varies from run to run.

Inner loops avoid numpy calls on tiny matrices, whose dispatch cost dwarfs
their arithmetic. The path kernels hold node stacks entry-major, shape
(n, n, ..., N+1) with the long axes last, so for any n each numpy call works
on vectors of N x 16 entries: a product is one broadcast multiply and a sum
over a length-n axis, a 2x2 inverse the adjugate. The planar objective's
variables are the start angle and the interior nodes' own entries (an
unshifted Newton step is the same in any affine chart), so its node stack
and gradient are reshapes of that layout. The chord pass
that gives the energy and its gradient also gives the exact Hessian, from
small Gram products of its stacks summed over the rule by stacked matmuls
(_chord_hessians), so a Newton step costs one pass per trial, and the
last accepted pass also gives the final polyline's length.

The log sampling takes its principal logs the same way, entry-major over
the samples, from closed-form eigenvalues, on contiguous rows. The
rotation draws are kept entry-major and remembered per seed, dimension and
count, so checks of several F under one config draw them once, and
logmin_oracle and weighted_logmin_oracle on one F and config share one
sampling. The rotation search evaluates its misfits in Python floats and
takes its Newton steps from the same 3x3 product Q^T F that gives the
misfit. Its descents run from up to 20 fixed starts and stop once three
of them end on the best rotation; for det F > 0 the first three did so on
every acceptance draw checked, planar and spatial.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from .matcore import (
    COND_LIMIT,
    Mat,
    MetricParams,
    ParameterOutOfRangeError,
    as_square,
    polar_decompose,
    spectral_record,
)
from .geodesy import dist_squared_to_SO, euclid_dist_to_SO

__all__ = [
    "OracleConfig",
    "OracleVerdict",
    "grioli_oracle",
    "geodesic_distance_oracle",
    "logmin_oracle",
    "weighted_logmin_oracle",
    "best_approx_uniqueness_probe",
    "substream",
]

_KEY_SALT = 0x9E3779B97F4A7C15
_GAP_FLOOR = 1e-9
Rows3 = Tuple[Tuple[float, float, float], ...]  # a 3x3 matrix as rows of Python floats


@dataclass(frozen=True)
class OracleConfig:
    """Knobs shared by all verification engines.

    samples counts the rotations of the log-sampling oracles and the
    uniqueness probe, nodes the path segments. max_iters bounds objective
    evaluations per descent of the rotation search (which reads only it)
    and per path search (a pass over the chords: value, gradient, Hessian).
    tol is the path oracle's allowance above the closed form.
    """

    seed: int = 0
    samples: int = 200
    nodes: int = 12
    tol: float = 0.02
    max_iters: int = 60000

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("samples", 1), ("nodes", 4), ("max_iters", 1)):
            value = getattr(self, name)
            if int(value) != value or value < low:
                raise ParameterOutOfRangeError(f"{name} must be an integer >= {low}")
        if not (self.tol > 0.0):
            raise ParameterOutOfRangeError("tol must be positive")


@dataclass(frozen=True)
class OracleVerdict:
    claim: str
    closed_form_value: float
    oracle_value: float
    relative_gap: float
    passed: bool
    witness: Optional[Mat] = None
    # how much work the engine did; see each oracle's docstring
    stats: Optional[dict] = field(default=None, compare=False)

    @classmethod
    def of(
        cls, claim: str, closed: float, value: float, passed: bool,
        witness: Optional[Mat] = None, stats: Optional[dict] = None,
    ) -> "OracleVerdict":
        """The verdict on a claim whose closed form reads `closed` and whose
        check reads `value`. Their gap is relative to the closed form, and
        absolute when that is essentially zero (a ratio against 1e-16 would
        only mislead)."""
        gap = value - closed
        if abs(closed) > 1e-12:
            gap /= abs(closed)
        return cls(claim, closed, float(value), gap, passed, witness, stats)

    def __str__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.claim}: closed_form={self.closed_form_value:.9g} "
            f"oracle={self.oracle_value:.9g} gap={self.relative_gap:.3g}"
        )


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator number `index` of the family keyed by `seed`.

    The substream index is planted in the third counter word, which leaves
    2^128 draws of headroom per stream before any overlap is possible.
    """
    key = np.array([seed, _KEY_SALT], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[2] = index
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _rot2_rows(theta: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s), (s, c)


def _rot2(theta: float) -> np.ndarray:
    return np.array(_rot2_rows(theta))


def _rot3_rows(w: Sequence[float]) -> Rows3:
    """Rows of exp([w]_x) = id + a K + b K^2 in Python floats, K = [w]_x and
    K^2 = w w^T - theta^2 id (Rodrigues; series near zero)."""
    wx, wy, wz = float(w[0]), float(w[1]), float(w[2])
    theta2 = wx * wx + wy * wy + wz * wz
    theta = math.sqrt(theta2)
    if theta < 1e-8:
        a, b = 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta2
    c, bx, by, bz = 1.0 - b * theta2, b * wx, b * wy, b * wz
    return ((c + bx * wx, bx * wy - a * wz, bx * wz + a * wy),
            (bx * wy + a * wz, c + by * wy, by * wz - a * wx),
            (bx * wz - a * wy, by * wz + a * wx, c + bz * wz))


def _misfit3(Q: Rows3, F: Rows3) -> Tuple[float, Rows3]:
    """(||Q^T F - id||, Q^T F) for 3x3 rows in Python floats, the norm entry
    by entry (the trace form ||F||^2 - 2 tr(Q^T F) + 3 cancels near a rotation)."""
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = Q
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = F
    M = ((q00 * f00 + q10 * f10 + q20 * f20, q00 * f01 + q10 * f11 + q20 * f21,
          q00 * f02 + q10 * f12 + q20 * f22),
         (q01 * f00 + q11 * f10 + q21 * f20, q01 * f01 + q11 * f11 + q21 * f21,
          q01 * f02 + q11 * f12 + q21 * f22),
         (q02 * f00 + q12 * f10 + q22 * f20, q02 * f01 + q12 * f11 + q22 * f21,
          q02 * f02 + q12 * f12 + q22 * f22))
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    return math.hypot(m00 - 1.0, m01, m02, m10, m11 - 1.0, m12, m20, m21, m22 - 1.0), M


def _random_rotations(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` rotations uniform on SO(n), shape (count, n, n): a view of
    their entry-major stack (n, n, count), which is contiguous, so
    np.moveaxis(Q, 0, -1) gives the rows of each entry without a copy.

    The stream is consumed sample by sample (one angle per planar rotation,
    four normals per spatial one), so the first k rotations do not depend
    on `count`.
    """
    if n == 2:
        theta = rng.uniform(-math.pi, math.pi, size=count)
        c, s = np.cos(theta), np.sin(theta)
        rows = [[c, -s], [s, c]]
    else:  # uniform on SO(3) via normalized quaternions
        q = rng.standard_normal((count, 4))
        a, b, c, d = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
        rows = [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    return np.moveaxis(np.array(rows), -1, 0)


@lru_cache(maxsize=1)
def _kronecker_ball_starts(count: int) -> Tuple[Tuple[float, float, float], ...]:
    """Low-discrepancy axis-angle seeds filling the radius-pi ball, in Python
    floats (built once; every spatial rotation search uses the same ones).

    Additive Kronecker sequence driven by the quartic analogue of the golden
    ratio; it has no chart seam at angle pi because the seeds cover both
    hemispheres of axes.
    """
    g = 1.2207440846057595
    alphas = (1.0 / g, 1.0 / g ** 2, 1.0 / g ** 3)
    starts, u = [], [0.5, 0.5, 0.5]
    for _ in range(count):
        u = [(x + a) % 1.0 for x, a in zip(u, alphas)]
        z = 2.0 * u[0] - 1.0
        phi = 2.0 * math.pi * u[1]
        r = math.pi * u[2] ** (1.0 / 3.0)
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        starts.append(tuple(r * x for x in (rho * math.cos(phi), rho * math.sin(phi), z)))
    return tuple(starts)


def _spd_solve3(A: Sequence[float], b: Sequence[float]) -> Optional[Tuple[float, float, float]]:
    """x with A x = b for the symmetric 3x3 A packed as its lower triangle
    (a00, a10, a11, a20, a21, a22), by Cholesky written out; None when A is
    not positive definite."""
    a00, a10, a11, a20, a21, a22 = A
    if not a00 > 0.0:
        return None
    l00 = math.sqrt(a00)
    l10, l20 = a10 / l00, a20 / l00
    d1 = a11 - l10 * l10
    if not d1 > 0.0:
        return None
    l11 = math.sqrt(d1)
    l21 = (a21 - l20 * l10) / l11
    d2 = a22 - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        return None
    l22 = math.sqrt(d2)
    y0 = b[0] / l00
    y1 = (b[1] - l10 * y0) / l11
    x2 = (b[2] - l20 * y0 - l21 * y1) / l22 / l22
    x1 = (y1 - l21 * x2) / l11
    return (y0 - l10 * x1 - l20 * x2) / l00, x1, x2


def _rotation_newton(
    F: Rows3, w0: Sequence[float], budget: int, noise: float
) -> Tuple[Rows3, float, int, int]:
    """Newton descent of ||Q^T F - id|| over Q = exp([w0]_x) exp([d_1]_x) ...
    for 3x3 rows F (grioli_oracle lifts a 2x2 F to diag(F, s)); returns
    (Q, misfit, evaluations, Newton steps).

    With M = Q^T F the squared misfit of Q exp([d]_x) is ||M||^2 -
    2 tr(exp(-[d]_x) M) + 3, whose gradient in d is -2a, a = (M21 - M12,
    M02 - M20, M10 - M01), and whose Hessian is 2A, A = tr M id - sym M. A
    step solves (A + tau id) d = a, with tau = 0 where A is positive definite
    and growing from 1e-8 of its entries' sum until it is (Nocedal and Wright,
    Numerical Optimization, 2nd ed., 3.4). Along a step s of length theta the
    squared misfit changes by exactly -2 (sin theta / theta) a.s +
    2 ((1 - cos theta) / theta^2) s^T A s, and s^T A s <= a.s, so a step
    capped at length 2 lowers it by at least a fifth of the decrement a.s:
    the Armijo backtracking on the misfit only guards against roundoff.
    Where A is positive definite and |d| <= 1e-3 (the quadratic region) full
    steps are taken untested, because the squared misfit phi cannot resolve
    steps below about sqrt(eps phi / curvature), and a stop on the value
    would leave the witness that far from the minimizer. The descent stops
    when the decrement a.d reaches the roundoff `noise` of a along d, when
    inside the quadratic region it no longer falls below a quarter of the
    previous one, when no step of 2^-30 passes the Armijo test, or before
    the evaluations, the start's included, would exceed budget. Every
    evaluation builds one rotation with _rot3_rows.
    """
    Q = _rot3_rows(w0)
    f, M = _misfit3(Q, F)
    evals, steps, last = 1, 0, math.inf
    while evals < budget:
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
        a = (m21 - m12, m02 - m20, m10 - m01)
        t = m00 + m11 + m22
        A = [t - m00, -0.5 * (m01 + m10), t - m11, -0.5 * (m02 + m20), -0.5 * (m12 + m21), t - m22]
        tau = 0.0
        while (d := _spd_solve3([A[0] + tau, A[1], A[2] + tau, A[3], A[4], A[5] + tau], a)) is None:
            tau = max(2.0 * tau, 1e-8 * sum(map(abs, A)), -2.0 * min(A[0], A[2], A[5]))
        length = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        dec = a[0] * d[0] + a[1] * d[1] + a[2] * d[2]
        if dec <= noise * length:
            break
        quadratic = tau == 0.0 and length <= 1e-3
        if quadratic and dec > 0.25 * last:
            break
        last = dec if quadratic else math.inf
        if length > 2.0:
            d, dec = [2.0 / length * x for x in d], 2.0 / length * dec
        alpha = 1.0
        while True:
            (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = Q
            E = _rot3_rows([alpha * x for x in d])
            (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = E
            trial = ((p00 * e00 + p01 * e10 + p02 * e20, p00 * e01 + p01 * e11 + p02 * e21,
                      p00 * e02 + p01 * e12 + p02 * e22),
                     (p10 * e00 + p11 * e10 + p12 * e20, p10 * e01 + p11 * e11 + p12 * e21,
                      p10 * e02 + p11 * e12 + p12 * e22),
                     (p20 * e00 + p21 * e10 + p22 * e20, p20 * e01 + p21 * e11 + p22 * e21,
                      p20 * e02 + p21 * e12 + p22 * e22))
            f_trial, M_trial = _misfit3(trial, F)
            evals += 1
            if quadratic or f_trial * f_trial <= f * f - 2e-4 * alpha * dec:
                break
            if alpha < 2.0 ** -30 or evals >= budget:
                return Q, f, evals, steps
            alpha *= 0.5
        Q, f, M = trial, f_trial, M_trial
        steps += 1
    return Q, f, evals, steps


def _input(F: Mat, dims: Tuple[int, ...], search: str) -> np.ndarray:
    """F as a square finite float array whose size is one of dims, else a
    ValueError "<search> 2x2 and 3x3 inputs only" naming the dims."""
    F = as_square(F, "F")
    if F.shape[0] not in dims:
        raise ValueError(f"{search} {' and '.join(f'{n}x{n}' for n in dims)} inputs only")
    return F


# ---------------------------------------------------------------------------
# rotation-group minimization of the Euclidean misfit
# ---------------------------------------------------------------------------

def grioli_oracle(F: Mat, cfg: OracleConfig) -> OracleVerdict:
    """Minimize ||Q^T F - id|| over rotations by direct search.

    Safeguarded Newton descents on SO(3) (_rotation_newton) run in order
    from 20 fixed low-discrepancy starts, each within cfg.max_iters
    evaluations, on G = F for a 3x3 F and G = diag(F, s) for a 2x2 F, with
    s = ||F|| / sqrt(2) the root mean square of F's singular values, so the
    search reads nothing but F. The polar factor of diag(F, s) is diag(R, 1)
    and its misfit there is sqrt(||U - id||^2 + (s - 1)^2), so the planar
    witness is the top-left block and the planar minimum comes back from
    the misfit with (s - 1)^2 taken off; |s - 1| <= ||U - id|| / sqrt(2), so
    that costs at most a factor sqrt(3/2) of the misfit's roundoff. Scaling
    the third axis with F keeps both blocks resolved at F's scale (with
    s = 1, a 1e-150 F would leave the planar angle below the roundoff).

    The search stops after the third descent that ends on the best rotation
    so far (misfit within 1e-12 relative, or within 8 eps ||G||, the
    roundoff the descents stop on; rotation within 1e-8 in the Frobenius
    norm), and otherwise runs all 20. The rule rests on the misfit having a
    single local minimum on SO(3) for det G > 0. On the 200 spatial draws
    of acceptance criterion 2 all 20 descents of a draw ended within
    8.2e-15 of the polar factor and their minima spread by at most 2.4e-15
    (relative), so the first three agree and their best lies within
    8.5e-16 of the best of all 20; the first three agree on each of its
    1000 planar draws too. The floor matters where the misfit is small:
    for F within 1e-6 of a rotation, or F = id, the misfit's roundoff
    exceeds 1e-12 of it, and without the floor the descents never agree
    and all 20 run.

    The verdict passes when the search lands within the misfit's own
    roundoff 8 eps (||G|| + 3) of the polar closed form, on either side, and
    the best rotation lands on the polar factor; it reads no tolerance from
    cfg, so no loose band can pass a closed form that is slightly off. The
    stats give the descents run (starts), their accepted Newton steps and
    objective evaluations, and the seconds.
    """
    t_start = time.perf_counter()
    F = _input(F, (2, 3), "rotation search supports")
    n = F.shape[0]
    report = euclid_dist_to_SO(F)
    closed = report.distance

    rows = F.tolist()
    if n == 2:  # G = diag(F, s)
        s = math.hypot(*rows[0], *rows[1]) / math.sqrt(2.0)
        rows = [rows[0] + [0.0], rows[1] + [0.0], [0.0, 0.0, s]]
    noise = 8.0 * 2.0 ** -52 * math.hypot(*sum(rows, []))  # roundoff of a = axial(Q^T G)
    runs = []
    for w0 in _kronecker_ball_starts(20):
        runs.append(_rotation_newton(rows, w0, cfg.max_iters, noise))
        q_rows, best, _, _ = min(runs, key=lambda run: run[1])  # the first of equal minima
        q_flat, agree = sum(q_rows, ()), max(1e-12 * best, noise)
        if sum(abs(f - best) <= agree and math.dist(sum(Q, ()), q_flat) <= 1e-8
               for Q, f, _, _ in runs) >= 3:
            break
    q_best = np.array(q_rows)[:n, :n]
    if n == 2:  # the misfit of G less (s - 1)^2, in factors that cannot overflow
        lift = abs(s - 1.0)
        best = math.sqrt(max(0.0, best - lift)) * math.sqrt(best + lift)
    stats = {"starts": len(runs), "newton_steps": sum(run[3] for run in runs),
             "evaluations": sum(run[2] for run in runs), "seconds": time.perf_counter() - t_start}

    matches = float(np.linalg.norm(q_best - report.minimizer)) <= 1e-4
    passed = abs(best - closed) <= noise + 24.0 * 2.0 ** -52 and matches  # 8 eps (||G|| + 3)
    return OracleVerdict.of(f"rotation misfit minimum ({n}x{n})", closed, best, passed, q_best, stats)


# ---------------------------------------------------------------------------
# discrete geodesic path search
# ---------------------------------------------------------------------------

def _gauss_legendre(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [0, 1] (Golub-Welsch: the nodes are
    the eigenvalues of the Jacobi matrix of the Legendre recurrence, the
    weights the squared first components of its eigenvectors)."""
    k = np.arange(1, m)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), V[0] ** 2


_GL16 = _gauss_legendre(16)


def _in_gl_plus(E: np.ndarray) -> bool:
    """Whether every chord A -> A + D of a planar entry-major node stack
    E (2, 2, N+1) stays in GL+: det(A + tD) = q0 + lin t + q2 t^2 is
    positive at both ends and, where its vertex -lin / (2 q2) lies in
    (0, 1), there too."""
    (a, b), (c, d) = E
    (da, db), (dc, dd) = E[..., 1:] - E[..., :-1]
    det = a * d - b * c
    q0, q2 = det[:-1], da * dd - db * dc
    lin = det[1:] - q0 - q2
    vertex = (lin < 0.0) & (lin > -2.0 * q2)  # so q2 > 0 and -2 < lin / q2 < 0
    lin, q0, q2 = lin[vertex], q0[vertex], q2[vertex]  # lin^2 and q0 q2 overflow at 1e150
    return bool(det.min() > 0.0 and not np.any(lin * (lin / q2) >= 4.0 * q0))


def _entry_matmul(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Products P Q of entry-major stacks (n, n, ...)."""
    return (P[:, :, np.newaxis] * Q).sum(axis=1)


def _chords(E: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """M_q^-1 and Z_q = M_q^-1 D for every chord A -> A + D of an
    entry-major node stack E (n, n, ..., N+1), with M_q = A + t_q D at the
    nodes t of a quadrature rule on [0, 1]; both of shape
    (n, n, ..., N, len(t))."""
    E = E[..., np.newaxis]
    D = E[..., 1:, :] - E[..., :-1, :]
    M = E[..., :-1, :] + t * D
    if M.shape[0] == 2:  # the adjugate
        (a, b), (c, d) = M
        M_inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    else:
        M_inv = np.moveaxis(np.linalg.inv(np.moveaxis(M, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    return M_inv, _entry_matmul(M_inv, D)


def _polyline_length(E: np.ndarray, p: MetricParams) -> float:
    """Length of the polyline of a planar entry-major node stack E
    (2, 2, N+1) in the p-weighted left-invariant metric.

    Each chord A -> A + D contributes the integral over t in [0, 1] of
    ||(A + tD)^-1 D||_p, taken with a 16-point Gauss-Legendre rule. Any
    curve from a rotation to F that stays in GL+ is at least as long as the
    geodesic distance, so this is an upper bound on dist(F, SO(2)). A chord
    that leaves GL+ makes the length infinite.
    """
    if not _in_gl_plus(E):
        return math.inf
    return _chord_length(_chords(E, _GL16[0])[1], p)


def _chord_length(Z: np.ndarray, p: MetricParams) -> float:
    """The summed lengths of the chords whose Z_q = M_q^-1 D on the 16-point
    rule are the entry-major stack Z (n, n, N, 16)."""
    return float(np.sum(_stacked_weighted_norms(Z, p) @ _GL16[1]))


@dataclass(frozen=True)
class _ChordPass:
    """What one pass over the chords of a node stack gives on demand besides
    the energy and gradient: calling it gives the Hessian, length() the
    _polyline_length of the same nodes (which lie in GL+)."""

    hessian: Callable[[], object]
    length: Callable[[], float]

    def __call__(self) -> object:
        return self.hessian()


def _path_energy(E: np.ndarray, p: MetricParams, hessian: bool = False) -> tuple:
    """Discrete path energy of an entry-major node stack E (n, n, ..., N+1)
    in GL+, and its gradient, of the same shape, for every stack along the
    axes between. With hessian (and no stack axes), also a _ChordPass that
    gives every chord's Hessian block (_chord_hessians) and the polyline
    length from the same pass.

    E = N sum_chords sum_q w_q ||Z_q||_p^2, with Z_q = M_q^-1 D and
    M_q = A + t_q D for the chord A -> A + D, on the 16-point rule of
    _polyline_length. Its minimizers move at constant speed (discrete
    geodesics), and the polyline's length is at most sqrt(E)
    (Cauchy-Schwarz). With G = 2 N w_q _metric_map(Z_q) and H = M_q^-T G,
    the chord adds sum_q (H - t_q H Z_q^T) to the gradient at its end node
    and sum_q (-H - (1 - t_q) H Z_q^T) at its start node.
    """
    t, w = _GL16
    M_inv, Z = _chords(E, t)
    c = (2.0 * (E.shape[-1] - 1)) * w
    G = c * _metric_map(Z, p)
    H = _entry_matmul(M_inv.swapaxes(0, 1), G)
    HZt = _entry_matmul(H, Z.swapaxes(0, 1))
    at_end = (H - t * HZt).sum(axis=-1)
    grad = np.zeros(E.shape)
    grad[..., 1:] = at_end
    grad[..., :-1] -= at_end + HZt.sum(axis=-1)
    value = 0.5 * (Z * G).sum(axis=(0, 1, -2, -1))
    if not hessian:
        return value, grad
    return value, grad, _ChordPass(lambda: _chord_hessians(c, M_inv, Z, H, p),
                                   lambda: _chord_length(Z, p))


def _chord_hessians(
    c: np.ndarray, M_inv: np.ndarray, Z: np.ndarray, H: np.ndarray, p: MetricParams
) -> np.ndarray:
    """Hessian blocks of the path energy's chords, a stack (N, 2 n^2, 2 n^2)
    whose rows and columns run over the entries (i, j) of the start node,
    then of the end node, from _path_energy's chord pass on one node stack:
    M_inv and Z (n, n, N, 16), H = M^-T G and the weights c = 2 N w_q.

    A move dA of the start node changes Z = M^-1 D by M^-1 dA S_A, with
    S_A = -(id + (1 - t) Z), and a move dB of the end node by M^-1 dB S_B,
    with S_B = id - t Z; so a unit move of entry (i, j) changes it by the
    outer product of column i of M^-1 and row j of S. With the metric map
    a X + b X^T + g tr X id (_metric_map), the Gauss-Newton part
    c <dZ_u, map(dZ_v)> of entries u = (i, j), v = (k, l) reads
    c [a P_ik (S S^T)_jl + b (S M^-1)_li (S M^-1)_jk + g (S M^-1)_ji (S M^-1)_lk],
    P = M^-T M^-1. The second derivative dZ_uv = -M^-1 (dM_u dZ_v + dM_v dZ_u)
    adds -r_u M^-1_jk (H S^T)_il and its transpose, r_u = 1 - t or t the
    weight of entry u's node in M. Each sum over the rule is one stacked matmul
    (N, ., 16) @ (N, 16, .).
    """
    n, _, N, Q = Z.shape
    t = _GL16[0]
    eye = np.eye(n)[:, :, np.newaxis, np.newaxis]
    S = np.concatenate([-(eye + (1.0 - t) * Z), eye - t * Z])  # rows (node, j)
    a, b = 0.5 * (p.mu + p.mu_c), 0.5 * (p.mu - p.mu_c)
    g = 0.5 * p.kappa - p.mu / n

    def summed(L: np.ndarray, R: np.ndarray) -> np.ndarray:  # sum_q L[u, q] R[v, q], per chord
        return L.reshape(-1, N, Q).transpose(1, 0, 2) @ R.reshape(-1, N, Q).transpose(1, 2, 0)

    P = _entry_matmul(M_inv.swapaxes(0, 1), M_inv)
    SSt = _entry_matmul(S, S.swapaxes(0, 1))
    SM = _entry_matmul(S, M_inv)  # [(node, j), k]
    HSt = _entry_matmul(H, S.swapaxes(0, 1))  # [i, (node, l)]
    C = np.concatenate([(1.0 - t) * M_inv, t * M_inv])  # [(node, j), k]
    # axes after the chord: (node, i, j) of u, then (node, k, l) of v
    K = (a * summed(c * P, SSt)).reshape(N, n, n, 2, n, 2, n).transpose(0, 3, 1, 4, 5, 2, 6)
    SM2 = summed(c * SM, SM).reshape(N, 2, n, n, 2, n, n)  # [(node, j, k), (node, l, i)]
    K = K + b * SM2.transpose(0, 1, 6, 2, 4, 3, 5) + g * SM2.transpose(0, 1, 3, 2, 4, 6, 5)
    HSt = HSt.reshape(n, 2, n, N, Q).transpose(1, 0, 2, 3, 4)  # [(node, i, l)]
    X = summed(C, HSt).reshape(N, 2, n, n, 2, n, n).transpose(0, 1, 5, 2, 4, 3, 6)
    K = (K - X).reshape(N, 2 * n * n, 2 * n * n)
    return K - X.reshape(K.shape).swapaxes(1, 2)


def _block_solve(
    diag: np.ndarray, sub: np.ndarray, angle: Optional[Tuple[float, np.ndarray]], tau: float,
    r: np.ndarray,
) -> np.ndarray:
    """Solve A d = r for the symmetric A of a _path_hessian (diag, sub,
    angle) shifted by tau id, the angle's row and column first. Raises
    LinAlgError when A is not positive definite.

    Odd-even block cyclic reduction (Heller, SIAM J. Numer. Anal. 1976):
    each level eliminates the even-numbered blocks, whose batched Cholesky
    factors test their positive definiteness, and leaves the Schur
    complement on the odd ones, again block tridiagonal and half as long.
    So O(log N) stacked calls do O(N) work. The free angle borders the node
    system: one reduction solves it for r and for the angle's coupling
    column, and the angle's scalar Schur complement must be positive.
    """
    free = int(angle is not None)
    D, B = diag + tau * np.eye(4), sub
    R = r[free:].reshape(-1, 4, 1)
    if free:
        R = np.concatenate([R, np.zeros_like(R)], axis=-1)
        R[0, :, 1] = angle[1]
    levels = []  # per level: L^-1 of the eliminated blocks, and L^-1 [up | down | R] of their rows
    while len(D):
        kept, below = len(D) // 2, (len(D) - 1) // 2  # kept blocks; those with one eliminated below
        L_inv = np.linalg.inv(np.linalg.cholesky(D[0::2]))
        C = np.zeros(L_inv.shape[:2] + (8 + R.shape[-1],))
        C[1:, :, :4], C[:kept, :, 4:8], C[..., 8:] = B[1::2], B[0::2].swapaxes(-1, -2), R[0::2]
        W = L_inv @ C
        G = W.swapaxes(-1, -2) @ W
        levels.append((L_inv, W))
        D, R, B = D[1::2] - G[:kept, 4:8, 4:8], R[1::2] - G[:kept, 4:8, 8:], -G[1:kept, 4:8, :4]
        D[:below] -= G[1:, :4, :4]
        R[:below] -= G[1:, :4, 8:]
    X = R
    for L_inv, W in reversed(levels):  # back substitution, coarsest level first
        N = np.zeros((len(W), 8, X.shape[-1]))  # the kept neighbours above and below
        N[1:, :4], N[:len(X), 4:] = X[:len(W) - 1], X
        X_all = np.empty((len(W) + len(X),) + X.shape[1:])
        X_all[0::2], X_all[1::2] = L_inv.swapaxes(-1, -2) @ (W[..., 8:] - W[..., :8] @ N), X
        X = X_all
    if not free:
        return X.reshape(-1)
    y, z = X[..., 0].reshape(-1), X[..., 1].reshape(-1)
    s = angle[0] + tau - angle[1] @ z[:4]
    if not s > 0.0:
        raise np.linalg.LinAlgError("the angle's Schur complement is not positive")
    d0 = (r[0] - angle[1] @ y[:4]) / s
    return np.concatenate([[d0], y - d0 * z])


def _least_eigenvector(
    diag: np.ndarray, sub: np.ndarray, angle: Optional[Tuple[float, np.ndarray]], tau: float
) -> Tuple[np.ndarray, float]:
    """A unit vector near the eigenvector of the least eigenvalue of the
    symmetric A of Hessian stacks (diag, sub, angle), and the curvature
    1 / (v^T (A + tau id)^-1 v) - tau of the last iterate v, from four
    steps of inverse iteration with the positive definite A + tau id
    (_block_solve). The curvature is at most v^T A v, and equal to the
    eigenvalue once v has converged. The start is a fixed Philox draw, so
    the result is a function of A and tau."""
    v = substream(0, 0).standard_normal(4 * len(diag) + int(angle is not None))
    v /= np.linalg.norm(v)
    for _ in range(4):
        y = _block_solve(diag, sub, angle, tau, v)
        v, q = y / np.linalg.norm(y), float(v @ y)
    return v, 1.0 / q - tau


def _newton(
    x: np.ndarray, nodes_of: Callable, energy: Callable, max_evals: int, stats: dict
) -> Generator[Tuple[np.ndarray, float], None, float]:
    """Newton descent of the path energy over the variables x of
    _path_objective, from a start whose polyline lies in GL+.

    Yields every accepted iterate (x, value), the start first, and returns
    the polyline length of the last one, from its chord pass. A step solves
    with the exact Hessian (energy(x, hessian=True), from the chord pass of
    the accepted iterate), shifted by tau id where that is not positive
    definite (Nocedal and Wright, Numerical Optimization, 2nd ed., 3.4 and
    8.1). From the unit step, a trial that leaves GL+ halves the step
    without an evaluation, and one that misses the Armijo decrease halves
    it after one; either way its node stack is built once.

    When the Newton decrement reaches roundoff relative to the value after
    a shifted solve, x may be a saddle, where the shifted step is as small
    as the gradient. Then the least eigenvector v (_least_eigenvector) is
    tried if its curvature k is negative: the same backtracking along
    -+v, from unit length, accepts a trial below
    f + 1e-4 (alpha g.v + alpha^2 k / 2) that lowers f by more than its
    roundoff, and Newton goes on from there; such a step counts as a Newton
    step and as one of the escapes. Stops "converged" when the decrement
    reaches roundoff and no escape is taken, when an accepted step does
    not lower the value, or when no step of 2^-40 is acceptable, and
    "evaluations" before the evaluations (passes over the chords, each
    giving value, gradient and Hessian) would exceed max_evals. Counters
    and the stop reason go into stats.
    """
    f, g, chords = energy(x, True)
    stats.update(newton_steps=0, evaluations=1, shifts=0, backtracks=0, gl_halvings=0, escapes=0)
    yield x, f
    tau = floor = 0.0
    while True:
        diag, sub, angle = chords()
        # carry a quarter of tau over until it reaches the floor; searching
        # afresh on each step costs more failed factorizations
        tau = 0.25 * tau if tau > floor else 0.0
        while True:
            try:
                d = _block_solve(diag, sub, angle, tau, -g)
                break
            except np.linalg.LinAlgError:
                stats["shifts"] += 1
                # a floor near 1e-3 of the diagonal made the steps crawl along
                # nearly flat directions (pinned paths to F near id)
                top = np.max(np.abs(np.diagonal(diag, axis1=1, axis2=2)))
                floor = 1e-8 * float(max(top, abs(angle[0]) if angle else 0.0))
                tau = max(2.0 * tau, floor)
        slope, alpha, curvature = float(g @ d), 1.0, 0.0
        # roundoff of E, a sum of 16N positive terms, is about 16N ulps
        roundoff = 16 * (x.size // 4 + 1) * 2.0 ** -52 * f
        if -0.5 * slope <= roundoff:
            if tau > 0.0:  # A is indefinite or nearly so: x may be a saddle
                d, curvature = _least_eigenvector(diag, sub, angle, tau)
            if not curvature < 0.0:
                stats["stop"] = "converged"
                return chords.length()
            d = -d if g @ d > 0.0 else d
            slope = float(g @ d)
        while True:
            model = alpha * slope + 0.5 * alpha * alpha * curvature
            if alpha < 2.0 ** -40 or (curvature < 0.0 and -model <= roundoff):
                stats["stop"] = "converged"
                return chords.length()
            if stats["evaluations"] >= max_evals:
                stats["stop"] = "evaluations"
                return chords.length()
            trial = x + alpha * d
            nodes = nodes_of(trial)
            if not _in_gl_plus(nodes):
                stats["gl_halvings"] += 1
            else:
                stats["evaluations"] += 1
                f_trial, g_trial, chords_trial = energy(trial, True, nodes)
                if f_trial <= f + 1e-4 * model and (curvature == 0.0 or f - f_trial > roundoff):
                    break
                stats["backtracks"] += 1
            alpha *= 0.5
        if not f_trial < f:
            stats["stop"] = "converged"
            return chords.length()
        x, f, g, chords = trial, f_trial, g_trial, chords_trial
        stats["newton_steps"] += 1
        stats["escapes"] += int(curvature < 0.0)
        yield x, f


def _start_nodes(F: np.ndarray, theta0: float, n_seg: int) -> np.ndarray:
    """The start polyline of a path search, a node stack (N+1, 2, 2): node k
    is rot(theta0 + (k/N) sweep) ((1 - k/N) id + (k/N) U), node N is F, with
    U the right stretch and sweep the turn to the polar angle shorter than
    pi (0 for a free search, whose start is the line (1 - s) R + s F).

    Every chord lies in GL+: consecutive nodes P = rot(phi) B diag(p) B^T
    and Q = rot(phi + delta) B diag(q) B^T share U's frame B, p, q > 0, and
    |delta| = |sweep| / N <= pi/4 as N >= 4. In the plane
    B^T rot(delta) B = rot(+-delta), so det((1 - t) P + t Q) =
    [(1 - t) p_1 + t q_1 cos delta][(1 - t) p_2 + t q_2 cos delta]
    + t^2 q_1 q_2 sin^2 delta > 0."""
    pol = polar_decompose(F)
    theta_r = math.atan2(pol.rotation[1, 0], pol.rotation[0, 0])
    k = np.arange(n_seg + 1) / n_seg
    angle = theta0 + ((theta_r - theta0 + math.pi) % (2.0 * math.pi) - math.pi) * k
    c, s = np.cos(angle), np.sin(angle)
    k = k[:, np.newaxis, np.newaxis]
    X = np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0) @ ((1.0 - k) * np.eye(2) + k * pol.right_stretch)
    X[-1] = F
    return X


def _path_objective(
    X0: np.ndarray, theta0: Optional[float], p: MetricParams
) -> Tuple[np.ndarray, Callable, Callable]:
    """Variables and objective of the path search for polylines shaped like
    the planar node stack X0 (N+1, 2, 2).

    x is the free start angle (none if theta0 is None: node 0 stays that of
    X0) and the interior nodes' entries, node-major (entry (i, j) of node k
    at free + 4 (k - 1) + 2 i + j); node N stays F. No chart around X0
    (say one weighing moves as the left-invariant metric does) would
    help: an unshifted Newton step does not change under an affine change
    of variables. Returns x0, nodes_of (x -> entry-major node stack
    (2, 2, N+1)) and energy (x -> _path_energy and its gradient in x),
    which assumes the polyline lies in GL+; it builds the node stack with
    nodes_of unless given it as nodes. energy(x, hessian=True) adds a
    _ChordPass of the polyline's length and the Hessian in x: the diagonal
    blocks of the interior nodes, a stack (N-1, 4, 4), the blocks below
    them, (N-2, 4, 4), both sums of chord blocks, and, with the angle
    free, its diagonal entry and its 4-vector coupling to interior node 1
    (else None). The angle's entry is d^T D_0 d - <G_0, rot(theta)>,
    d = d rot(theta) / d theta, with D_0 and G_0 the Hessian block and
    gradient of node 0.
    """
    n_seg = X0.shape[0] - 1
    free = int(theta0 is not None)
    E0 = np.moveaxis(X0, 0, -1)

    def nodes_of(x: np.ndarray) -> np.ndarray:
        E = E0.copy()
        if free:
            c, s = np.cos(x[0]), np.sin(x[0])
            E[..., 0] = ((c, -s), (s, c))
        E[..., 1:n_seg] = x[free:].reshape(-1, 2, 2).transpose(1, 2, 0)
        return E

    def energy(x: np.ndarray, hessian: bool = False, nodes: Optional[np.ndarray] = None) -> tuple:
        value, G, *chords = _path_energy(nodes_of(x) if nodes is None else nodes, p, hessian)
        G0 = G[..., 0]
        g = np.empty(x.shape)
        g[free:] = G[..., 1:n_seg].transpose(2, 0, 1).reshape(-1)
        if free:  # d rot2(theta) / d theta = [[-sin, -cos], [cos, -sin]]
            c, s = np.cos(x[0]), np.sin(x[0])
            g[0] = c * (G0[1, 0] - G0[0, 1]) - s * (G0[0, 0] + G0[1, 1])
        if not hessian:
            return value, g

        def in_x() -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[float, np.ndarray]]]:
            K = chords[0]().reshape(n_seg, 2, 4, 2, 4)  # [chord, start/end node, entry]
            diag, sub = K[:-1, 1, :, 1] + K[1:, 0, :, 0], K[1:-1, 1, :, 0]
            if not free:
                return diag, sub, None
            d = np.array([-s, -c, c, -s])
            bend = c * (G0[0, 0] + G0[1, 1]) + s * (G0[1, 0] - G0[0, 1])  # <G_0, rot(theta)>
            return diag, sub, (float(d @ K[0, 0, :, 0] @ d - bend), d @ K[0, 0, :, 1])

        return value, g, _ChordPass(in_x, chords[0].length)

    return np.concatenate([[theta0] if free else [], X0[1:n_seg].reshape(-1)]), nodes_of, energy


def _run_path_search(
    F: np.ndarray, p: MetricParams, cfg: OracleConfig, pinned_theta: Optional[float]
) -> Tuple[float, dict]:
    """_newton descent of the discrete path energy over the interior nodes
    and, unless pinned, the start angle, under cfg.max_iters evaluations.

    Every search starts on _start_nodes from the rotation at theta (the
    polar angle when free) to F, which turns and stretches together and lies
    in GL+ by construction. No randomness beyond the one fixed draw of
    _least_eigenvector. Returns the _polyline_length of the final polyline,
    which _newton takes from that polyline's chord pass, and the stats:
    newton_steps, evaluations, shifts, backtracks, gl_halvings, escapes,
    nodes, theta, stop and seconds.
    """
    t_start = time.perf_counter()
    R = polar_decompose(F).rotation
    theta0 = math.atan2(R[1, 0], R[0, 0]) if pinned_theta is None else pinned_theta
    x0, nodes_of, energy = _path_objective(_start_nodes(F, theta0, cfg.nodes),
                                           theta0 if pinned_theta is None else None, p)
    stats = {"nodes": cfg.nodes}
    descent = _newton(x0, nodes_of, energy, int(cfg.max_iters), stats)
    while True:
        try:
            x, _ = next(descent)
        except StopIteration as stop:
            length = stop.value
            break
    stats["theta"] = theta0 if pinned_theta is not None else float(x[0])
    stats["seconds"] = time.perf_counter() - t_start
    return length, stats


def _path_activity(F: np.ndarray, theta_span: float) -> float:
    """Per-unit-arc variation scale of a rotation-to-F path: the largest
    principal log stretch plus the rotation angle it has to sweep."""
    d_max = max(map(abs, spectral_record(F).logs))
    return math.sqrt(d_max * d_max + theta_span * theta_span)


def geodesic_distance_oracle(F: Mat, p: MetricParams, cfg: OracleConfig) -> OracleVerdict:
    """Shortest polyline from the rotation group to F found by a discrete
    geodesic search.

    Planar only. Newton's method minimizes the discrete path energy of
    cfg.nodes chords over the start rotation and all interior nodes
    (_run_path_search); the value is the length of the final polyline, a
    curve from SO(2) to F, so it cannot lie below the distance. The verdict
    passes when it is at most cfg.tol (relative) above the closed form and
    not below it. Its stats are those of the search.
    """
    F = _input(F, (2,), "discrete path search is implemented for")
    closed = dist_squared_to_SO(F, p).distance
    value, stats = _run_path_search(F, p, cfg, pinned_theta=None)
    return OracleVerdict.of(
        "geodesic distance to the rotation group (discrete path)", closed, value,
        closed * (1.0 - 1e-9) <= value <= closed + cfg.tol * max(closed, 1e-6),
        _rot2(stats["theta"]), stats,
    )


def best_approx_uniqueness_probe(F: Mat, p: MetricParams, cfg: OracleConfig) -> OracleVerdict:
    """Pin the path's rotation endpoint away from the polar factor and check
    the distance strictly exceeds the free minimum.

    Samples cfg.samples rotations, keeps those farther than 0.1 from the
    polar factor (or, if none is, takes the rotation 0.5 rad past it), and
    runs the pinned discrete search for each. Passes when every pinned
    polyline length exceeds the closed-form distance by more than 1e-9.
    Its stats list the stats of every search, in sample order.
    """
    F = _input(F, (2,), "discrete path search is implemented for")
    pol = polar_decompose(F)
    closed = dist_squared_to_SO(F, p).distance
    rng = substream(cfg.seed, 0)
    far = [
        Q for Q in _random_rotations(rng, 2, int(cfg.samples))
        if float(np.linalg.norm(Q - pol.rotation)) > 0.1
    ]
    if not far:
        far = [_rot2(math.atan2(pol.rotation[1, 0], pol.rotation[0, 0]) + 0.5)]

    min_excess = math.inf
    worst = far[0]
    searches = []
    for Q in far:
        value, stats = _run_path_search(F, p, cfg, pinned_theta=math.atan2(Q[1, 0], Q[0, 0]))
        searches.append(stats)
        if value - closed < min_excess:
            min_excess, worst = value - closed, Q
    return OracleVerdict.of(
        "uniqueness of the best rotation (pinned-endpoint paths)", closed, closed + min_excess,
        min_excess > _GAP_FLOOR, worst, {"searches": searches},
    )


# ---------------------------------------------------------------------------
# sampled logarithm inequality
# ---------------------------------------------------------------------------

# The 3x3 logs take the Taylor branch when all three eigenvalues lie within
# _CLUSTER times their mean m of m. Outside it the divided difference over
# the farthest pair loses at most about 2 eps / _CLUSTER of its digits; in
# it the series, cut after _TAYLOR_TERMS terms, leaves a remainder below
# _CLUSTER ** (_TAYLOR_TERMS - 1) = 1e-18 of its quadratic term.
_CLUSTER = 1e-2
_TAYLOR_TERMS = 10


def _pair_off_axis(s: np.ndarray, q: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Whether both eigenvalues s +- sqrt(q) of a real pair (a conjugate
    pair when q < 0) with product det keep off the closed negative real
    axis. An eigenvalue counts as on it when its imaginary part is at most
    1e-12 max(1, |lambda|) and its real part is not positive; the sign of
    the smaller one of a real pair is that of det. The pair comes from M
    divided by a power of two near its largest element, so 2^k M gets the
    answer of M; for other c M the floor moves by less than a factor of 2."""
    w = np.sqrt(np.abs(q))
    conjugate_on = (w <= 1e-12 * np.maximum(1.0, np.hypot(s, w))) & (s <= 0.0)
    return ~np.where(q >= 0.0, (s <= 0.0) | (det <= 0.0), conjugate_on)


def _log_slope(s: np.ndarray, q: np.ndarray, det: np.ndarray) -> np.ndarray:
    """The divided difference f[b, a] of the principal log over an eigenvalue
    pair a, b = s +- sqrt(q) with product det, off the negative axis:
    atanh(sqrt q / s) / sqrt q for a real pair, atan2(sqrt -q, s) / sqrt -q
    for a conjugate pair and 1 / s for a double eigenvalue. For the
    conjugate pair, atan2 is Higham's 2 atanh(z) / (a - b) with its
    unwinding term (Functions of Matrices, 2008, eq. 11.28), so pairs just
    off the negative axis come out right. A real pair far apart takes
    atanh = log(a / b) / 2 with b = det / a, which keeps the digits of a
    small eigenvalue that s - sqrt(q) would cancel away."""
    w = np.sqrt(np.abs(q))
    safe = np.where(q == 0.0, 1.0, w)
    atanh = np.where(w < 0.5 * s, np.arctanh(w / s), np.log(s + w) - 0.5 * np.log(det))
    slope = np.where(q > 0.0, atanh, np.arctan2(w, s)) / safe
    return np.where(q == 0.0, 1.0 / s, slope)


def _log_dd(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The divided difference f[x, y] = log(y / x) / (y - x) of the principal
    log for a positive node x and a node y off the closed negative axis.
    Their arguments differ by less than pi, so the unwinding term of
    Higham's eq. 11.28 is zero. log(y / x) is taken in real arithmetic,
    through log1p of d = (y - x) / x when y is near x, which keeps its
    digits, and at a fraction of the cost of numpy's complex log."""
    diff = y - x
    d = diff / x
    dr, di = d.real, d.imag
    near = 0.5 * np.log1p(dr * (2.0 + dr) + di * di)
    far = np.log(np.abs(y)) - np.log(x)
    log_ratio = np.where(np.abs(d) < 0.5, near, far) + 1j * np.arctan2(y.imag, y.real)
    return np.where(diff == 0.0, 1.0 / x, log_ratio / diff)


def _dominant_root(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The real root of largest modulus of mu^3 + P mu + Q = 0: Cardano's
    form where it is the only real root, the trigonometric form where all
    three are real, then two Newton steps. The cubic is first scaled by the
    power of two at or above max(|P|^(1/2), |Q|^(1/3)), so that the squares
    and cubes below stay in range however small P and Q are."""
    size = np.maximum(np.sqrt(np.abs(P)), np.cbrt(np.abs(Q)))
    unit = np.ldexp(1.0, np.frexp(size)[1])  # 1 where P = Q = 0
    P, Q = P / unit / unit, Q / unit / unit / unit
    D = (0.5 * Q) ** 2 + (P / 3.0) ** 3
    u = np.cbrt(-0.5 * Q - np.copysign(np.sqrt(np.maximum(D, 0.0)), Q))
    rho = np.sqrt(np.maximum(-P / 3.0, 0.0))
    angle = np.arccos(np.minimum(np.abs(Q) / (2.0 * rho ** 3), 1.0)) / 3.0
    trig = np.where(rho > 0.0, np.copysign(2.0 * rho * np.cos(angle), -Q), 0.0)
    mu = np.where(D > 0.0, u - P / (3.0 * u), trig)
    for _ in range(2):
        slope = 3.0 * mu * mu + P
        mu = np.where(slope != 0.0, mu - ((mu * mu + P) * mu + Q) / slope, mu)
    return mu * unit


def _det3(A: np.ndarray) -> np.ndarray:
    """Determinants of an entry-major 3x3 stack, by cofactors."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
    return a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) + a02 * (a10 * a21 - a11 * a20)


def _taylor_coeffs(m: np.ndarray, P: np.ndarray, Q: np.ndarray) -> List[np.ndarray]:
    """(a0, a1, a2) with log(m I + B) = a0 I + a1 B + a2 B^2 for a traceless B
    whose eigenvalues are small against m > 0: log m plus the series
    sum_j (-1)^(j+1) X^j / j in X = B / m, whose powers Cayley-Hamilton
    reduces to X^2 (X^3 = -P' X - Q' I with P' = P / m^2, Q' = Q / m^3)."""
    P, Q = P / m / m, Q / m / m / m
    a = [np.zeros_like(m)] * 3
    u, v, w = np.ones_like(m), np.zeros_like(m), np.zeros_like(m)  # X^j = u I + v X + w X^2
    for j in range(1, _TAYLOR_TERMS + 1):
        u, v, w = -w * Q, u - w * P, v
        g = (-1.0) ** (j + 1) / j
        a = [a[0] + g * u, a[1] + g * v, a[2] + g * w]
    return [np.log(m) + a[0], a[1] / m, a[2] / m / m]


def _pair(C: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, q, det) of an entry-major 2x2 stack: its eigenvalues are
    s +- sqrt(q), q = ((c00 - c11) / 2)^2 + c01 c10 taken from the entries
    so that q keeps its digits when the two come close."""
    (c00, c01), (c10, c11) = C
    return 0.5 * (c00 + c11), (0.5 * (c00 - c11)) ** 2 + c01 * c10, c00 * c11 - c01 * c10


def _deflate(E: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The 2x2 block U^T M U of an entry-major 3x3 stack on the plane
    orthogonal to a left eigenvector l of its real eigenvalue r. M maps
    that plane into itself, so the block carries the other two eigenvalues.
    l is the longest cross product of two columns of M - r I; U holds the
    last two columns of the Householder reflection taking l to an axis."""
    K = E - r * np.eye(3)[:, :, np.newaxis]
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = K
    c01 = np.array([k10 * k21 - k20 * k11, k20 * k01 - k00 * k21, k00 * k11 - k10 * k01])
    c02 = np.array([k10 * k22 - k20 * k12, k20 * k02 - k00 * k22, k00 * k12 - k10 * k02])
    c12 = np.array([k11 * k22 - k21 * k12, k21 * k02 - k01 * k22, k01 * k12 - k11 * k02])
    n01, n02, n12 = ((c * c).sum(axis=0) for c in (c01, c02, c12))
    v = np.where(n01 >= np.maximum(n02, n12), c01, np.where(n02 >= n12, c02, c12))
    v /= np.sqrt((v * v).sum(axis=0))
    v[0] += np.copysign(1.0, v[0])
    U = np.eye(3)[:, 1:, np.newaxis] - (2.0 / (v * v).sum(axis=0)) * v[:, np.newaxis] * v[1:]
    MU = sum(E[:, j, np.newaxis] * U[j] for j in range(3))
    return sum(U[i, :, np.newaxis] * MU[i] for i in range(3))


def _principal_logs(M: np.ndarray, stats: Optional[dict] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Principal real logs of a stack of 2x2 or 3x3 matrices, shape (k, n, n).

    Returns (logs, ok). ok[i] is False, and logs[i] zero, where M[i] has no
    principal log (a spectrum touching the closed negative real axis) or its
    eigenvalue moduli spread past COND_LIMIT (doubles lose the small ones).
    No eigenvector basis is formed: every log is a polynomial of degree n - 1
    in N = M - s I, s the centre of an eigenvalue pair a, b = s +- sqrt(q),
    with closed-form coefficients on entry-major vectors of length k, each
    matrix first divided by a power of two near its largest element.

    2x2: log M = (1/2) log det M I + f[a, b] N (_log_slope).
    3x3: the real eigenvalue r = m + mu, for m = tr M / 3 and mu the
    dominant root of the characteristic cubic of B = M - m I, and the pair
    from the 2x2 block left by deflating r (_deflate, one cross product; the
    cubic alone gives q only to about eps |M|^2, which loses a pair close
    to the negative axis). In Newton's divided-difference form
    log M = (1/2) log(a b) I + f[a, b] N + f[a, b, r] (N^2 - q I),
    where f[a, b, r] is the quotient over the two eigenvalues farthest
    apart. When all three lie within _CLUSTER m of m, that quotient is near
    0/0 and the coefficients come from the Taylor series about m instead
    (_taylor_coeffs, with s = m); stats["clustered"] counts those entries,
    and the 2x2 entries with a double eigenvalue, when a stats dict is given.
    """
    E = np.moveaxis(np.asarray(M, dtype=float), 0, -1)
    n = E.shape[0]
    # divide each matrix by the power of two at or above its largest element,
    # exactly, so that no square or cube below under- or overflows
    scale = np.ldexp(1.0, np.frexp(np.abs(E).max(axis=(0, 1)))[1])
    E = E / scale
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 2:
            s, q, det = _pair(E)
            big = np.abs(s) + np.sqrt(np.maximum(q, 0.0))  # a conjugate pair has s^2 <= det
            ok = _pair_off_axis(s, q, det) & (big * big <= COND_LIMIT * np.abs(det))
            clustered = ok & (q == 0.0)
            e0, e1 = 0.5 * np.log(det), _log_slope(s, q, det)
        else:
            m = np.trace(E) / 3.0
            B = E - m * np.eye(3)[:, :, np.newaxis]
            (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B
            P = b00 * b11 + b00 * b22 + b11 * b22 - b01 * b10 - b02 * b20 - b12 * b21
            Q = -_det3(B)
            mu = _dominant_root(P, Q)
            r = m + mu
            radius = np.maximum(np.abs(mu), 0.5 * np.abs(mu) + np.sqrt(np.abs(P + 0.75 * mu * mu)))
            clustered = (m > 0.0) & (radius <= _CLUSTER * m)
            s, q, det = _pair(_deflate(E, r))
            w = np.sqrt(q + 0j)
            a = s + w
            b = np.where(q > 0.0, det / a, s - w)  # s - w would cancel a small eigenvalue
            spread = np.abs([r, a, b]).max(axis=0) <= COND_LIMIT * np.abs([r, a, b]).min(axis=0)
            ok = (r > 0.0) & (_det3(E) > 0.0) & (clustered | spread & _pair_off_axis(s, q, det))
            clustered &= ok
            d_ab, d_ra, d_rb = np.abs(a - b), np.abs(r - a), np.abs(r - b)
            e1 = _log_slope(s, q, det)
            f_ra, f_rb = _log_dd(r, a), _log_dd(r, b)
            e2 = np.where(
                d_ab >= np.maximum(d_ra, d_rb), (f_rb - f_ra) / (b - a),
                np.where(d_ra >= d_rb, (e1 - f_rb) / (a - r), (e1 - f_ra) / (b - r)),
            ).real
            e0 = 0.5 * np.log(det) - e2 * q
            if clustered.any():
                s[clustered] = m[clustered]
                e0[clustered], e1[clustered], e2[clustered] = _taylor_coeffs(
                    m[clustered], P[clustered], Q[clustered]
                )
        N = E - s * np.eye(n)[:, :, np.newaxis]
        L = e1 * N
        if n == 3:
            L += e2 * sum(N[:, j, np.newaxis] * N[j] for j in range(3))
        np.einsum("ii...->i...", L)[...] += e0 + np.log(scale)
    L[..., ~ok] = 0.0
    if stats is not None:
        stats["clustered"] = int(np.count_nonzero(clustered))
    return np.moveaxis(L, -1, 0), ok


def _metric_map(S: np.ndarray, p: MetricParams) -> np.ndarray:
    """mu dev sym S + mu_c skew S + (kappa/2) tr S id for an entry-major
    stack S (n, n, ...).

    The three parts are orthogonal projections of S, so <S, _metric_map(S)>
    is the squared weighted norm mu ||dev sym S||^2 + mu_c ||skew S||^2 +
    (kappa/2) tr^2 S, and 2 _metric_map(S) is its gradient.
    """
    n = S.shape[0]
    out = 0.5 * (p.mu + p.mu_c) * S + 0.5 * (p.mu - p.mu_c) * S.swapaxes(0, 1)
    np.einsum("ii...->i...", out)[...] += (0.5 * p.kappa - p.mu / n) * S.trace()
    return out


def _stacked_weighted_norms(S: np.ndarray, p: MetricParams) -> np.ndarray:
    """matcore.weighted_norm of every matrix in an entry-major stack (n, n, ...)."""
    return np.sqrt(np.maximum(np.sum(S * _metric_map(S, p), axis=(0, 1)), 0.0))


# Two entries: a caller that checks 2x2 and 3x3 inputs under one config, as
# acceptance criterion 3 does, keeps the draws of both dimensions.
@lru_cache(maxsize=2)
def _rotation_draws(seed: int, n: int, count: int) -> np.ndarray:
    """The `count` rotations that _random_rotations draws on SO(n) from
    substream(seed, 0), as their contiguous entry-major stack (n, n, count).
    Remembered, so the array is read-only (about 0.7 MB for 10^4 spatial
    draws)."""
    Q = np.moveaxis(_random_rotations(substream(seed, 0), n, count), 0, -1)
    Q.setflags(write=False)
    return Q


# One entry: logmin_oracle and weighted_logmin_oracle check one F under one
# config back to back, and what they sample does not depend on the metric.
@lru_cache(maxsize=1)
def _sampled_logs(
    f_key: bytes, r_key: bytes, n: int, seed: int, samples: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The rotations Q of a log sampling of the n x n F with polar rotation
    R, given by their bytes: R, then the `samples` draws of
    _rotation_draws(seed, n, samples). Returns Q, the _principal_logs of
    every Q^T F with their ok mask, and the count of clustered entries. The
    products Q^T F are formed in the entry-major layout of the draws, a
    contiguous stack (n, n, samples + 1), so _principal_logs works on
    contiguous rows. The last result is
    remembered, so its arrays are read-only; errors are never remembered."""
    F, R = (np.frombuffer(key).reshape(n, n) for key in (f_key, r_key))
    Q = np.concatenate([R[:, :, np.newaxis], _rotation_draws(seed, n, samples)], axis=-1)
    stats: dict = {}
    QtF = _entry_matmul(Q.swapaxes(0, 1), F[:, :, np.newaxis])
    logs, ok = _principal_logs(np.moveaxis(QtF, -1, 0), stats)
    Q = np.moveaxis(Q, -1, 0)
    for X in (Q, logs, ok):
        X.setflags(write=False)
    return Q, logs, ok, stats["clustered"]


def _logmin_impl(F: np.ndarray, cfg: OracleConfig, p: MetricParams, claim: str) -> OracleVerdict:
    """Sample rotations Q and compare the p-weighted norm of sym log(Q^T F)
    with the closed form dist(F, SO(n)) under p.

    Index 0 of the stack is the polar factor, followed by cfg.samples draws
    from substream(cfg.seed, 0), which are drawn once per seed, dimension
    and count and then remembered (_rotation_draws), so a caller checking
    several F under one config pays for them once. All Q^T F go through
    _principal_logs in one contiguous entry-major stack, which the next call
    on the same F and config reuses whatever its metric (_sampled_logs);
    samples without a principal log are skipped. The norms work on the
    contiguous rows of the logs. The reductions keep sample order: the
    witness is the first violating sample, or else the first minimizer, and
    equality with the closed form is judged at the polar factor. The stats
    give the sample count, the entries skipped (the polar factor included)
    and the clustered entries.
    """
    closed = dist_squared_to_SO(F, p).distance
    Q, logs, ok, clustered = _sampled_logs(
        F.tobytes(), polar_decompose(F).rotation.tobytes(), F.shape[0], int(cfg.seed), int(cfg.samples)
    )
    stats = {"samples": int(cfg.samples), "clustered": clustered, "skipped": int(np.count_nonzero(~ok))}
    logs = np.moveaxis(logs, (-2, -1), (0, 1))
    values = np.where(ok, _stacked_weighted_norms(0.5 * (logs + logs.swapaxes(0, 1)), p), math.inf)

    violations = np.flatnonzero(values < closed - 1e-9)
    min_val = float(np.min(values))
    if violations.size:
        witness: Optional[np.ndarray] = Q[violations[0]].copy()
    elif ok.any():
        witness = Q[int(np.argmin(values))].copy()
    else:
        witness = None
    attained = bool(ok[0] and abs(values[0] - closed) <= 1e-8)
    return OracleVerdict.of(claim, closed, min_val, violations.size == 0 and attained, witness, stats)


def logmin_oracle(F: Mat, cfg: OracleConfig) -> OracleVerdict:
    """Sampled check that no admissible rotation beats the polar factor in
    the symmetric-log misfit.

    For the polar factor and cfg.samples rotations Q drawn from
    substream(cfg.seed, 0), whenever Q^T F has a principal real log, the
    Frobenius norm of sym log(Q^T F) must stay above the norm of log of the
    right stretch (up to 1e-9), with equality at the polar factor itself
    (to 1e-8). Only principal branches are sampled; non-principal logs are
    out of scope. All samples are evaluated as one stack (see _logmin_impl).
    The witness is the first violating rotation, or else the first one of
    least misfit.
    """
    F = _input(F, (2, 3), "log sampling supports")
    return _logmin_impl(
        F, cfg, MetricParams.frobenius(F.shape[0]), "symmetric-log misfit minimized by the polar factor"
    )


def weighted_logmin_oracle(F: Mat, p: MetricParams, cfg: OracleConfig) -> OracleVerdict:
    """Weighted-norm variant of logmin_oracle.

    The closed-form target is the weighted norm of log of the right stretch;
    its square splits as mu*||dev log U||^2 + (kappa/2)*tr^2(log U) because
    the log of a stretch is symmetric and the spin weight never engages.
    """
    return _logmin_impl(
        _input(F, (2, 3), "log sampling supports"), cfg, p,
        "weighted symmetric-log misfit minimized by the polar factor",
    )
