"""Brute-force numerical cross-checks for the closed-form distance results.

Every engine in this module re-derives a minimum by direct search so the
closed forms elsewhere in the package can be checked against something that
does not share their code path: golden-section / multi-start descent over the
rotation group, discrete geodesics on GL+(2) (L-BFGS on the discrete path
energy of a matrix polyline, with its analytic gradient, judged by the
polyline's length), and large-sample admissible-logarithm sweeps.

All randomness is drawn from counter-derived Philox substreams, so a verdict
is a pure function of the inputs and the config (bitwise, independent of how
the evaluation might be scheduled); reductions always run in sample order.
Only the wall time in a verdict's stats varies from run to run.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .matcore import (
    Mat,
    MetricParams,
    as_square,
    polar_decompose,
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


@dataclass(frozen=True)
class OracleConfig:
    """Knobs shared by all verification engines.

    nodes counts path segments for the discrete geodesic search. max_iters
    bounds objective evaluations: per compass-descent start of the spatial
    rotation search, and per path search, whose L-BFGS descent also stops
    after 300 iterations, whichever comes first.
    """

    seed: int = 0
    samples: int = 200
    nodes: int = 12
    tol: float = 0.02
    max_iters: int = 60000

    def __post_init__(self) -> None:
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if int(self.samples) != self.samples or self.samples < 1:
            raise ValueError("samples must be a positive integer")
        if int(self.nodes) != self.nodes or self.nodes < 4:
            raise ValueError("nodes must be an integer >= 4")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if int(self.max_iters) != self.max_iters or self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")


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


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rot3_axis_angle(w: Sequence[float]) -> np.ndarray:
    """Rotation exp([w]_x) by the Rodrigues formula (series near zero)."""
    wx, wy, wz = float(w[0]), float(w[1]), float(w[2])
    theta2 = wx * wx + wy * wy + wz * wz
    theta = math.sqrt(theta2)
    if theta < 1e-8:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    K = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    return np.eye(3) + a * K + b * (K @ K)


def _random_rotations(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` rotations uniform on SO(n), shape (count, n, n).

    The stream is consumed sample by sample (one angle per planar rotation,
    four normals per spatial one), so the first k rotations do not depend
    on `count`.
    """
    if n == 2:
        theta = rng.uniform(-math.pi, math.pi, size=count)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    # uniform on SO(3) via normalized quaternions
    q = rng.standard_normal((count, 4))
    a, b, c, d = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _kronecker_ball_starts(count: int) -> List[np.ndarray]:
    """Low-discrepancy axis-angle seeds filling the radius-pi ball.

    Additive Kronecker sequence driven by the quartic analogue of the golden
    ratio; it has no chart seam at angle pi because the seeds cover both
    hemispheres of axes.
    """
    g = 1.2207440846057595
    alphas = (1.0 / g, 1.0 / g ** 2, 1.0 / g ** 3)
    starts = []
    u = [0.5, 0.5, 0.5]
    for _ in range(count):
        u = [(x + a) % 1.0 for x, a in zip(u, alphas)]
        z = 2.0 * u[0] - 1.0
        phi = 2.0 * math.pi * u[1]
        r = math.pi * u[2] ** (1.0 / 3.0)
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        starts.append(r * np.array([rho * math.cos(phi), rho * math.sin(phi), z]))
    return starts


def _golden_min(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-12
) -> Tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _compass_min(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    step: float,
    min_step: float,
    budget: int,
) -> Tuple[np.ndarray, float, int]:
    """Coordinate pattern search; returns (argmin, value, evals used)."""
    x = np.array(x0, dtype=float)
    fx = f(x)
    evals = 1
    while step > min_step and evals < budget:
        improved = False
        for i in range(x.size):
            for s in (step, -step):
                if evals >= budget:
                    break
                trial = x.copy()
                trial[i] += s
                ft = f(trial)
                evals += 1
                if ft < fx:
                    x, fx = trial, ft
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return x, fx, evals


def _relative_gap(oracle: float, closed: float) -> float:
    """Gap relative to the closed form; absolute when the closed form is
    essentially zero (a ratio against 1e-16 would only mislead)."""
    if abs(closed) <= 1e-12:
        return oracle - closed
    return (oracle - closed) / abs(closed)


# ---------------------------------------------------------------------------
# rotation-group minimization of the Euclidean misfit
# ---------------------------------------------------------------------------

def grioli_oracle(F: Mat, cfg: OracleConfig) -> OracleVerdict:
    """Minimize ||Q^T F - id|| over rotations by direct search.

    Planar inputs get a coarse angle scan refined by golden section; spatial
    inputs get multi-start compass descent in axis-angle coordinates. The
    verdict passes when the search never beats the polar closed form by more
    than cfg.tol and the best rotation lands on the polar factor.
    """
    F = as_square(np.asarray(F, dtype=float), "F")
    n = F.shape[0]
    if n not in (2, 3):
        raise ValueError("rotation search supports 2x2 and 3x3 inputs only")
    report = euclid_dist_to_SO(F)
    closed = report.distance

    if n == 2:
        def g(theta: float) -> float:
            return float(np.linalg.norm(_rot2(theta).T @ F - np.eye(2)))

        m = max(int(cfg.samples), 32)
        grid = -math.pi + 2.0 * math.pi * (np.arange(m) + 0.5) / m
        vals = [g(t) for t in grid]
        k = int(np.argmin(vals))
        h = 2.0 * math.pi / m
        theta, best = _golden_min(g, grid[k] - h, grid[k] + h)
        q_best = _rot2(theta)
    else:
        def g3(w: np.ndarray) -> float:
            return float(np.linalg.norm(_rot3_axis_angle(w).T @ F - np.eye(3)))

        starts = _kronecker_ball_starts(20)
        coarse_budget = max(cfg.max_iters // 40, 200)
        coarse: List[Tuple[float, np.ndarray]] = []
        for w0 in starts:
            w, val, _ = _compass_min(g3, w0, step=0.5, min_step=5e-3, budget=coarse_budget)
            coarse.append((val, w))
        coarse.sort(key=lambda item: item[0])
        best = math.inf
        w_best = coarse[0][1]
        for _, w0 in coarse[:3]:
            w, val, _ = _compass_min(
                g3, w0, step=2e-2, min_step=1e-9, budget=cfg.max_iters
            )
            if val < best:
                best, w_best = val, w
        q_best = _rot3_axis_angle(w_best)

    matches = float(np.linalg.norm(q_best - report.minimizer)) <= 1e-4
    passed = best >= closed - cfg.tol and matches
    return OracleVerdict(
        claim=f"rotation misfit minimum ({n}x{n})",
        closed_form_value=closed,
        oracle_value=float(best),
        relative_gap=_relative_gap(best, closed),
        passed=passed,
        witness=q_best,
    )


# ---------------------------------------------------------------------------
# discrete geodesic path search
# ---------------------------------------------------------------------------

_LBFGS_MEMORY = 10
_LBFGS_ITERATIONS = 300


def _gauss_legendre(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [0, 1] (Golub-Welsch: the nodes are
    the eigenvalues of the Jacobi matrix of the Legendre recurrence, the
    weights the squared first components of its eigenvectors)."""
    k = np.arange(1, m)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), V[0] ** 2


_GL_T, _GL_W = _gauss_legendre(16)


def _in_gl_plus(nodes: np.ndarray) -> bool:
    """Whether every chord A -> A + D of a planar node stack (N+1, 2, 2)
    stays in GL+: det(A + tD) = q0 + lin t + q2 t^2 is smallest on [0, 1]
    at an end or at the vertex clipped into [0, 1]."""
    A = nodes[:-1]
    q0, q1, q2 = np.linalg.det(A), np.linalg.det(nodes[1:]), np.linalg.det(nodes[1:] - A)
    lin = q1 - q0 - q2
    t = np.clip(np.divide(-lin, 2.0 * q2, out=np.zeros_like(q2), where=q2 > 0.0), 0.0, 1.0)
    return bool(np.all(np.minimum(np.minimum(q0, q1), q0 + t * (lin + t * q2)) > 0.0))


def _polyline_length(path: Sequence, p: MetricParams) -> float:
    """Length of a polyline in the p-weighted left-invariant metric.

    Each chord A -> A + D contributes the integral over t in [0, 1] of
    ||(A + tD)^-1 D||_p, taken with a 16-point Gauss-Legendre rule. Any
    curve from a rotation to F that stays in GL+ is at least as long as the
    geodesic distance, so this is an upper bound on dist(F, SO(2)). A chord
    that leaves GL+ makes the length infinite.
    """
    nodes = np.asarray(path, dtype=float).reshape(-1, 2, 2)
    if not _in_gl_plus(nodes):
        return math.inf
    A = nodes[:-1]
    D = nodes[1:] - A
    M = A[:, np.newaxis] + _GL_T[:, np.newaxis, np.newaxis] * D[:, np.newaxis]
    Z = np.linalg.solve(M, np.broadcast_to(D[:, np.newaxis], M.shape))
    norms = _stacked_weighted_norms(Z.reshape(-1, 2, 2), p).reshape(M.shape[:2])
    return float(np.sum(norms @ _GL_W))


def _stacked_inv(M: np.ndarray) -> np.ndarray:
    """Inverses of a stack of invertible matrices; 2x2 ones by the adjugate,
    ten times faster than LAPACK on small stacks."""
    if M.shape[-1] != 2:
        return np.linalg.inv(M)
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    return (np.stack([d, -b, -c, a], axis=-1) / (a * d - b * c)[..., np.newaxis]).reshape(M.shape)


def _path_energy(X: np.ndarray, p: MetricParams) -> Tuple[float, np.ndarray]:
    """Discrete path energy of a node stack X (N+1, n, n) in GL+, and its
    gradient.

    E = N sum_chords sum_q w_q ||Z_q||_p^2, with Z_q = M_q^-1 D and
    M_q = A + t_q D for the chord A -> A + D, on the rule of
    _polyline_length. Its minimizers move at constant speed (discrete
    geodesics), and the polyline's length is at most sqrt(E) (Cauchy-
    Schwarz). With G = 2 N w_q _metric_map(Z_q) and H = M_q^-T G, the chord
    adds sum_q (H - t_q H Z_q^T) to the gradient at its end node and
    sum_q (-H - (1 - t_q) H Z_q^T) at its start node.
    """
    A = X[:-1, np.newaxis]
    D = X[1:, np.newaxis] - A
    t = _GL_T[:, np.newaxis, np.newaxis]
    M_inv = _stacked_inv(A + t * D)
    Z = M_inv @ D
    G = (2.0 * (X.shape[0] - 1)) * _GL_W[:, np.newaxis, np.newaxis] * _metric_map(Z, p)
    H = np.swapaxes(M_inv, -1, -2) @ G
    HZt = H @ np.swapaxes(Z, -1, -2)
    at_end = np.sum(H - t * HZt, axis=1)
    grad = np.zeros_like(X)
    grad[1:] = at_end
    grad[:-1] -= at_end + np.sum(HZt, axis=1)
    return 0.5 * float(np.sum(Z * G)), grad


def _lbfgs(
    energy: Callable[[np.ndarray], Optional[Tuple[float, np.ndarray]]],
    x: np.ndarray,
    max_evals: int,
    stats: dict,
) -> Iterator[Tuple[np.ndarray, float]]:
    """L-BFGS descent (memory _LBFGS_MEMORY) of energy(x) -> (value,
    gradient), which is None outside the domain; the start x lies inside.

    Yields every accepted iterate (x, value), the start first. A trial
    outside the domain halves the step without an evaluation; one that
    misses the Armijo decrease halves it after one. Stops after
    _LBFGS_ITERATIONS steps, before an evaluation would exceed max_evals,
    or when the value stops falling (a zero gradient, an accepted step that
    does not lower it, or no acceptable step of 2^-40 of the proposed one).
    Counters and the stop reason go into stats.
    """
    f, g = energy(x)
    stats.update(iterations=0, evaluations=1, backtracks=0, gl_halvings=0, stop="iterations")
    yield x, f
    pairs: deque = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    for _ in range(_LBFGS_ITERATIONS):
        # two-loop recursion for d = -H g
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ d))
            d = d - alphas[-1] * y
        if pairs:
            d = d / (pairs[-1][2] * float(pairs[-1][1] @ pairs[-1][1]))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * float(y @ d)) * s
        slope = float(g @ d)
        if not slope < 0.0:  # restart from steepest descent
            pairs.clear()
            d, slope = -g, -float(g @ g)
        if slope == 0.0:
            stats["stop"] = "converged"
            return
        alpha = 1.0 if pairs else min(1.0, 1.0 / math.sqrt(-slope))  # a restart: unit step
        while True:
            if alpha < 2.0 ** -40 or stats["evaluations"] >= max_evals:
                stats["stop"] = "evaluations" if alpha >= 2.0 ** -40 else "converged"
                return
            trial = x + alpha * d
            out = energy(trial)
            if out is None:
                stats["gl_halvings"] += 1
            else:
                stats["evaluations"] += 1
                if out[0] <= f + 1e-4 * alpha * slope:
                    break
                stats["backtracks"] += 1
            alpha *= 0.5
        if not out[0] < f:
            stats["stop"] = "converged"
            return
        s, y = trial - x, out[1] - g
        if float(s @ y) > 0.0:
            pairs.append((s, y, 1.0 / float(s @ y)))
        x, (f, g) = trial, out
        stats["iterations"] += 1
        yield x, f


def _two_phase_nodes(
    F: np.ndarray, theta0: float, theta_r: float, U: np.ndarray, n_seg: int
) -> np.ndarray:
    """Turn to the polar angle during the first half, stretch along the
    segment id -> U during the second; every node stays in GL+."""
    s = np.arange(n_seg) / n_seg
    sweep = (theta_r - theta0 + math.pi) % (2.0 * math.pi) - math.pi
    nodes = [
        _rot2(theta0 + sweep * min(1.0, 2.0 * si)) @ ((1.0 - a) * np.eye(2) + a * U)
        for si, a in zip(s, np.maximum(0.0, 2.0 * s - 1.0))
    ]
    return np.stack(nodes + [F])


def _interp_nodes(F: np.ndarray, theta0: float, n_seg: int) -> Optional[np.ndarray]:
    """Straight interpolation from the rotation at theta0 to F, if its nodes
    keep det > 0.1. Along each principal stretch direction this polyline
    already reproduces the logarithmic length scaling, so it starts the
    descent very close to the distance it is probing."""
    s = (np.arange(n_seg + 1) / n_seg)[:, np.newaxis, np.newaxis]
    nodes = (1.0 - s) * _rot2(theta0) + s * F
    return None if np.any(np.linalg.det(nodes[1:-1]) <= 0.1) else nodes


def _path_objective(
    X0: np.ndarray, theta0: Optional[float], p: MetricParams
) -> Tuple[np.ndarray, Callable, Callable]:
    """Variables and objective of the path search for polylines shaped like
    the planar node stack X0.

    x is the free start angle (none if theta0 is None: node 0 stays that of
    X0) and one xi_k per interior node, placed at X0_k (id + xi_k); node N
    stays F. As the metric is left-invariant, xi_k weighs moves the way the
    metric does at the start; in raw entries a node with a small singular
    value s weighs about 1/s^2 more, and such inputs were still 2% above
    the distance after 300 L-BFGS iterations. Returns x0, nodes_of
    (x -> node stack) and energy (x -> _path_energy and its gradient in x,
    or None when a chord leaves GL+).
    """
    n_seg = X0.shape[0] - 1
    free = theta0 is not None
    interior = X0[1:n_seg]

    def nodes_of(x: np.ndarray) -> np.ndarray:
        X = X0.copy()
        if free:
            X[0] = _rot2(x[0])
        X[1:n_seg] += interior @ x[int(free):].reshape(n_seg - 1, 2, 2)
        return X

    def energy(x: np.ndarray) -> Optional[Tuple[float, np.ndarray]]:
        X = nodes_of(x)
        if not _in_gl_plus(X):
            return None
        value, grad = _path_energy(X, p)
        g = (np.swapaxes(interior, -1, -2) @ grad[1:n_seg]).ravel()
        if free:  # d rot2(theta) / d theta = rot2(theta + pi/2)
            g = np.concatenate([[float(np.sum(grad[0] * _rot2(x[0] + 0.5 * math.pi)))], g])
        return value, g

    return np.concatenate([[theta0] if free else [], np.zeros(4 * (n_seg - 1))]), nodes_of, energy


def _run_path_search(
    F: np.ndarray,
    p: MetricParams,
    cfg: OracleConfig,
    pinned_theta: Optional[float],
) -> Tuple[float, dict]:
    """_lbfgs descent of the discrete path energy over the interior nodes
    and, unless pinned, the start angle, under cfg.max_iters evaluations.

    The one start is the straight interpolation from the rotation at theta
    (the polar angle when free) to F, or, when that comes too close to
    det = 0, the two-phase polyline, whose chords stay in GL+ (turns
    shorter than pi, then stretches between SPD factors). No randomness.
    Returns the _polyline_length of the final polyline and the stats:
    theta, start, nodes, iterations, evaluations, backtracks, gl_halvings,
    stop and seconds.
    """
    t_start = time.perf_counter()
    pol = polar_decompose(F)
    theta_r = math.atan2(pol.rotation[1, 0], pol.rotation[0, 0])
    theta0 = theta_r if pinned_theta is None else pinned_theta
    X0 = _interp_nodes(F, theta0, cfg.nodes)
    stats = {"start": "interp", "nodes": cfg.nodes}
    if X0 is None or not _in_gl_plus(X0):
        X0 = _two_phase_nodes(F, theta0, theta_r, pol.right_stretch, cfg.nodes)
        stats["start"] = "two_phase"
    x0, nodes_of, energy = _path_objective(X0, theta0 if pinned_theta is None else None, p)
    for x, _ in _lbfgs(energy, x0, int(cfg.max_iters), stats):
        pass
    stats["theta"] = theta0 if pinned_theta is not None else float(x[0])
    stats["seconds"] = time.perf_counter() - t_start
    return _polyline_length(nodes_of(x), p), stats


def _path_activity(F: np.ndarray, theta_span: float) -> float:
    """Per-unit-arc variation scale of a rotation-to-F path: the largest
    principal log stretch plus the rotation angle it has to sweep."""
    sv = np.linalg.svd(F, compute_uv=False)
    d_max = float(np.max(np.abs(np.log(sv))))
    return math.sqrt(d_max * d_max + theta_span * theta_span)


def geodesic_distance_oracle(F: Mat, p: MetricParams, cfg: OracleConfig) -> OracleVerdict:
    """Shortest polyline from the rotation group to F found by a discrete
    geodesic search.

    Planar only. L-BFGS minimizes the discrete path energy of cfg.nodes
    chords over the start rotation and all interior nodes
    (_run_path_search); the value is the length of the final polyline, a
    curve from SO(2) to F, so it cannot lie below the distance. The verdict
    passes when it is at most cfg.tol (relative) above the closed form and
    not below it. Its stats are those of the search.
    """
    F = as_square(np.asarray(F, dtype=float), "F")
    if F.shape[0] != 2:
        raise ValueError("discrete path search is implemented for 2x2 inputs only")
    closed = math.sqrt(dist_squared_to_SO(F, p).squared_distance)
    value, stats = _run_path_search(F, p, cfg, pinned_theta=None)
    return OracleVerdict(
        claim="geodesic distance to the rotation group (discrete path)",
        closed_form_value=closed,
        oracle_value=float(value),
        relative_gap=_relative_gap(value, closed),
        passed=closed * (1.0 - 1e-9) <= value <= closed + cfg.tol * max(closed, 1e-6),
        witness=_rot2(stats["theta"]),
        stats=stats,
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
    F = as_square(np.asarray(F, dtype=float), "F")
    if F.shape[0] != 2:
        raise ValueError("discrete path search is implemented for 2x2 inputs only")
    pol = polar_decompose(F)
    closed = math.sqrt(dist_squared_to_SO(F, p).squared_distance)
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
    return OracleVerdict(
        claim="uniqueness of the best rotation (pinned-endpoint paths)",
        closed_form_value=closed,
        oracle_value=float(closed + min_excess),
        relative_gap=_relative_gap(closed + min_excess, closed),
        passed=min_excess > _GAP_FLOOR,
        witness=worst,
        stats={"searches": searches},
    )


# ---------------------------------------------------------------------------
# sampled logarithm inequality
# ---------------------------------------------------------------------------

def _principal_logs(M: np.ndarray, stats: Optional[dict] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Principal real logs of a stack of square matrices, shape (k, n, n).

    Returns (logs, ok). ok[i] is False when the spectrum of M[i] touches the
    closed negative real axis, where no principal branch exists; logs[i] is
    zero there. One stacked `eig` serves every entry; entries with nearly
    defective eigenvectors (cond(V) >= 1e8) fall back, one by one, to the
    Schur-based `scipy.linalg.logm`; their count goes into
    stats["logm_fallbacks"] when a stats dict is given.
    """
    vals, vecs = np.linalg.eig(M)
    on_axis = (np.abs(vals.imag) <= 1e-12 * np.maximum(1.0, np.abs(vals))) & (vals.real <= 0.0)
    ok = ~on_axis.any(axis=-1)
    logs = np.zeros(M.shape)
    spectral = ok & (np.linalg.cond(vecs) < 1e8)
    V = vecs[spectral]
    logs[spectral] = ((V * np.log(vals[spectral])[:, np.newaxis, :]) @ np.linalg.inv(V)).real
    defective = np.flatnonzero(ok & ~spectral)
    if stats is not None:
        stats["logm_fallbacks"] = int(defective.size)
    if defective.size:
        import scipy.linalg  # only this rare fallback needs scipy

        for i in defective:
            logs[i] = np.real(scipy.linalg.logm(M[i]))
    return logs, ok


def _metric_map(S: np.ndarray, p: MetricParams) -> np.ndarray:
    """mu dev sym S + mu_c skew S + (kappa/2) tr S id for a stack (..., n, n).

    The three parts are orthogonal projections of S, so <S, _metric_map(S)>
    is the squared weighted norm mu ||dev sym S||^2 + mu_c ||skew S||^2 +
    (kappa/2) tr^2 S, and 2 _metric_map(S) is its gradient.
    """
    n = S.shape[-1]
    out = 0.5 * (p.mu + p.mu_c) * S + 0.5 * (p.mu - p.mu_c) * np.swapaxes(S, -1, -2)
    diagonal = np.einsum("...ii->...i", out)
    diagonal += (0.5 * p.kappa - p.mu / n) * np.trace(S, axis1=-2, axis2=-1)[..., np.newaxis]
    return out


def _stacked_weighted_norms(S: np.ndarray, p: MetricParams) -> np.ndarray:
    """matcore.weighted_norm of every matrix in a stack (k, n, n)."""
    return np.sqrt(np.maximum(np.sum(S * _metric_map(S, p), axis=(-2, -1)), 0.0))


def _logmin_impl(F: np.ndarray, cfg: OracleConfig, p: MetricParams, claim: str) -> OracleVerdict:
    """Sample rotations Q and compare the p-weighted norm of sym log(Q^T F)
    with the closed form dist(F, SO(n)) under p.

    Index 0 of the stack is the polar factor, followed by cfg.samples draws
    from substream(cfg.seed, 0). All Q^T F share one stacked `eig`; samples
    without a principal log are skipped. The reductions keep sample order:
    the witness is the first violating sample, or else the first minimizer,
    and equality with the closed form is judged at the polar factor. The
    stats give the sample count, the entries skipped (the polar factor
    included) and the `logm` fallbacks.
    """
    n = F.shape[0]
    closed = dist_squared_to_SO(F, p).distance
    pol = polar_decompose(F)
    Q = np.concatenate(
        [pol.rotation[np.newaxis], _random_rotations(substream(cfg.seed, 0), n, int(cfg.samples))]
    )
    stats = {"samples": int(cfg.samples)}
    logs, ok = _principal_logs(np.swapaxes(Q, -1, -2) @ F, stats)
    stats["skipped"] = int(np.count_nonzero(~ok))
    sym_logs = 0.5 * (logs + np.swapaxes(logs, -1, -2))
    values = np.where(ok, _stacked_weighted_norms(sym_logs, p), math.inf)

    violations = np.flatnonzero(values < closed - 1e-9)
    min_val = float(np.min(values))
    if violations.size:
        witness: Optional[np.ndarray] = Q[violations[0]].copy()
    elif ok.any():
        witness = Q[int(np.argmin(values))].copy()
    else:
        witness = None
    attained = bool(ok[0] and abs(values[0] - closed) <= 1e-8)
    return OracleVerdict(
        claim=claim,
        closed_form_value=closed,
        oracle_value=min_val,
        relative_gap=_relative_gap(min_val, closed),
        passed=violations.size == 0 and attained,
        witness=witness,
        stats=stats,
    )


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
    F = as_square(np.asarray(F, dtype=float), "F")
    if F.shape[0] not in (2, 3):
        raise ValueError("log sampling supports 2x2 and 3x3 inputs only")
    return _logmin_impl(
        F,
        cfg,
        MetricParams.frobenius(F.shape[0]),
        "symmetric-log misfit minimized by the polar factor",
    )


def weighted_logmin_oracle(F: Mat, p: MetricParams, cfg: OracleConfig) -> OracleVerdict:
    """Weighted-norm variant of logmin_oracle.

    The closed-form target is the weighted norm of log of the right stretch;
    its square splits as mu*||dev log U||^2 + (kappa/2)*tr^2(log U) because
    the log of a stretch is symmetric and the spin weight never engages.
    """
    F = as_square(np.asarray(F, dtype=float), "F")
    if F.shape[0] not in (2, 3):
        raise ValueError("log sampling supports 2x2 and 3x3 inputs only")
    return _logmin_impl(
        F, cfg, p, "weighted symmetric-log misfit minimized by the polar factor"
    )
