"""Brute-force numerical cross-checks for the closed-form distance results.

Every engine in this module re-derives a minimum by direct search so the
closed forms elsewhere in the package can be checked against something that
does not share their code path: golden-section / multi-start descent over the
rotation group, discrete path-length minimization over matrix polylines, and
large-sample admissible-logarithm sweeps.

All randomness is drawn from counter-derived Philox substreams, so a verdict
is a pure function of the inputs and the config (bitwise, independent of how
the evaluation might be scheduled); reductions always run in sample order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
_DET_FLOOR = 0.05
_GAP_FLOOR = 1e-9


@dataclass(frozen=True)
class OracleConfig:
    """Knobs shared by all verification engines.

    nodes counts path segments for the discrete geodesic search; max_iters
    bounds objective evaluations per descent start.
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

def _segment_length(p: Sequence[float], q: Sequence[float], mu: float, muc: float, kap: float) -> Optional[float]:
    """Weighted length element of one chord, or None when the midpoint
    leaves the trusted region det > 0.05."""
    m00 = 0.5 * (p[0] + q[0])
    m01 = 0.5 * (p[1] + q[1])
    m10 = 0.5 * (p[2] + q[2])
    m11 = 0.5 * (p[3] + q[3])
    det = m00 * m11 - m01 * m10
    if det <= _DET_FLOOR:
        return None
    d0 = q[0] - p[0]
    d1 = q[1] - p[1]
    d2 = q[2] - p[2]
    d3 = q[3] - p[3]
    z00 = (m11 * d0 - m01 * d2) / det
    z01 = (m11 * d1 - m01 * d3) / det
    z10 = (m00 * d2 - m10 * d0) / det
    z11 = (m00 * d3 - m10 * d1) / det
    dd = 0.5 * (z00 - z11)
    s = 0.5 * (z01 + z10)
    w = 0.5 * (z01 - z10)
    t = z00 + z11
    return math.sqrt(
        mu * 2.0 * (dd * dd + s * s) + muc * 2.0 * w * w + 0.5 * kap * t * t
    )


def _chord_trusted(
    a: Sequence[float], b: Sequence[float], c0: float,
    mu: float, muc: float, kap: float, cap: float,
) -> bool:
    """One-level refinement test of a chord's midpoint quadrature.

    Splitting the chord at its midpoint and re-measuring must raise the
    length by at most ``cap`` relative. Honest chords sit at O((step)^2)
    deficit, orders of magnitude below the cap; chords that leap across a
    badly-conditioned region (where the midpoint sample misses most of the
    true length) blow far past it or hit the det floor outright.
    """
    m = (
        0.5 * (a[0] + b[0]),
        0.5 * (a[1] + b[1]),
        0.5 * (a[2] + b[2]),
        0.5 * (a[3] + b[3]),
    )
    c1 = _segment_length(a, m, mu, muc, kap)
    if c1 is None:
        return False
    c2 = _segment_length(m, b, mu, muc, kap)
    if c2 is None:
        return False
    return (c1 + c2) - c0 <= cap * max(c0, 1e-12)


_Node = Tuple[float, float, float, float]


def _rotation_node(theta: float) -> _Node:
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s, s, c)


def _polyline(theta0: float, interior: Sequence[np.ndarray], F: np.ndarray) -> List[_Node]:
    """Node list of a polyline: the rotation at theta0, the interior nodes, F."""
    return [_rotation_node(theta0)] + [tuple(M.ravel().tolist()) for M in [*interior, F]]


class _PathProblem:
    """Compass descent of the midpoint chord sum of a polyline.

    A polyline is one list of N+1 nodes, each the 4-tuple of a 2x2 matrix:
    node 0 is the rotation at the start angle theta, node N is F. A move of
    theta or of one interior entry touches only the two adjacent chords.
    ``deficit_cap`` bounds the per-chord refinement deficit accepted during
    descent (see _chord_trusted), which keeps the search where the chord sum
    ranks polylines faithfully.
    """

    def __init__(self, p: MetricParams, deficit_cap: float):
        self.mu, self.muc, self.kap = p.mu, p.mu_c, p.kappa
        self.deficit_cap = deficit_cap

    def descend(
        self,
        theta: float,
        path: List[_Node],
        theta_free: bool,
        step: float,
        min_step: float,
        budget: int,
    ) -> Tuple[float, float, List[_Node], int]:
        """Descend in place; returns (chord sum, theta, path, evals used)."""
        mu, muc, kap = self.mu, self.muc, self.kap
        cap = self.deficit_cap
        segs = [_segment_length(a, b, mu, muc, kap) for a, b in zip(path, path[1:])]
        if None in segs:
            return math.inf, theta, path, 0
        evals = 0
        while step > min_step and evals < budget:
            improved = False
            if theta_free:
                for s in (step, -step):
                    t_new = theta + s
                    start = _rotation_node(t_new)
                    L = _segment_length(start, path[1], mu, muc, kap)
                    evals += 1
                    if (
                        L is not None
                        and L < segs[0]
                        and _chord_trusted(start, path[1], L, mu, muc, kap, cap)
                    ):
                        segs[0] = L
                        theta = t_new
                        path[0] = start
                        improved = True
                        break
            for j in range(1, len(path) - 1):
                left, right = path[j - 1], path[j + 1]
                for c in range(4):
                    if evals >= budget:
                        break
                    node = path[j]
                    for s in (step, -step):
                        cur = node[:c] + (node[c] + s,) + node[c + 1:]
                        if cur[0] * cur[3] - cur[1] * cur[2] <= _DET_FLOOR:
                            continue
                        L1 = _segment_length(left, cur, mu, muc, kap)
                        L2 = _segment_length(cur, right, mu, muc, kap)
                        evals += 1
                        if L1 is None or L2 is None:
                            continue
                        if L1 + L2 < segs[j - 1] + segs[j] and (
                            _chord_trusted(left, cur, L1, mu, muc, kap, cap)
                            and _chord_trusted(cur, right, L2, mu, muc, kap, cap)
                        ):
                            segs[j - 1] = L1
                            segs[j] = L2
                            path[j] = cur
                            improved = True
                            break
            if not improved:
                step *= 0.5
        return sum(segs), theta, path, evals


def _gauss_legendre(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [0, 1] (Golub-Welsch: the nodes are
    the eigenvalues of the Jacobi matrix of the Legendre recurrence, the
    weights the squared first components of its eigenvectors)."""
    k = np.arange(1, m)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, V = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), V[0] ** 2


_GL_T, _GL_W = _gauss_legendre(16)


def _polyline_length(path: Sequence[_Node], p: MetricParams) -> float:
    """Length of a polyline in the p-weighted left-invariant metric.

    Each chord A -> A + D contributes the integral over t in [0, 1] of
    ||(A + tD)^-1 D||_p, taken with a 16-point Gauss-Legendre rule. Any
    curve from a rotation to F that stays in GL+ is at least as long as the
    geodesic distance, so this is an upper bound on dist(F, SO(2)). A chord
    that leaves GL+ (det(A + tD), quadratic in t, reaches 0 on [0, 1])
    makes the length infinite.
    """
    nodes = np.asarray(path, dtype=float).reshape(-1, 2, 2)
    A = nodes[:-1]
    D = nodes[1:] - A
    # det(A + tD) = q0 + lin t + q2 t^2 is smallest on [0, 1] at an end or
    # at the vertex clipped into [0, 1]
    q0, q1, q2 = np.linalg.det(A), np.linalg.det(nodes[1:]), np.linalg.det(D)
    lin = q1 - q0 - q2
    t = np.clip(np.divide(-lin, 2.0 * q2, out=np.zeros_like(q2), where=q2 > 0.0), 0.0, 1.0)
    if not np.all(np.minimum(np.minimum(q0, q1), q0 + t * (lin + t * q2)) > 0.0):
        return math.inf
    M = A[:, np.newaxis] + _GL_T[:, np.newaxis, np.newaxis] * D[:, np.newaxis]
    Z = np.linalg.solve(M, np.broadcast_to(D[:, np.newaxis], M.shape))
    norms = _stacked_weighted_norms(Z.reshape(-1, 2, 2), p).reshape(M.shape[:2])
    return float(np.sum(norms @ _GL_W))


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _two_phase_nodes(
    F: np.ndarray, theta0: float, theta_r: float, U: np.ndarray, n_seg: int
) -> List[_Node]:
    """Turn to the polar angle during the first half, stretch along the
    segment id -> U during the second; every node stays in GL+."""
    interior = []
    for i in range(1, n_seg):
        s = i / n_seg
        turn = min(1.0, 2.0 * s)
        alpha = max(0.0, 2.0 * s - 1.0)
        interior.append(
            _rot2(theta0 + _wrap_angle(theta_r - theta0) * turn)
            @ ((1.0 - alpha) * np.eye(2) + alpha * U)
        )
    return _polyline(theta0, interior, F)


def _interp_nodes(F: np.ndarray, theta0: float, n_seg: int) -> Optional[List[_Node]]:
    """Straight interpolation from the rotation at theta0 to F, if it stays
    safely inside GL+. Along each principal stretch direction this polyline
    already reproduces the logarithmic length scaling, so it starts the
    descent very close to the distance it is probing."""
    Q = _rot2(theta0)
    M = Q.T @ F
    interior = []
    for i in range(1, n_seg):
        s = i / n_seg
        node = Q @ ((1.0 - s) * np.eye(2) + s * M)
        if np.linalg.det(node) <= 2.0 * _DET_FLOOR:
            return None
        interior.append(node)
    return _polyline(theta0, interior, F)


def _run_path_search(
    F: np.ndarray,
    p: MetricParams,
    cfg: OracleConfig,
    pinned_theta: Optional[float],
) -> Tuple[float, float]:
    """Multi-start local descent of the discrete length; returns the length
    (_polyline_length) of the best polyline found and its start angle.

    Descent is deliberately local: starts interpolate toward the polar
    factor, and the step schedule shrinks from there. The discrete functional
    also has far-away corner-cutting minimizers (chords measured only at
    midpoints can leap through regions the continuous length would charge
    for), and chasing those would only waste the search. Two mechanisms keep
    the search honest: the start polylines track the rotate-then-stretch
    geometry, and every accepted move must keep its touched chords
    refinement-stable (_chord_trusted), which blocks the leaps those
    spurious minimizers are made of.
    """
    pol = polar_decompose(F)
    theta_r = math.atan2(pol.rotation[1, 0], pol.rotation[0, 0])
    if pinned_theta is None:
        span = abs(theta_r)
    else:
        span = abs(_wrap_angle(pinned_theta - theta_r))
    act = _path_activity(F, span)
    prob = _PathProblem(p, deficit_cap=8.0 * (act / cfg.nodes) ** 2 + 1e-3)
    scale = max(1.0, float(np.max(np.abs(F))))
    theta_free = pinned_theta is None

    theta0 = theta_r if theta_free else pinned_theta
    direct = _interp_nodes(F, theta0, cfg.nodes)
    starts = [] if direct is None else [(theta0, direct)]
    for t0 in (theta0, theta0 + 1.5, theta0 - 1.5) if theta_free else (theta0,):
        starts.append((t0, _two_phase_nodes(F, t0, theta_r, pol.right_stretch, cfg.nodes)))

    candidates: List[Tuple[float, float, List[_Node]]] = []
    coarse_budget = max(cfg.max_iters // 6, 2000)
    for theta0, path0 in starts:
        val, th, path, _ = prob.descend(
            theta0, path0, theta_free,
            step=0.1 * scale, min_step=1e-3, budget=coarse_budget,
        )
        candidates.append((val, th, path))
    candidates.sort(key=lambda item: item[0])
    best_val, best_theta, best_path = candidates[0]
    val, th, path, _ = prob.descend(
        best_theta, list(best_path), theta_free,
        step=4e-3 * scale, min_step=3e-8, budget=cfg.max_iters,
    )
    if val > best_val:
        th, path = best_theta, best_path
    return _polyline_length(path, p), th


def _path_activity(F: np.ndarray, theta_span: float) -> float:
    """Per-unit-arc variation scale of a rotation-to-F path: the largest
    principal log stretch plus the rotation angle it has to sweep."""
    sv = np.linalg.svd(F, compute_uv=False)
    d_max = float(np.max(np.abs(np.log(sv))))
    return math.sqrt(d_max * d_max + theta_span * theta_span)


def geodesic_distance_oracle(F: Mat, p: MetricParams, cfg: OracleConfig) -> OracleVerdict:
    """Minimize a discrete weighted path length from the rotation group to F.

    Planar only. The start rotation and all interior nodes are free; the
    value is the length of the best polyline found, a curve from SO(2) to
    F, so it cannot lie below the distance. The verdict passes when it is
    at most cfg.tol (relative) above the closed form and not below it.
    """
    F = as_square(np.asarray(F, dtype=float), "F")
    if F.shape[0] != 2:
        raise ValueError("discrete path search is implemented for 2x2 inputs only")
    closed = math.sqrt(dist_squared_to_SO(F, p).squared_distance)
    value, theta = _run_path_search(F, p, cfg, pinned_theta=None)
    return OracleVerdict(
        claim="geodesic distance to the rotation group (discrete path)",
        closed_form_value=closed,
        oracle_value=float(value),
        relative_gap=_relative_gap(value, closed),
        passed=closed * (1.0 - 1e-9) <= value <= closed + cfg.tol * max(closed, 1e-6),
        witness=_rot2(theta),
    )


def best_approx_uniqueness_probe(F: Mat, p: MetricParams, cfg: OracleConfig) -> OracleVerdict:
    """Pin the path's rotation endpoint away from the polar factor and check
    the distance strictly exceeds the free minimum.

    Samples cfg.samples rotations, keeps those farther than 0.1 from the
    polar factor (or, if none is, takes the rotation 0.5 rad past it), and
    runs the pinned discrete search for each. Passes when every pinned
    polyline length exceeds the closed-form distance by more than 1e-9.
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
    for Q in far:
        value, _ = _run_path_search(F, p, cfg, pinned_theta=math.atan2(Q[1, 0], Q[0, 0]))
        if value - closed < min_excess:
            min_excess, worst = value - closed, Q
    return OracleVerdict(
        claim="uniqueness of the best rotation (pinned-endpoint paths)",
        closed_form_value=closed,
        oracle_value=float(closed + min_excess),
        relative_gap=_relative_gap(closed + min_excess, closed),
        passed=min_excess > _GAP_FLOOR,
        witness=worst,
    )


# ---------------------------------------------------------------------------
# sampled logarithm inequality
# ---------------------------------------------------------------------------

def _principal_logs(M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Principal real logs of a stack of square matrices, shape (k, n, n).

    Returns (logs, ok). ok[i] is False when the spectrum of M[i] touches the
    closed negative real axis, where no principal branch exists; logs[i] is
    zero there. One stacked `eig` serves every entry; entries with nearly
    defective eigenvectors (cond(V) >= 1e8) fall back, one by one, to the
    Schur-based `scipy.linalg.logm`.
    """
    vals, vecs = np.linalg.eig(M)
    on_axis = (np.abs(vals.imag) <= 1e-12 * np.maximum(1.0, np.abs(vals))) & (vals.real <= 0.0)
    ok = ~on_axis.any(axis=-1)
    logs = np.zeros(M.shape)
    spectral = ok & (np.linalg.cond(vecs) < 1e8)
    V = vecs[spectral]
    logs[spectral] = ((V * np.log(vals[spectral])[:, np.newaxis, :]) @ np.linalg.inv(V)).real
    defective = np.flatnonzero(ok & ~spectral)
    if defective.size:
        import scipy.linalg  # only this rare fallback needs scipy

        for i in defective:
            logs[i] = np.real(scipy.linalg.logm(M[i]))
    return logs, ok


def _stacked_weighted_norms(S: np.ndarray, p: MetricParams) -> np.ndarray:
    """matcore.weighted_norm of every matrix in a stack (k, n, n):
    sqrt(mu ||dev sym S||^2 + mu_c ||skew S||^2 + (kappa/2) tr^2 S)."""
    n = S.shape[-1]
    tr = np.trace(S, axis1=-2, axis2=-1)
    sym = 0.5 * (S + np.swapaxes(S, -1, -2))
    dev = sym - (tr / n)[:, np.newaxis, np.newaxis] * np.eye(n)
    skew = 0.5 * (S - np.swapaxes(S, -1, -2))
    sq = (
        p.mu * np.sum(dev * dev, axis=(-2, -1))
        + p.mu_c * np.sum(skew * skew, axis=(-2, -1))
        + 0.5 * p.kappa * tr * tr
    )
    return np.sqrt(np.maximum(sq, 0.0))


def _logmin_impl(F: np.ndarray, cfg: OracleConfig, p: MetricParams, claim: str) -> OracleVerdict:
    """Sample rotations Q and compare the p-weighted norm of sym log(Q^T F)
    with the closed form dist(F, SO(n)) under p.

    Index 0 of the stack is the polar factor, followed by cfg.samples draws
    from substream(cfg.seed, 0). All Q^T F share one stacked `eig`; samples
    without a principal log are skipped. The reductions keep sample order:
    the witness is the first violating sample, or else the first minimizer,
    and equality with the closed form is judged at the polar factor.
    """
    n = F.shape[0]
    closed = dist_squared_to_SO(F, p).distance
    pol = polar_decompose(F)
    Q = np.concatenate(
        [pol.rotation[np.newaxis], _random_rotations(substream(cfg.seed, 0), n, int(cfg.samples))]
    )
    logs, ok = _principal_logs(np.swapaxes(Q, -1, -2) @ F)
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
