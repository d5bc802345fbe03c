"""Command-line front end.

Subcommands: `measure` evaluates strain measures and polar data for one
matrix, `verify` runs the brute-force verification suites, `path` tabulates
deformation paths as CSV, and `fit` recovers material parameters from
stress-control data.

Exit codes: 0 success, 1 usage error or a parameter out of range, 2 invalid
matrix or data (det F <= 0 or a condition number above 1e14 included) or a
float overflow (say, of exp-Hencky's exponentials in a `path` or `fit`), 3
unsupported model/mode combination, 4 non-convergence, 5 a `verify` claim
failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .matcore import (
    MetricParams,
    NonPositiveDeterminantError,
    ParameterOutOfRangeError,
    SingularMatrixError,
    log_invariants,
    polar_decompose,
    principal_log_spd,
    mat_exp,
    stretch_spectrum,
    sym_part,
    deviatoric,
)
from .geodesy import (
    dist_squared_to_SO,
    euclid_dist_to_SO,
    omega_iso,
    omega_vol,
)
from .constitutive import (
    MaterialModel,
    MotionSample,
    UnsupportedModelError,
    almansi_rate_check,
    coaxial_lograte_check,
    energy,
    energy_from_logs,
    kirchhoff_stress,
    principal_kirchhoff as _principal_kirchhoff,
    sample_gl as _random_gl,
    tension_compression_check,
)
from .oracle import (
    OracleConfig,
    OracleVerdict,
    best_approx_uniqueness_probe,
    geodesic_distance_oracle,
    grioli_oracle,
    logmin_oracle,
    substream,
    weighted_logmin_oracle,
    _path_activity,
    _random_rotations,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CLAIM_FAILED = 5

MODE_KINDS = (
    "uniaxial_incompressible",
    "uniaxial_free",
    "simple_shear",
    "equibiaxial_incompressible",
    "volumetric",
)
STRESS_KINDS = ("biot", "cauchy", "kirchhoff")
CSV_HEADER = "control,detF,omega_iso,omega_vol,energy,stress"
_EPS = sys.float_info.epsilon


class UsageError(ValueError):
    """Bad flags or out-of-domain command parameters."""


class InvalidInputError(ValueError):
    """Malformed or out-of-domain matrix / data file contents."""


class InsufficientDataError(InvalidInputError):
    """Fewer data points than the fit needs."""


class UnsupportedCombinationError(ValueError):
    """Model/mode/stress combination the tool does not implement."""


class NonConvergenceError(RuntimeError):
    """Fit descent exhausted its budget without converging."""

    def __init__(self, message: str, report: "FitResult"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class DeformationMode:
    """One-parameter deformation family with an evaluation grid.

    `start` and `stop` bound the control parameter (the flags spell them
    --from/--to; `from` is reserved in Python).
    """

    kind: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.kind not in MODE_KINDS:
            raise UsageError(f"unknown deformation mode {self.kind!r}")
        if not self.start < self.stop:
            raise UsageError("--from must be strictly below --to")
        if self.steps < 2:
            raise UsageError("--steps must be at least 2")
        if self.kind != "simple_shear" and self.start <= 0.0:
            raise UsageError(
                f"mode {self.kind} needs a positive control range to keep det F > 0"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class FitProblem:
    """Parameter-recovery problem: observed stress against a control grid."""

    controls: Tuple[float, ...]
    stresses: Tuple[float, ...]
    mode_kind: str
    stress_kind: str
    model_kind: str
    seed: int = 0
    max_iters: int = 20000

    def __post_init__(self) -> None:
        if len(self.controls) != len(self.stresses):
            raise InvalidInputError("controls and stresses must pair up")
        if len(self.controls) < 4:
            raise InsufficientDataError(
                f"need at least 4 data points, got {len(self.controls)}"
            )
        if any(b <= a for a, b in zip(self.controls, self.controls[1:])):
            raise InvalidInputError("controls must be strictly increasing")
        if self.mode_kind not in MODE_KINDS:
            raise UsageError(f"unknown deformation mode {self.mode_kind!r}")
        if self.stress_kind not in STRESS_KINDS:
            raise UsageError(f"unknown stress kind {self.stress_kind!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ParameterOutOfRangeError("seed must be an integer >= 0")


@dataclass(frozen=True)
class FitStart:
    """One Levenberg-Marquardt run of a fit, from one start in log-parameter space."""

    start: Tuple[float, ...]
    cost: float  # final sum of squared residuals
    evaluations: int  # residual evaluations, Jacobian columns included
    stop: str  # "converged", "evaluations" (the budget ran out) or "infeasible" (at the start)


@dataclass(frozen=True)
class FitResult:
    model: MaterialModel
    rms: float
    residuals: Tuple[float, ...]
    converged: bool
    starts: Tuple[FitStart, ...] = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# scalar engine for diagonal deformation families
# ---------------------------------------------------------------------------

def _lateral_newton(model: MaterialModel, l_ax: float, lo: float, hi: float) -> Tuple[float, float]:
    """Root of the lateral stress in [lo, hi] by safeguarded Newton, and a band around it.

    At logs (l, x, x) the lateral stress is iso + vol with
    iso = (2 mu / 3) e^a (x - l), a = (2/3) k (x - l)^2, and
    vol = kappa e^b t, b = khat t^2, t = l + 2x (a = b = 0 for Hencky).  Its
    slope (2 mu / 3) e^a (1 + 2a) + 2 kappa e^b (1 + 2b) never falls below
    2 mu / 3 + 2 kappa, so outside the returned band, which holds 1e-10 and a
    bound on the rounding error of the computed stress 32 times over at that
    slope, the stress's sign is that of x - root.  The band is infinite when
    Newton meets a non-finite value or does not settle.
    """
    mu, kappa = model.mu, model.kappa
    k, khat = (model.k, model.khat) if model.kind == "exp_hencky" else (0.0, 0.0)
    min_slope = 2.0 * mu / 3.0 + 2.0 * kappa
    nu = (3.0 * kappa - 2.0 * mu) / (2.0 * (3.0 * kappa + mu))
    x = min(max(-nu * l_ax, lo), hi)  # the Hencky root
    step_before = hi - lo
    for _ in range(100):
        y, t = x - l_ax, l_ax + 2.0 * x
        a, b = k * (2.0 / 3.0) * y * y, khat * t * t
        iso = (2.0 * mu / 3.0) * math.exp(a) * y
        vol = kappa * math.exp(b) * t
        f = iso + vol
        slope = (2.0 * mu / 3.0) * math.exp(a) * (1.0 + 2.0 * a) \
            + 2.0 * kappa * math.exp(b) * (1.0 + 2.0 * b)
        noise = 4.0 * _EPS * ((abs(iso) + abs(vol)) * (1.0 + a + b)
                              + slope * (abs(l_ax) + 2.0 * abs(x)))
        band = 32.0 * (1e-10 + noise) / min_slope
        if not (math.isfinite(f) and math.isfinite(slope) and math.isfinite(band)):
            break
        if abs(f) <= min_slope * band / 64.0:  # so the root is within band / 20 of x
            return x, band
        if f > 0.0:
            hi = x
        else:
            lo = x
        step = f / slope
        if not lo < x - step < hi or abs(step) > 0.5 * step_before:
            step = x - 0.5 * (lo + hi)  # bisect when Newton leaves the bracket or stalls
        step_before = abs(step)
        x -= step
    return x, math.inf


def _lateral_log_free(model: MaterialModel, l_ax: float) -> float:
    """Lateral log stretch with zero lateral stress, by bisection.

    The lateral principal Kirchhoff stress is strictly increasing in the
    lateral log stretch, so a sign-changing bracket always exists; bisection
    runs down to 1e-10 on the stress as required for the free uniaxial mode.
    A Newton solve finds the root first, and the bisection is then replayed
    step for step, evaluating the stress only within `_lateral_newton`'s band
    around the root and taking the sign from monotonicity elsewhere: the
    result is the plain bisection's to the bit, with far fewer evaluations.
    """

    def lateral_stress(x: float) -> float:
        return _principal_kirchhoff(model, (l_ax, x, x))[1]

    half = max(2.0, 2.0 * abs(l_ax) + 1.0)
    lo, hi = -half, half
    flo, fhi = lateral_stress(lo), lateral_stress(hi)
    grow = 0
    while flo > 0.0 or fhi < 0.0:
        lo *= 2.0
        hi *= 2.0
        flo, fhi = lateral_stress(lo), lateral_stress(hi)
        grow += 1
        if grow > 20:
            raise NonConvergenceError(
                "no bracket for the lateral zero-stress condition",
                FitResult(model, math.inf, (), False),
            )
    root, band = _lateral_newton(model, l_ax, lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(mid - root) <= band:
            fm = lateral_stress(mid)
            if abs(fm) <= 1e-10:
                return mid
            above = fm > 0.0
        else:
            above = mid > root
        if above:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def _mode_logs(kind: str, control: float, model: MaterialModel) -> Optional[Tuple[float, ...]]:
    """Principal log stretches for diagonal modes; None for simple shear."""
    if kind == "simple_shear":
        return None
    if control <= 0.0:
        raise UsageError(f"control {control} leaves the det > 0 domain of {kind}")
    if kind == "uniaxial_incompressible":
        l = math.log(control)
        return (l, -0.5 * l, -0.5 * l)
    if kind == "uniaxial_free":
        l = math.log(control)
        x = _lateral_log_free(model, l)
        return (l, x, x)
    if kind == "equibiaxial_incompressible":
        l = math.log(control)
        return (l, l, -2.0 * l)
    if kind == "volumetric":
        third = math.log(control) / 3.0
        return (third, third, third)
    raise UsageError(f"unknown deformation mode {kind!r}")


def _shear_matrix(gamma: float) -> np.ndarray:
    F = np.eye(3)
    F[0, 1] = gamma
    return F


def _diag_stress_scalar(
    mode_kind: str, stress_kind: str, model: MaterialModel, logs: Sequence[float]
) -> float:
    tau = _principal_kirchhoff(model, logs)
    det = math.exp(sum(logs))
    if mode_kind == "volumetric":
        if stress_kind == "cauchy":
            return sum(tau) / (3.0 * det)
        if stress_kind == "kirchhoff":
            return sum(tau) / 3.0
        return sum(t / math.exp(l) for t, l in zip(tau, logs)) / 3.0
    # Axial stress for the uniaxial / equibiaxial families.  The constrained
    # modes carry the reaction pressure that annuls the stress on the free
    # lateral face, so the reported scalar is the lateral-corrected component
    # tau_ax - tau_lat (for the free mode tau_lat is already zero to 1e-10).
    lat = 2 if mode_kind == "equibiaxial_incompressible" else 1
    axial = tau[0] - tau[lat]
    if stress_kind == "biot":
        return axial / math.exp(logs[0])
    if stress_kind == "cauchy":
        return axial / det
    return axial


def _shear_stress_scalar(stress_kind: str, model: MaterialModel, gamma: float) -> float:
    if stress_kind == "biot":
        raise UnsupportedCombinationError(
            "biot stress is not a single scalar in simple shear; "
            "use cauchy or kirchhoff"
        )
    F = _shear_matrix(gamma)
    tau = kirchhoff_stress(model, F)
    # det F = 1 in simple shear, so cauchy and kirchhoff shear agree
    return float(tau[0, 1])


def _path_model(model: MaterialModel) -> MaterialModel:
    """Path tables report exp-Hencky energies normalized to vanish at rest."""
    return replace(model, normalized=True) if model.kind == "exp_hencky" else model


def path_rows(mode: DeformationMode, model: MaterialModel) -> List[Tuple[float, ...]]:
    """(control, detF, omega_iso, omega_vol, energy, stress) per grid step."""
    if model.kind not in ("hencky", "exp_hencky"):
        raise UnsupportedCombinationError(
            f"path tables support the log-strain energies, not {model.kind!r}"
        )
    model = _path_model(model)
    stress_kind_default = {"volumetric": "cauchy"}.get(mode.kind, "biot")
    rows = []
    for control in mode.grid():
        control = float(control)
        logs = _mode_logs(mode.kind, control, model)
        if logs is None:
            F = _shear_matrix(control)
            w = energy(model, F)
            stress = _shear_stress_scalar("kirchhoff", model, control)
            rows.append((control, 1.0, omega_iso(F), omega_vol(F), w, stress))
        else:
            iso2, t = log_invariants(logs)
            rows.append(
                (
                    control,
                    math.exp(t),
                    math.sqrt(iso2),
                    abs(t),
                    energy_from_logs(model, logs),
                    _diag_stress_scalar(mode.kind, stress_kind_default, model, logs),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def measure_payload(F: np.ndarray, p: MetricParams) -> dict:
    """Every field from geodesy's closed forms and the polar factors, which
    share one SVD F = A diag(s) B^T through the stretch-spectrum memo."""
    _, s, B = stretch_spectrum(F)
    pol = polar_decompose(F)
    return {
        "omega_iso": omega_iso(F),
        "omega_vol": omega_vol(F),
        "dist_squared_geod": dist_squared_to_SO(F, p).squared_distance,
        # ||s - 1|| itself: euclid_dist_to_SO's sqrt(d * d) may move the last bit
        "dist_euclid": float(np.linalg.norm(s - 1.0)),
        "rotation": pol.rotation.tolist(),
        "right_stretch": pol.right_stretch.tolist(),
        "left_stretch": pol.left_stretch.tolist(),
        "log_right_stretch": sym_part(B @ (np.log(s)[:, None] * B.T)).tolist(),
    }


def _parse_matrix(text: str) -> np.ndarray:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read matrix file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"matrix parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        F = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"matrix entries must be numbers: {exc}") from exc
    if F.ndim != 2 or F.shape[0] != F.shape[1] or F.shape[0] < 2:
        raise InvalidInputError(
            f"matrix must be square with dimension >= 2, got shape {F.shape}"
        )
    if not np.all(np.isfinite(F)):
        raise InvalidInputError("matrix entries must be finite")
    return F


def _format_scalar(x: float) -> str:
    return format(float(x), ".12g")


def _print_measure(payload: dict, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True))
        out.write("\n")
        return
    scalars = ["omega_iso", "omega_vol", "dist_squared_geod", "dist_euclid"]
    width = max(len(k) for k in payload)
    for key in scalars:
        out.write(f"{key:<{width}}  {_format_scalar(payload[key])}\n")
    for key in ("rotation", "right_stretch", "left_stretch", "log_right_stretch"):
        rows = payload[key]
        out.write(f"{key:<{width}}  " + "  ".join(_format_scalar(v) for v in rows[0]) + "\n")
        for row in rows[1:]:
            out.write(" " * (width + 2) + "  ".join(_format_scalar(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _auto_nodes(F: np.ndarray) -> int:
    pol = polar_decompose(F)
    theta = math.atan2(pol.rotation[1, 0], pol.rotation[0, 0])
    return min(80, max(12, math.ceil(16.0 * _path_activity(F, abs(theta)))))


def _suite_grioli(dim: int, cfg: OracleConfig) -> List[OracleVerdict]:
    spd = np.diag([2.0, 0.5, 1.3][:dim]) + 0.1 * (np.ones((dim, dim)) - np.eye(dim))
    fixed = [np.eye(dim), spd]
    if dim == 2:
        fixed.append(np.array([[1.0, 1.0], [0.0, 1.0]]))
    else:  # flat: the misfit barely moves under rotations that mix the two small stretches
        Q, V = _random_rotations(substream(cfg.seed, 2), 3, 2)
        fixed.append(Q @ V @ np.diag([1.0, 1e-4, 1e-4]) @ V.T)
    rng = substream(cfg.seed, 1)
    draws = [_random_gl(rng, dim) for _ in range(cfg.samples)]
    return [grioli_oracle(F, cfg) for F in fixed + draws]


def _suite_geodesic(
    dim: int, cfg: OracleConfig, p: MetricParams, nodes_override: Optional[int] = None
) -> List[OracleVerdict]:
    if dim != 2:
        raise UnsupportedCombinationError(
            "the path oracle runs planar searches only (--dim 2)"
        )
    fixed = [np.eye(2), np.diag([math.e, 1.0 / math.e]), np.array([[1.0, 1.0], [0.0, 1.0]])]
    rng = substream(cfg.seed, 2)
    # random draws are capped: each one is a full path optimization
    draws = [_random_gl(rng, 2) for _ in range(min(cfg.samples, 20))]
    claims = [
        geodesic_distance_oracle(F, p, replace(cfg, nodes=nodes_override or _auto_nodes(F)))
        for F in fixed + draws
    ]
    probe_cfg = replace(cfg, samples=4, nodes=14)
    claims.append(best_approx_uniqueness_probe(fixed[2], p, probe_cfg))
    return claims


def _suite_logmin(dim: int, cfg: OracleConfig) -> List[OracleVerdict]:
    rng = substream(cfg.seed, 3)
    weighted_p = MetricParams(2.0, 1.0, 1.0)
    claims = []
    for _ in range(6):
        F = _random_gl(rng, dim)
        claims += [logmin_oracle(F, cfg), weighted_logmin_oracle(F, weighted_p, cfg)]
    return claims


def _suite_symmetry(dim: int, cfg: OracleConfig, p: MetricParams) -> List[OracleVerdict]:
    rng = substream(cfg.seed, 4)
    worst = 0.0
    for _ in range(cfg.samples):
        F = _random_gl(rng, dim)
        d1 = dist_squared_to_SO(F, p).squared_distance
        d2 = dist_squared_to_SO(np.linalg.inv(F), p).squared_distance
        worst = max(worst, abs(d1 - d2) / max(1.0, d1))
    claims = [
        OracleVerdict.of(
            f"inverse symmetry of the squared geodesic measure ({cfg.samples} draws)",
            0.0, worst, worst <= 1e-10,
        )
    ]
    witness = np.diag([2.0, 1.0, 1.0])
    gap = abs(
        euclid_dist_to_SO(witness).distance
        - euclid_dist_to_SO(np.linalg.inv(witness)).distance
    )
    claims.append(
        OracleVerdict.of(
            "euclidean measure breaks inverse symmetry at diag(2,1,1): gap is 1/2",
            0.5, gap, abs(gap - 0.5) <= 1e-12,
        )
    )
    for kind in ("hencky", "exp_hencky", "svk"):
        model = MaterialModel(kind=kind, mu=1.0, kappa=1.0)
        report = tension_compression_check(model, samples=cfg.samples, seed=cfg.seed)
        expect_symmetric = kind != "svk"
        claims.append(
            OracleVerdict.of(
                f"tension-compression symmetry of {kind}"
                + ("" if expect_symmetric else " (expected to fail)"),
                0.0,
                report.max_gap,
                report.symmetric == expect_symmetric,
                report.witness,
            )
        )
    return claims


def _rate_motions() -> List[Tuple[str, str, List[MotionSample]]]:
    K = np.array([[0.0, -1.0, 0.4], [1.0, 0.0, -0.2], [-0.4, 0.2, 0.0]]) / math.sqrt(1.4)

    def rigid(t):
        Q = mat_exp(0.9 * t * K)
        return Q, 0.9 * K @ Q

    def mixed(t):
        Q = mat_exp(1.1 * t * K)
        S = np.diag([1.0 + 0.5 * t, 1.0, 1.0])
        return Q @ S, 1.1 * K @ Q @ S + Q @ np.diag([0.5, 0.0, 0.0])

    def isochoric(t):
        lam = 1.0 + 0.5 * t
        return np.diag([lam, 1.0 / lam, 1.0]), np.diag([0.5, -0.5 / lam ** 2, 0.0])

    def triaxial(t):
        F = np.diag([1.0 + 0.5 * t, 1.0 / (1.0 + 0.3 * t), 1.0 + 0.25 * t * t])
        return F, np.diag([0.5, -0.3 / (1.0 + 0.3 * t) ** 2, 0.5 * t])

    motions = [  # (identity family, label, t -> (F, F_dot))
        ("almansi", "rigid rotation", rigid),
        ("almansi", "diagonal stretch",
         lambda t: (np.diag([1.0 + 0.5 * t, 1.0, 1.0]), np.diag([0.5, 0.0, 0.0]))),
        ("almansi", "rotation with stretch", mixed),
        ("coaxial", "dilation", lambda t: ((1.0 + 0.8 * t) * np.eye(3), 0.8 * np.eye(3))),
        ("coaxial", "isochoric stretch", isochoric),
        ("coaxial", "triaxial stretch", triaxial),
    ]
    ts = np.linspace(0.0, 1.0, 1000)
    return [
        (family, label, [MotionSample(*motion(t), time=float(t)) for t in ts])
        for family, label, motion in motions
    ]


def _suite_rates() -> List[OracleVerdict]:
    claims = []
    for family, label, path in _rate_motions():
        if family == "almansi":
            residual = almansi_rate_check(path)
            claim = f"almansi lower-rate identity, {label} (1000 steps)"
        else:
            residual = coaxial_lograte_check(path)
            claim = f"coaxial log-stretch rate identity, {label} (1000 steps)"
        claims.append(OracleVerdict.of(claim, 0.0, residual, residual <= 1e-5))
    return claims


def _suite_log_rules(dim: int, cfg: OracleConfig) -> List[OracleVerdict]:
    rng = substream(cfg.seed, 5)
    w_det = w_dev = w_scale = w_add = 0.0
    for _ in range(cfg.samples):
        X = rng.uniform(-1.0, 1.0, size=(dim, dim))
        w_det = max(w_det, abs(np.linalg.det(mat_exp(X)) - math.exp(np.trace(X))))
        lhs = mat_exp(deviatoric(X))
        rhs = math.exp(-np.trace(X) / dim) * mat_exp(X)
        w_dev = max(w_dev, float(np.max(np.abs(lhs - rhs))))
        P = mat_exp(sym_part(rng.uniform(-1.0, 1.0, size=(dim, dim))))
        c = float(rng.uniform(0.2, 5.0))
        scaled = principal_log_spd((np.linalg.det(P) ** (-1.0 / dim)) * P)
        w_scale = max(
            w_scale, float(np.max(np.abs(scaled - deviatoric(principal_log_spd(P)))))
        )
        w_scale = max(
            w_scale,
            float(np.max(np.abs(principal_log_spd(c * np.eye(dim)) - math.log(c) * np.eye(dim)))),
        )
        # coaxial additivity: commuting stretches built on one eigenframe
        Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        d1 = rng.uniform(0.3, 3.0, size=dim)
        d2 = rng.uniform(0.3, 3.0, size=dim)
        U1 = Q @ np.diag(d1) @ Q.T
        U2 = Q @ np.diag(d2) @ Q.T
        both = principal_log_spd(sym_part(Q @ np.diag(d1 * d2) @ Q.T))
        split = principal_log_spd(sym_part(U1)) + principal_log_spd(sym_part(U2))
        w_add = max(w_add, float(np.max(np.abs(both - split))))
    rules = (
        ("det of exp equals exp of trace", w_det),
        ("exp of the deviator equals det-normalized exp", w_dev),
        ("log of scaled/unimodular stretches splits off the volume", w_scale),
        ("coaxial log additivity", w_add),
    )
    return [OracleVerdict.of(claim, 0.0, w, w <= 1e-10) for claim, w in rules]


def _suite_rank_one(cfg: OracleConfig) -> List[OracleVerdict]:
    claims = []
    for k in (0.25, 1.0):
        model = MaterialModel(kind="exp_hencky", mu=1.0, kappa=1.0, k=k, khat=0.5)
        rng = substream(cfg.seed, 6)
        worst = math.inf
        for _ in range(cfg.samples):
            F = _random_gl(rng, 2)
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            direction = np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            ts = np.linspace(-0.2, 0.2, 9)
            vals = []
            ok = True
            for t in ts:
                Ft = F + t * direction
                if np.linalg.det(Ft) <= 1e-8:
                    ok = False
                    break
                vals.append(energy(model, Ft))
            if not ok:
                continue
            worst = min(worst, float(np.min(np.diff(vals, 2))))
        claims.append(
            OracleVerdict.of(
                f"planar rank-one second differences stay nonnegative (k={k})",
                0.0, worst, worst >= -1e-8,
            )
        )
    return claims


# suite name -> (dim, cfg, p, nodes_override) -> verdicts
SUITES: Dict[str, Callable[..., List[OracleVerdict]]] = {
    "grioli": lambda dim, cfg, p, nodes: _suite_grioli(dim, cfg),
    "geodesic-distance": _suite_geodesic,
    "logmin": lambda dim, cfg, p, nodes: _suite_logmin(dim, cfg),
    "symmetry": lambda dim, cfg, p, nodes: _suite_symmetry(dim, cfg, p),
    "rates": lambda dim, cfg, p, nodes: _suite_rates(),
    "log-rules": lambda dim, cfg, p, nodes: _suite_log_rules(dim, cfg),
    "exp-hencky-rank-one": lambda dim, cfg, p, nodes: _suite_rank_one(cfg),
}


def run_suite(
    suite: str, dim: int, cfg: OracleConfig, p: MetricParams,
    nodes_override: Optional[int] = None,
) -> List[OracleVerdict]:
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}")
    return SUITES[suite](dim, cfg, p, nodes_override)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

_FREE_PARAMETERS = {
    "hencky": ("mu", "kappa"),
    "exp_hencky": ("mu", "kappa", "k", "khat"),
}


def _build_model(kind: str, u: np.ndarray) -> MaterialModel:
    mu = math.exp(u[0])
    kappa = math.exp(u[1])
    if kind == "hencky":
        return MaterialModel(kind="hencky", mu=mu, kappa=kappa)
    return MaterialModel(
        kind="exp_hencky", mu=mu, kappa=kappa,
        k=0.25 + math.exp(u[2]), khat=0.125 + math.exp(u[3]),
    )


def predict_stresses(
    model: MaterialModel, mode_kind: str, stress_kind: str, controls: Sequence[float]
) -> List[float]:
    out = []
    for control in controls:
        logs = _mode_logs(mode_kind, float(control), model)
        if logs is None:
            out.append(_shear_stress_scalar(stress_kind, model, float(control)))
        else:
            out.append(_diag_stress_scalar(mode_kind, stress_kind, model, logs))
    return out


def _levenberg_marquardt(
    residuals: Callable[[np.ndarray], Optional[np.ndarray]], start: np.ndarray, budget: int
) -> Tuple[np.ndarray, FitStart]:
    """Minimize |residuals(u)|^2 from `start` within `budget` residual evaluations.

    Marquardt's method with Moré's scaling: each step solves
    min |[J; sqrt(lam) D] s + [r; 0]| by least squares, where J is a
    forward-difference Jacobian and D holds the largest column norms of J met
    so far, so a flat direction leaves the system well posed.  lam follows the
    ratio of the actual to the linearly predicted decrease (Nielsen's update)
    and grows 2, 4, 8, ... fold while trial steps fail.  The run converges
    when lam passes 1e10 without a lower cost, or when a step lowers the cost
    by at most the noise floor: 1e-12 of the cost, or (1e-10)^2 per residual,
    since the free uniaxial mode's lateral solve resolves stresses to 1e-10.
    `residuals` returns None where the model cannot be evaluated.
    """
    u = np.array(start, dtype=float)
    r = residuals(u)
    evaluations = 1

    def record(cost: float, stop: str) -> Tuple[np.ndarray, FitStart]:
        return u, FitStart(tuple(float(v) for v in start), cost, evaluations, stop)

    if r is None:
        return record(math.inf, "infeasible")
    cost = float(r @ r)
    lam, grow = 1e-3, 2.0
    scale = np.zeros(u.size)
    J = None
    while cost > 0.0:
        if J is None:
            if evaluations + u.size >= budget:
                return record(cost, "evaluations")
            J = np.zeros((r.size, u.size))
            for j in range(u.size):
                h = 1e-5 * max(1.0, abs(u[j]))
                shifted = u.copy()
                shifted[j] += h
                rj = residuals(shifted)
                evaluations += 1
                if rj is not None:
                    J[:, j] = (rj - r) / h
            scale = np.maximum(scale, np.linalg.norm(J, axis=0))
        if lam > 1e10:
            return record(cost, "converged")
        if evaluations >= budget:
            return record(cost, "evaluations")
        A = np.vstack([J, math.sqrt(lam) * np.diag(scale)])
        step = np.linalg.lstsq(A, np.concatenate([-r, np.zeros(u.size)]), rcond=None)[0]
        trial = residuals(u + step)
        evaluations += 1
        new_cost = math.inf if trial is None else float(trial @ trial)
        if not new_cost < cost:
            lam *= grow
            grow *= 2.0
            continue
        linear = r + J @ step
        gain = min((cost - new_cost) / max(cost - float(linear @ linear), 1e-300), 1.0)
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-12)
        grow = 2.0
        decrease = cost - new_cost
        u, r, cost, J = u + step, trial, new_cost, None
        if decrease <= max(1e-12 * (cost + decrease), r.size * 1e-20):
            break
    return record(cost, "converged")


def run_fit(problem: FitProblem) -> FitResult:
    if problem.model_kind not in _FREE_PARAMETERS:
        raise UnsupportedCombinationError(
            f"fit supports the log-strain energies, not {problem.model_kind!r}"
        )
    data = np.asarray(problem.stresses, dtype=float)

    def misfit(u: np.ndarray) -> Optional[np.ndarray]:
        try:
            model = _build_model(problem.model_kind, u)
            pred = predict_stresses(model, problem.mode_kind, problem.stress_kind,
                                    problem.controls)
        except (OverflowError, NonConvergenceError, ParameterOutOfRangeError):
            return None
        r = np.asarray(pred) - data
        return r if np.all(np.isfinite(r)) else None

    ndim = len(_FREE_PARAMETERS[problem.model_kind])
    base = np.zeros(ndim)
    if ndim == 4:
        base[2] = math.log(0.3)
        base[3] = math.log(0.25)
    rng = substream(problem.seed, 0)
    starts = [base] + [base + 0.7 * rng.standard_normal(ndim) for _ in range(4)]

    runs = [_levenberg_marquardt(misfit, start, problem.max_iters) for start in starts]
    best_u, _ = min(runs, key=lambda run: run[1].cost)
    records = tuple(record for _, record in runs)
    any_success = any(record.stop == "converged" for record in records)
    model = _build_model(problem.model_kind, best_u)
    pred = predict_stresses(model, problem.mode_kind, problem.stress_kind, problem.controls)
    residuals = tuple(float(a - b) for a, b in zip(pred, problem.stresses))
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    result = FitResult(model=model, rms=rms, residuals=residuals,
                       converged=any_success, starts=records)
    if not any_success:
        spent = "; ".join(
            f"start {i}: cost {_format_scalar(record.cost)} after {record.evaluations} evaluations"
            for i, record in enumerate(records)
        )
        raise NonConvergenceError(
            f"no start converged within {problem.max_iters} residual evaluations ({spent})",
            result,
        )
    return result


def _read_fit_csv(path: str) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise InvalidInputError(f"cannot read data file: {exc}") from exc
    if not lines or [c.strip() for c in lines[0].split(",")] != ["control", "stress"]:
        raise InvalidInputError("fit data must start with the header 'control,stress'")
    controls: List[float] = []
    stresses: List[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise InvalidInputError(f"line {lineno}: expected 'control,stress' pair")
        try:
            controls.append(float(parts[0]))
            stresses.append(float(parts[1]))
        except ValueError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from exc
    return tuple(controls), tuple(stresses)


def _print_fit(result: FitResult, problem: FitProblem, out: TextIO) -> None:
    model = result.model
    out.write(f"model: {model.kind}\n")
    for name in _FREE_PARAMETERS[problem.model_kind]:
        out.write(f"{name} = {_format_scalar(getattr(model, name))}\n")
    out.write(f"rms = {_format_scalar(result.rms)}\n")
    out.write("residuals:\n")
    for control, data, resid in zip(problem.controls, problem.stresses, result.residuals):
        out.write(
            f"  control={_format_scalar(control)} stress={_format_scalar(data)} "
            f"residual={_format_scalar(resid)}\n"
        )


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="geolog", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="strain measures and polar data for one matrix")
    m.add_argument("--matrix", required=True, help="inline JSON rows, or @file")
    m.add_argument("--mu", type=float, default=1.0)
    m.add_argument("--muc", type=float, default=1.0)
    m.add_argument("--kappa", type=float, default=1.0)
    m.add_argument("--format", choices=("json", "table"), default="table")

    v = sub.add_parser("verify", help="run a brute-force verification suite")
    v.add_argument("--suite", required=True, choices=SUITES)
    v.add_argument("--dim", type=int, choices=(2, 3), default=2)
    v.add_argument("--samples", type=int, default=50)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=0.02)
    v.add_argument("--nodes", type=int, default=0,
                   help="path nodes of the path oracle (0 = scale per matrix)")
    v.add_argument("--max-iters", type=int, default=200000)
    v.add_argument("--mu", type=float, default=1.0)
    v.add_argument("--muc", type=float, default=1.0)
    v.add_argument("--kappa", type=float, default=1.0)

    p = sub.add_parser("path", help="tabulate a deformation path as CSV")
    p.add_argument("--mode", required=True, choices=MODE_KINDS)
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--k", type=float, default=0.25)
    p.add_argument("--khat", type=float, default=0.125)
    p.add_argument("--out", default=None, help="CSV output file (default stdout)")

    f = sub.add_parser("fit", help="fit material parameters to stress data")
    f.add_argument("--data", required=True, help="CSV file with header control,stress")
    f.add_argument("--model", required=True)
    f.add_argument("--mode", required=True, choices=MODE_KINDS)
    f.add_argument("--stress", required=True, choices=STRESS_KINDS)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--max-iters", type=int, default=20000,
                   help="residual evaluations per Levenberg-Marquardt start")
    return parser


def _cmd_measure(args: argparse.Namespace, out: TextIO) -> int:
    F = _parse_matrix(args.matrix)
    p = MetricParams(mu=args.mu, mu_c=args.muc, kappa=args.kappa)
    payload = measure_payload(F, p)
    _print_measure(payload, args.format, out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    nodes_override = args.nodes if args.nodes > 0 else None
    cfg = OracleConfig(
        seed=args.seed, samples=args.samples, nodes=nodes_override or 12,
        tol=args.tol, max_iters=args.max_iters,
    )
    p = MetricParams(mu=args.mu, mu_c=args.muc, kappa=args.kappa)
    verdicts = run_suite(args.suite, args.dim, cfg, p, nodes_override)
    for verdict in verdicts:
        out.write(str(verdict) + "\n")
    failed = sum(0 if v.passed else 1 for v in verdicts)
    out.write(f"suite {args.suite}: {len(verdicts) - failed}/{len(verdicts)} claims passed\n")
    return EXIT_OK if failed == 0 else EXIT_CLAIM_FAILED


def _cmd_path(args: argparse.Namespace, out: TextIO) -> int:
    mode = DeformationMode(kind=args.mode, start=args.start, stop=args.stop, steps=args.steps)
    model = MaterialModel(kind=args.model, mu=args.mu, kappa=args.kappa,
                          k=args.k, khat=args.khat)
    rows = path_rows(mode, model)
    lines = [CSV_HEADER] + [",".join(format(x, ".17g") for x in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        out.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace, out: TextIO) -> int:
    controls, stresses = _read_fit_csv(args.data)
    problem = FitProblem(
        controls=controls,
        stresses=stresses,
        mode_kind=args.mode,
        stress_kind=args.stress,
        model_kind=args.model,
        seed=args.seed,
        max_iters=args.max_iters,
    )
    result = run_fit(problem)
    _print_fit(result, problem, out)
    return EXIT_OK


_COMMANDS = {"measure": _cmd_measure, "verify": _cmd_verify, "path": _cmd_path, "fit": _cmd_fit}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, sys.stdout)
    except (UsageError, ParameterOutOfRangeError, UnsupportedModelError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInputError, NonPositiveDeterminantError, SingularMatrixError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowError as exc:
        print(f"invalid input: floating-point overflow ({exc})", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnsupportedCombinationError as exc:
        print(f"unsupported combination: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        report = exc.report
        if report.residuals:
            print(f"best-so-far rms = {_format_scalar(report.rms)}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
