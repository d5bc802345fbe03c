"""Independent references for the closed forms, from np.linalg.svd alone.

Everything is written in the log singular values l = log s of F = A diag(s) B^T:

    d^2          = mu ||dev l||^2 + (kappa/2) (sum l)^2
    omega_iso    = ||dev l||,  omega_vol = |sum l| = |ln det F|
    Cauchy       = Kirchhoff / det F,  det F = prod s

A backward-stable SVD gets s_i only to about eps * s_max, so on an
ill-conditioned F the reference itself is uncertain in log s_i by up to
eps * s_max / s_i. Each value's tolerance is therefore 1e-10 relative to
max(1, |value|) plus the first-order change of the value under that
perturbation. For inputs with condition number below about 1e4 the second
term is under 1e-11 and the tolerance is the plain 1e-10.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-10
_SVD_SLACK = 8.0 * np.finfo(float).eps


def _spectral_values(l, s, A, B, metric, models):
    """Closed-form values from log singular values l (s = exp(l) as given)."""
    n = l.size
    dev = l - l.mean()
    iso2 = float(dev @ dev)
    tr = float(l.sum())
    e = s - 1.0
    hencky, exp_hencky, biot = models
    det = float(np.prod(s))

    def frame(weights, V):
        return (V * weights) @ V.T

    tau_h = frame(2.0 * hencky.mu * dev + hencky.kappa * tr, A)
    gain_iso = math.exp(exp_hencky.k * iso2)
    gain_vol = math.exp(exp_hencky.khat * tr * tr)
    tau_e = frame(2.0 * exp_hencky.mu * gain_iso * dev + exp_hencky.kappa * gain_vol * tr, A)
    lam = biot.kappa - 2.0 * biot.mu / n
    return {
        "dist_squared_to_SO": metric.mu * iso2 + 0.5 * metric.kappa * tr * tr,
        "omega_iso": math.sqrt(iso2),
        "omega_vol": abs(tr),
        "euclid_dist_to_SO": math.sqrt(float(e @ e)),
        "dist_cof_squared_to_SO": metric.mu * iso2 + 0.5 * metric.kappa * (n - 1) ** 2 * tr * tr,
        "energy.hencky": hencky.mu * iso2 + 0.5 * hencky.kappa * tr * tr,
        "energy.exp_hencky": (exp_hencky.mu / exp_hencky.k) * gain_iso
        + (exp_hencky.kappa / (2.0 * exp_hencky.khat)) * gain_vol,
        "energy.biot_linear": biot.mu * float(e @ e) + 0.5 * lam * float(e.sum()) ** 2,
        "kirchhoff.hencky": tau_h,
        "kirchhoff.exp_hencky": tau_e,
        "cauchy.hencky": tau_h / det,
        "cauchy.exp_hencky": tau_e / det,
        "hencky_tensor": frame(l, B),
    }


def _size(x) -> float:
    return float(np.max(np.abs(x)))


def closed_form_reference(F: np.ndarray, metric, models) -> dict:
    """Reference value and tolerance for every output of one closed_forms op.

    Returns {name: (value, tolerance)}; ``models`` is the (hencky,
    exp_hencky, biot_linear) triple of material models.
    """
    A, s, Bt = np.linalg.svd(F)
    B = Bt.T
    l = np.log(s)
    base = _spectral_values(l, s, A, B, metric, models)
    slack = {k: 0.0 for k in base}
    for i in range(l.size):
        delta = np.zeros_like(l)
        delta[i] = _SVD_SLACK * s[0] / s[i]
        moved = _spectral_values(l + delta, s * np.exp(delta), A, B, metric, models)
        for k in base:
            slack[k] += _size(np.asarray(moved[k]) - np.asarray(base[k]))
    return {
        k: (base[k], REL_TOL * max(1.0, _size(base[k])) + slack[k]) for k in base
    }


def within(value, reference) -> bool:
    """Whether ``value`` matches a (reference, tolerance) pair entrywise."""
    ref, tol = reference
    value = np.asarray(value, dtype=float)
    return value.shape == np.shape(ref) and bool(np.all(np.isfinite(value))) \
        and _size(value - ref) <= tol


def oracle_closed_form(F: np.ndarray, claim: str, metric=None) -> float:
    """The closed-form value each oracle verdict reports, from the SVD.

    path and weighted: sqrt(mu ||dev l||^2 + (kappa/2)(sum l)^2);
    logmin: ||l||; grioli: ||U - id|| = ||s - 1||.
    """
    s = np.linalg.svd(F, compute_uv=False)
    l = np.log(s)
    if claim == "logmin":
        return float(np.linalg.norm(l))
    if claim == "grioli":
        return float(np.linalg.norm(s - 1.0))
    dev = l - l.mean()
    tr = float(l.sum())
    return math.sqrt(metric.mu * float(dev @ dev) + 0.5 * metric.kappa * tr * tr)
