"""Strain tensor families built on the stretch tensors.

The central object is the one-parameter family E_r = (U^{2r} - id) / (2r) of
strain tensors generated by a stretch U, with the logarithmic (Hencky) tensor
log U as its r -> 0 limit, plus the rational approximation of the logarithm by
the mean of the r = 1/2 and r = -1/2 members, the linearized strain, and the
split of a strain tensor into its isochoric and volumetric parts.

Every member of the family is an isotropic tensor function of U that vanishes
exactly at U = id and has a primary matrix-function representation through the
scale function e_r(lambda) = (lambda^{2r} - 1) / (2r) on the eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matcore import (
    Mat,
    _symmetric,
    as_square,
    principal_log_spd,
    spd_function,
    sym_part,
)

_NAMED_ORDERS = ("hencky", "bazant", "linear")
_KINDS = ("material", "spatial")


@dataclass(frozen=True)
class StrainTensor:
    """A symmetric strain value tagged with its configuration and family member.

    ``kind`` records whether the tensor lives in the material description
    (built from the right stretch U) or the spatial one (left stretch V).
    ``order`` is the numeric family exponent r, or one of the named measures
    "hencky", "bazant", "linear".
    """

    value: Mat
    kind: str
    order: "float | str"

    def __post_init__(self) -> None:
        if not _symmetric(as_square(self.value, "strain value"), 1e-12):
            raise ValueError("strain tensor value must be symmetric")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if isinstance(self.order, str):
            if self.order not in _NAMED_ORDERS:
                raise ValueError(f"named order must be one of {_NAMED_ORDERS}, got {self.order!r}")
        else:
            object.__setattr__(self, "order", float(self.order))

    @property
    def dim(self) -> int:
        return self.value.shape[0]


def scale_function(r: float, lam: "float | np.ndarray") -> "float | np.ndarray":
    """Scalar generator e_r(lambda) of the strain family, with e_0 = ln; inf past
    the double range (r != 0 by :func:`principal_strains`)."""
    lam = np.asarray(lam, dtype=float)
    if r == 0.0:
        out = np.log(lam)
    else:
        out = np.array(principal_strains(r, lam.ravel().tolist())).reshape(lam.shape)
    return float(out) if out.ndim == 0 else out


def principal_strains(r: float, stretches: Sequence[float]) -> list[float]:
    """e_r(lambda) = (lambda^{2r} - 1) / (2r) of each stretch for r != 0, in
    Python floats; inf where lambda^{2r} passes the double range.

    lambda^2 is lambda * lambda, as numpy squares, and other powers come from
    math.pow.

    Raises
    ------
    ValueError
        Where lambda^{2r} is not a real number (lambda < 0 with 2r not an
        integer, or lambda = 0 with r < 0).
    """
    p = 2.0 * r
    out = []
    for lam in stretches:
        try:
            power = lam * lam if p == 2.0 else math.pow(lam, p)
        except OverflowError:
            power = math.inf
        except ValueError:
            raise ValueError(f"e_r with r = {r:g} is undefined at lambda = {lam!r}") from None
        out.append((power - 1.0) / p)
    return out


def seth_hill(U: Mat, r: float, kind: str = "material") -> StrainTensor:
    """Member E_r = (U^{2r} - id)/(2r) of the strain family, E_0 = log U.

    Parameters
    ----------
    U : Mat
        SPD stretch tensor (right stretch for material strains, left stretch
        for spatial ones).
    r : float
        Family exponent; r = 0 selects the logarithmic tensor.
    kind : str
        "material" or "spatial" tag carried by the result.

    Raises
    ------
    NotSPDError
        If U is not symmetric positive definite.
    """
    r = float(r)
    return StrainTensor(value=spd_function(U, lambda w: scale_function(r, w), "U"), kind=kind, order=r)


def hencky_tensor(U: Mat, kind: str = "material") -> StrainTensor:
    """Logarithmic strain tensor log U, the r -> 0 member of the family."""
    return StrainTensor(value=principal_log_spd(U), kind=kind, order="hencky")


def bazant_approx(U: Mat, kind: str = "material") -> StrainTensor:
    """First-order approximation (U - U^{-1})/2 of the logarithmic tensor.

    Identical to the mean of the r = 1/2 and r = -1/2 family members.
    """
    value = spd_function(U, lambda w: 0.5 * (w - 1.0 / w), "U")
    return StrainTensor(value=value, kind=kind, order="bazant")


def linear_strain(grad_u: Mat) -> StrainTensor:
    """Infinitesimal strain, the symmetric part of a displacement gradient."""
    grad_u = as_square(grad_u, "grad_u")
    return StrainTensor(value=sym_part(grad_u), kind="material", order="linear")


def vol_iso_split(H: StrainTensor) -> tuple[StrainTensor, StrainTensor]:
    """Split a strain tensor into trace-free (isochoric) and spherical (volumetric) parts.

    Returns (iso, vol) with iso = H - (tr H / n) id and vol = (tr H / n) id,
    both tagged like the input.  For a logarithmic strain the isochoric part
    exponentiates to a unimodular stretch, which is what makes this split the
    volumetric/isochoric one.
    """
    X = H.value
    n = X.shape[0]
    coeff = float(np.trace(X)) / n
    iso = StrainTensor(value=X - coeff * np.eye(n), kind=H.kind, order=H.order)
    vol = StrainTensor(value=coeff * np.eye(n), kind=H.kind, order=H.order)
    return iso, vol


@dataclass(frozen=True)
class ScaleFunctionReport:
    """Outcome of the scale-function sanity check for one family exponent."""

    order: float
    value_at_one: float
    fd_derivative_at_one: float
    strictly_increasing: bool
    passed: bool


def scale_function_check(r: float) -> ScaleFunctionReport:
    """Verify the defining normalization of the scale function e_r.

    Checks, on a stretch grid covering [0.2, 5]: e_r(1) = 0, a central
    finite-difference derivative e_r'(1) = 1 within 1e-6, and strict
    monotonicity of e_r along the whole grid.
    """
    r = float(r)
    vals = scale_function(r, np.linspace(0.2, 5.0, 481))
    value_at_one = float(scale_function(r, 1.0))
    h = 1e-6
    fd = float((scale_function(r, 1.0 + h) - scale_function(r, 1.0 - h)) / (2.0 * h))
    increasing = bool(np.all(np.diff(vals) > 0.0))
    passed = abs(value_at_one) <= 1e-12 and abs(fd - 1.0) <= 1e-6 and increasing
    return ScaleFunctionReport(
        order=r,
        value_at_one=value_at_one,
        fd_derivative_at_one=fd,
        strictly_increasing=increasing,
        passed=passed,
    )
