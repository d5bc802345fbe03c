"""Logarithmic strain measures and geodesic distances on matrix groups.

The package computes closed-form geodesic distances from a deformation
gradient to the rotation group under the family of isotropic left-invariant
metrics, the isochoric/volumetric logarithmic strain measures those distances
factor into, the associated hyperelastic energies and stresses, and a set of
independent brute-force oracles that re-verify the closed forms numerically.
"""

from .matcore import (
    AngleAtPiError,
    Mat,
    MetricParams,
    NonPositiveDeterminantError,
    NotSPDError,
    OrthogonalSplit,
    PolarDecomposition,
    SingularMatrixError,
    mat_exp,
    polar_decompose,
    principal_log_rotation,
    principal_log_spd,
    split_orthogonal,
    sqrt_spd,
    weighted_inner,
    weighted_norm,
)
from .strain import StrainTensor, hencky_tensor, seth_hill
from .geodesy import (
    DistanceReport,
    GeodesicSegment,
    cofactor,
    dist_cof_squared_to_SO,
    dist_squared_to_SO,
    euclid_dist_to_SO,
    geodesic_point,
    omega_iso,
    omega_vol,
)
from .constitutive import (
    MaterialModel,
    ParameterOutOfRangeError,
    UnsupportedModelError,
    cauchy_stress,
    energy,
    kirchhoff_stress,
)
from .oracle import (
    OracleConfig,
    OracleVerdict,
    geodesic_distance_oracle,
    grioli_oracle,
    logmin_oracle,
    substream,
    weighted_logmin_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AngleAtPiError",
    "DistanceReport",
    "GeodesicSegment",
    "Mat",
    "MaterialModel",
    "MetricParams",
    "NonPositiveDeterminantError",
    "NotSPDError",
    "OracleConfig",
    "OracleVerdict",
    "OrthogonalSplit",
    "ParameterOutOfRangeError",
    "PolarDecomposition",
    "SingularMatrixError",
    "StrainTensor",
    "UnsupportedModelError",
    "cauchy_stress",
    "cofactor",
    "dist_cof_squared_to_SO",
    "dist_squared_to_SO",
    "energy",
    "euclid_dist_to_SO",
    "geodesic_distance_oracle",
    "geodesic_point",
    "grioli_oracle",
    "hencky_tensor",
    "kirchhoff_stress",
    "logmin_oracle",
    "main",
    "mat_exp",
    "omega_iso",
    "omega_vol",
    "polar_decompose",
    "principal_log_rotation",
    "principal_log_spd",
    "seth_hill",
    "split_orthogonal",
    "sqrt_spd",
    "substream",
    "weighted_inner",
    "weighted_logmin_oracle",
    "weighted_norm",
    "__version__",
]


def __getattr__(name: str):
    # the CLI is loaded on first use, so `import geolog` stays light and
    # `python -m geolog.cli` does not find the module already imported
    if name == "main":
        from .cli import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
