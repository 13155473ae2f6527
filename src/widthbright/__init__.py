"""Support-function toolkit for convex bodies in R^3.

Bodies are represented by real spherical-harmonic coefficients of their
support function h(u) = max_{y in K} <y, u>. The package computes widths,
central symmetrals, Minkowski sums, convexity certificates, boundary meshes
via the inverse Gauss map, brightness (projected shadow area) profiles via
the cosine transform of the curvature determinant, and runs a rigidity
probe: a brightness-variance minimizer over constant-width families.

WIDTHBRIGHT_THREADS caps BLAS parallelism. BLAS reads its thread count
when numpy loads, so the cap is applied here, before the first numerical
import; every entry point (plain import, console script, `python -m
widthbright.cli`) runs this file first. Thread variables that are already
set explicitly win over the cap.
"""

import os


def _apply_thread_cap():
    cap = os.environ.get("WIDTHBRIGHT_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

from .sphere import (
    SphericalGrid, HarmonicBasis,
    make_grid, make_basis, basis_index, integrate,
)
from .body import (
    SupportFunction, ConvexityCertificate, NotConvexError, BoundaryField,
    inverse_gauss, width, central_symmetral, odd_part, minkowski_sum,
    certify_convex, volume, body_to_spec, body_from_spec,
)
from .boundary import BodyMesh, export_mesh
from .brightness import (
    BrightnessProfile,
    cosine_transform, cosine_multipliers, brightness_profile, mesh_shadow,
)
from .generators import (
    BodyRecipe,
    ball, ellipsoid, constant_width_body, random_convex, resolve_recipe,
)
from .lab import (
    ParityReport, OptimizerTrace,
    parity_decomposition_check, odd_sign_obstruction,
    minimize_brightness_variance, random_odd,
)

__version__ = "0.1.0"
