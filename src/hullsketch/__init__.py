"""Approximate convex hulls of large point sets by curvature sketching.

Random support directions vote for the points they are maximised by; the
vote share of a point estimates the spherical measure of its normal cone.
Keeping only the heavy voters yields an inner (vertex) approximation, the
supporting hyperplanes yield an outer approximation, and both come with
computable error metrics and probabilistic guarantees.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundQuery,
    aleksandrov_bound,
    cap_lower_bound,
    chebyshev_bound,
    direction_count_bound,
    directions_for_inner_error,
    sphere_surface_measure,
)
from .compression import (
    ClusterMap,
    NoConstraintsSurvivedError,
    direction_bundle,
    hyperplane_compress,
    vertex_compress,
)
from .datagen import ShapeSpec, generate
from .directions import DirectionSet, sample_uniform
from .geometry import (
    ConvergenceError,
    PointCloud,
    ProjectionResult,
    exact_extreme_points,
    hausdorff,
    project_onto_hull,
)
from .metrics import (
    EmptyOuterHullError,
    UnboundedOuterHullError,
    inner_error,
    outer_error,
)
from .sketch import (
    CurvatureSketch,
    InnerHull,
    OuterHull,
    build_sketch,
    outer_hull,
    threshold_filter,
)

__all__ = [
    "__version__",
    "BoundQuery",
    "ClusterMap",
    "ConvergenceError",
    "CurvatureSketch",
    "DirectionSet",
    "EmptyOuterHullError",
    "InnerHull",
    "NoConstraintsSurvivedError",
    "OuterHull",
    "PointCloud",
    "ProjectionResult",
    "ShapeSpec",
    "UnboundedOuterHullError",
    "aleksandrov_bound",
    "build_sketch",
    "cap_lower_bound",
    "chebyshev_bound",
    "direction_bundle",
    "direction_count_bound",
    "directions_for_inner_error",
    "exact_extreme_points",
    "generate",
    "hausdorff",
    "hyperplane_compress",
    "inner_error",
    "outer_error",
    "outer_hull",
    "project_onto_hull",
    "sample_uniform",
    "sphere_surface_measure",
    "threshold_filter",
    "vertex_compress",
]
