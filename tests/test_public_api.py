"""The package's public surface, pinned.

A name leaves ``hullsketch.__all__`` only on purpose.  The benchmark's
tracer wraps the functions listed in each module's ``__all__`` and reads
per-layer metrics from the spans of the ones below, so a function dropped
from its module's ``__all__`` would zero that metric without failing.
"""
import importlib
import inspect

import pytest

import hullsketch

PUBLIC = [
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

TRACED = {
    "sketch": ["build_sketch", "threshold_filter", "outer_hull"],
    "compression": ["vertex_compress", "direction_bundle", "hyperplane_compress"],
    "geometry": ["project_onto_hull", "exact_extreme_points"],
    "metrics": ["inner_error", "outer_error", "support_under_constraints"],
    "io": ["read_matrix", "write_matrix", "read_halfspaces", "write_halfspaces"],
    "datagen": ["generate"],
    "directions": ["sample_uniform"],
}


def test_package_all_is_pinned():
    assert hullsketch.__all__ == PUBLIC
    assert all(hasattr(hullsketch, name) for name in PUBLIC)


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_functions_stay_public(layer):
    module = importlib.import_module(f"hullsketch.{layer}")
    for name in TRACED[layer]:
        assert name in module.__all__, f"{layer}.{name}"
        fn = getattr(module, name)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{layer}.{name}"
