"""Exact-rational toolkit for error-diffusion setpoint tracking.

The package computes minimal (convex) invariant sets for the accumulated
error of greedy setpoint implementation over collections of feasible sets,
and simulates the two-level controller that those sets bound.
"""

from .geometry import (
    EMPTY_POLYGON,
    ORIGIN,
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    as_fraction,
    clip,
    clip_all,
    clip_to_cell,
    convex_hull,
    diameter_sq,
    dist2,
    minkowski_sum,
    polygon_intersection,
    project_convex_polygon,
    project_point_set,
    segment,
    voronoi_cell,
)
from .intervals import IntervalUnion
from .operators import (
    Collection,
    IterationConfig,
    IterationResult,
    MonotoneFamilyReport,
    RoundingEvent,
    apply_collection,
    apply_g_interval,
    apply_member,
    check_invariance,
    conditional_round,
    iterate_1d,
    iterate_to_invariance,
    verify_monotone_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]
