"""Exact-rational toolkit for error-diffusion setpoint tracking.

The package computes minimal (convex) invariant sets for the accumulated
error of greedy setpoint implementation over collections of feasible sets,
and simulates the two-level controller that those sets bound.

``geometry``, ``intervals`` and ``operators`` are imported with the
package.  ``certificate``, ``dynamics``, ``resources``, ``simulate`` and
``verify`` are registered in ``sys.modules`` (and bound here) at once, but
each one's body runs only on its first attribute access, so a command that
never uses them never compiles or runs them.
"""

import sys as _sys
from importlib import util as _util

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    as_fraction,
    clip_all,
    convex_hull,
    minkowski_sum,
    project_convex_polygon,
    project_point_set,
    segment,
)
from .intervals import IntervalUnion, apply_g_interval, iterate_1d
from .operators import (
    Collection,
    IterationConfig,
    IterationResult,
    MonotoneFamilyReport,
    apply_collection,
    apply_member,
    check_invariance,
    iterate_to_invariance,
    verify_monotone_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]


def _deferred(name: str):
    """errdiff.<name>, in sys.modules, with its body run on first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = _util.find_spec(fullname)
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


certificate, dynamics, resources, simulate, verify = map(
    _deferred, ("certificate", "dynamics", "resources", "simulate", "verify")
)
