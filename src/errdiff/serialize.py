"""JSON serialization of exact geometry and scenario/collection files.

Rationals travel as strings "p/q" (bare "p" when the denominator is 1),
which is exactly what str(Fraction) produces; points and polygons are
ordered coordinate lists.  Scenario and collection files are plain JSON
documents whose schemas are documented in the README.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

from .geometry import ConvexPolygon, Point2, PointSet, as_fraction, convex_hull
from .operators import Collection, FeasibleSet, IterationConfig
from .resources import HeaterParams, HeaterState, PVParams
from .simulate import (
    Availability,
    CentralPolicy,
    HeaterSpec,
    MaximizeActivePower,
    PVSpec,
    QuadraticCost,
    ResourceMetrics,
    Scenario,
    constant_availability,
    random_availability,
    square_wave,
)

PathLike = Union[str, Path]


def format_fraction(q: Fraction) -> str:
    return str(q)


def parse_fraction(text: Union[str, int]) -> Fraction:
    return as_fraction(text)


def point_to_json(p: Point2) -> list[str]:
    return [str(p.x), str(p.y)]


def parse_point(data: Any) -> Point2:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"expected [x, y], got {data!r}")
    return Point2(as_fraction(data[0]), as_fraction(data[1]))


def polygon_to_json(poly: ConvexPolygon) -> list[list[str]]:
    return [point_to_json(v) for v in poly.vertices]


def parse_polygon(data: Any) -> ConvexPolygon:
    return convex_hull(parse_point(item) for item in data)


def point_set_to_json(ps: PointSet) -> list[list[str]]:
    return [point_to_json(p) for p in ps.points]


def parse_point_set(data: Any) -> PointSet:
    return PointSet(tuple(parse_point(item) for item in data))


def feasible_to_json(feasible: FeasibleSet) -> dict:
    if isinstance(feasible, PointSet):
        return {"points": point_set_to_json(feasible)}
    return {"polygon": polygon_to_json(feasible)}


def parse_feasible(data: Any) -> FeasibleSet:
    if "points" in data:
        return parse_point_set(data["points"])
    if "polygon" in data:
        return parse_polygon(data["polygon"])
    raise ValueError("feasible set needs 'points' or 'polygon'")


# ---------------------------------------------------------------------------
# Collection files (compute-invariant input)
# ---------------------------------------------------------------------------


def collection_to_json(collection: Collection) -> dict:
    return {
        "mode": collection.mode,
        "sets": [feasible_to_json(member) for member in collection.sets],
    }


def parse_collection(data: Any) -> Collection:
    if "sets" not in data:
        raise ValueError("collection file needs a 'sets' list")
    mode = data.get("mode", "perfect")
    return Collection(tuple(parse_feasible(item) for item in data["sets"]), mode)


def load_collection(path: PathLike) -> Collection:
    return parse_collection(json.loads(Path(path).read_text()))


def iteration_result_to_json(result) -> dict:
    return {
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "vertices": polygon_to_json(result.invariant_set),
        "rounding_events": [
            {
                "iteration": ev.iteration,
                "vertex": ev.vertex,
                "coordinate": ev.coordinate,
                "before": str(ev.before),
                "after": str(ev.after),
            }
            for ev in result.rounding_events
        ],
        "history_hashes": result.history_hashes,
        "vertex_counts": result.vertex_counts,
    }


def metrics_to_json(metrics: ResourceMetrics) -> dict:
    """One resource's closed-loop metrics, as in ``metrics.json`` and the plot manifest."""
    return {
        "steps": metrics.steps,
        "max_error_norm": metrics.max_error_norm,
        "max_error_norm2": str(metrics.max_error_norm2),
        "final_error": point_to_json(metrics.final_error),
        "average_requested": point_to_json(metrics.average_requested),
        "average_implemented": point_to_json(metrics.average_implemented),
        "error_slope": metrics.error_slope,
        "stagnation_steps": metrics.stagnation_steps,
        "error_bound_sq": None if metrics.error_bound_sq is None else str(metrics.error_bound_sq),
        "bound_satisfied": metrics.bound_satisfied,
    }


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def _parse_cost(data: Any):
    kind = data.get("kind")
    if kind == "quadratic":
        return QuadraticCost(
            center=parse_point(data["center"]),
            curvature=as_fraction(data.get("curvature", 1)),
        )
    if kind == "maximize_p":
        return MaximizeActivePower()
    raise ValueError(f"unknown cost kind {kind!r}")


def _parse_policy(data: Any) -> CentralPolicy:
    return CentralPolicy(
        cost=_parse_cost(data["cost"]),
        step_size=as_fraction(data.get("step_size", "1/2")),
    )


def _parse_availability(data: Any) -> Availability:
    kind = data.get("kind")
    if kind == "square":
        return square_wave(int(data["period"]), as_fraction(data["low"]), as_fraction(data["high"]))
    if kind == "constant":
        return constant_availability(as_fraction(data["value"]))
    if kind == "random":
        return random_availability(
            as_fraction(data["low"]),
            as_fraction(data["high"]),
            int(data.get("denominator", 64)),
        )
    raise ValueError(f"unknown availability kind {kind!r}")


def _parse_heater(data: Any) -> HeaterSpec:
    thermal = data.get("thermal", {})
    params = HeaterParams(
        powers=tuple(as_fraction(p) for p in data["powers"]),
        t_min=as_fraction(data["t_min"]),
        t_max=as_fraction(data["t_max"]),
        lock_steps=int(data.get("lock_steps", 0)),
        leak=as_fraction(thermal.get("leak", "1/100")),
        gain=as_fraction(thermal.get("gain", 0)),
        t_out=as_fraction(thermal.get("t_out", 0)),
    )
    temps = [as_fraction(t) for t in data["initial_temps"]]
    on = [bool(v) for v in data.get("initial_on", [False] * len(temps))]
    initial = HeaterState(on=tuple(on), lock_remaining=(0,) * len(temps), temps=tuple(temps))
    return HeaterSpec(
        resource_id=data["id"],
        params=params,
        initial=initial,
        policy=_parse_policy(data["policy"]),
        prediction=data.get("prediction", "perfect"),
        diffusion=bool(data.get("diffusion", True)),
    )


def _parse_pv(data: Any) -> PVSpec:
    params = PVParams(p_max=as_fraction(data["p_max"]), tan_phi=as_fraction(data["tan_phi"]))
    return PVSpec(
        resource_id=data["id"],
        params=params,
        availability=_parse_availability(data["availability"]),
        policy=_parse_policy(data["policy"]),
        prediction=data.get("prediction", "persistent"),
        diffusion=bool(data.get("diffusion", True)),
    )


def parse_scenario(data: Any) -> Scenario:
    resources = []
    for item in data.get("resources", []):
        kind = item.get("kind")
        if kind == "heater":
            resources.append(_parse_heater(item))
        elif kind == "pv":
            resources.append(_parse_pv(item))
        else:
            raise ValueError(f"unknown resource kind {kind!r}")
    return Scenario(
        horizon=int(data["horizon"]),
        resources=resources,
        seed=int(data.get("seed", 0)),
        step_ms=int(data.get("step_ms", 100)),
    )


def load_scenario(path: PathLike) -> Scenario:
    return parse_scenario(json.loads(Path(path).read_text()))


def parse_iteration_config(args: Any) -> IterationConfig:
    """IterationConfig from parsed CLI flags (epsilon, max_iters, no_rounding)."""
    kwargs: dict = {}
    if getattr(args, "epsilon", None) is not None:
        kwargs["epsilon"] = as_fraction(args.epsilon)
    if getattr(args, "max_iters", None) is not None:
        kwargs["max_iterations"] = int(args.max_iters)
    if getattr(args, "no_rounding", False):
        kwargs["rounding_enabled"] = False
    return IterationConfig(**kwargs)
