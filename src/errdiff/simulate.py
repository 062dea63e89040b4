"""Closed-loop scenarios: a toy central controller dispatching setpoints to
resource-backed local controllers.

Each resource advertises a convex set, the central policy picks the next
request by a projected gradient step on its per-resource cost, and the
local controller (``dynamics.run_resource_loop``) implements greedily, with
or without error diffusion.  Resources then advance their own state from
what was actually implemented.  No network constraints couple the resources
here; each one runs its own loop, which keeps every claim about accumulated
error exact and testable.

This module holds the resource units, the central policy, scenarios,
metrics and plot data.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Protocol, Union

import numpy as np

from .dynamics import ControllerTrace, RequestPolicy, SetSource, run_resource_loop
from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    as_fraction,
    project_convex_polygon,
)
from .operators import FeasibleSet, Mode
from .resources import (
    HeaterParams,
    HeaterState,
    PVParams,
    PVState,
    heater_error_bound,
    heater_setpoints_2d,
    heater_step,
    pv_error_bound_sq,
    pv_feasible_set,
)

# ---------------------------------------------------------------------------
# Central policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticCost:
    """cost(x) = curvature * |x - center|^2; gradient 2*curvature*(x - center)."""

    center: Point2
    curvature: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "curvature", as_fraction(self.curvature))
        if self.curvature < 0:
            raise ValueError("curvature must be non-negative")

    def gradient(self, x: Point2) -> Point2:
        return (x - self.center) * (2 * self.curvature)


@dataclass(frozen=True)
class MaximizeActivePower:
    """cost(x) = -P, so the gradient is the constant (-1, 0)."""

    def gradient(self, x: Point2) -> Point2:
        return Point2(Fraction(-1), Fraction(0))


Cost = Union[QuadraticCost, MaximizeActivePower]


@dataclass(frozen=True)
class CentralPolicy:
    """Projected-gradient request policy for one resource.

    Gradient targets are snapped to the ``request_resolution`` grid before
    projecting onto the advertisement.  A real dispatcher sends setpoints
    with finite precision anyway, and without the snap the exact iterates
    contract forever without settling, with denominators compounding every
    step.
    """

    cost: Cost
    step_size: Fraction = Fraction(1, 2)
    request_resolution: Fraction = Fraction(1, 1024)

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_size", as_fraction(self.step_size))
        object.__setattr__(self, "request_resolution", as_fraction(self.request_resolution))
        if self.step_size <= 0:
            raise ValueError("step size must be positive")
        if self.request_resolution <= 0:
            raise ValueError("request resolution must be positive")


def central_step(policy: CentralPolicy, advertised: ConvexPolygon, x_prev: Point2) -> Point2:
    """One projected gradient step, guaranteed to land in the advertisement."""
    if advertised.is_empty:
        raise ValueError("advertisement must be non-empty")
    target = x_prev - policy.cost.gradient(x_prev) * policy.step_size
    res = policy.request_resolution
    snapped = Point2(round(target.x / res) * res, round(target.y / res) * res)
    return project_convex_polygon(advertised, snapped)


class GradientRequests:
    """Stateful request source wrapping a central policy.

    The first request starts from the projection of the origin onto the
    first advertisement; afterwards each request is a projected gradient
    step from the previous one.
    """

    def __init__(self, policy: CentralPolicy):
        self.policy = policy
        self._current: Optional[Point2] = None

    def __call__(self, advertised: ConvexPolygon, error: Point2, rng: random.Random) -> Point2:
        if self._current is None:
            self._current = project_convex_polygon(advertised, ORIGIN)
        self._current = central_step(self.policy, advertised, self._current)
        return self._current


# ---------------------------------------------------------------------------
# Resource units
# ---------------------------------------------------------------------------


class ResourceUnit(SetSource, Protocol):
    resource_id: str

    def error_bound_sq(self) -> Optional[Fraction]:
        ...


class HeaterUnit:
    """Heater bank as a 1D resource embedded on the P axis (Q = 0)."""

    def __init__(
        self,
        resource_id: str,
        params: HeaterParams,
        initial_state: HeaterState,
        prediction: Mode = "perfect",
    ):
        self.resource_id = resource_id
        self.prediction: Mode = prediction
        self.params = params
        self.state = initial_state

    def feasible_set(self) -> FeasibleSet:
        return heater_setpoints_2d(self.params, self.state)

    def advance(self, implemented: Point2) -> None:
        if implemented.y != 0:
            raise ValueError("heater bank cannot implement reactive power")
        self.state = heater_step(self.params, self.state, implemented.x)

    def error_bound_sq(self) -> Optional[Fraction]:
        bound = heater_error_bound(self.params.powers)
        return bound * bound


Availability = Callable[[int, random.Random], Fraction]


def square_wave(period: int, low: Fraction, high: Fraction) -> Availability:
    """Alternate between low and high every half period (in control steps)."""
    low, high = as_fraction(low), as_fraction(high)
    if period < 2:
        raise ValueError("period must span at least two steps")
    half = period // 2

    def wave(n: int, rng: random.Random) -> Fraction:
        return high if (n // half) % 2 == 0 else low

    return wave


def constant_availability(value: Fraction) -> Availability:
    value = as_fraction(value)

    def wave(n: int, rng: random.Random) -> Fraction:
        return value

    return wave


def random_availability(low: Fraction, high: Fraction, denominator: int = 64) -> Availability:
    """Seeded random availability on a rational grid between low and high."""
    low, high = as_fraction(low), as_fraction(high)

    def wave(n: int, rng: random.Random) -> Fraction:
        return low + (high - low) * Fraction(rng.randrange(denominator + 1), denominator)

    return wave


class PVUnit:
    """PV converter whose real-power cap follows an availability waveform."""

    def __init__(
        self,
        resource_id: str,
        params: PVParams,
        availability: Availability,
        prediction: Mode = "persistent",
        rng: Optional[random.Random] = None,
    ):
        self.resource_id = resource_id
        self.prediction: Mode = prediction
        self.params = params
        self.availability = availability
        self.rng = rng or random.Random(0)
        self.step = 0

    def feasible_set(self) -> FeasibleSet:
        avail = self.availability(self.step, self.rng)
        return pv_feasible_set(self.params, PVState(avail))

    def advance(self, implemented: Point2) -> None:
        self.step += 1

    def error_bound_sq(self) -> Optional[Fraction]:
        return pv_error_bound_sq(self.params)


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


@dataclass
class HeaterSpec:
    resource_id: str
    params: HeaterParams
    initial: HeaterState
    policy: CentralPolicy
    prediction: Mode = "perfect"
    diffusion: bool = True

    def __post_init__(self) -> None:
        if len(self.initial.temps) != self.params.rooms:
            raise ValueError(f"heater {self.resource_id!r} needs one initial state per room")

    def build(self, rng: random.Random) -> ResourceUnit:
        return HeaterUnit(self.resource_id, self.params, self.initial, self.prediction)


@dataclass
class PVSpec:
    resource_id: str
    params: PVParams
    availability: Availability
    policy: CentralPolicy
    prediction: Mode = "persistent"
    diffusion: bool = True

    def build(self, rng: random.Random) -> ResourceUnit:
        return PVUnit(self.resource_id, self.params, self.availability, self.prediction, rng)


ResourceSpec = Union[HeaterSpec, PVSpec]


@dataclass
class Scenario:
    """A fully deterministic closed-loop experiment."""

    horizon: int
    resources: list[ResourceSpec]
    seed: int = 0
    step_ms: int = 100

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        ids = [r.resource_id for r in self.resources]
        if len(set(ids)) != len(ids):
            raise ValueError("resource ids must be unique")
        if not self.resources:
            raise ValueError("scenario needs at least one resource")


@dataclass
class ResourceMetrics:
    resource_id: str
    steps: int
    max_error_norm2: Fraction
    final_error: Point2
    average_requested: Point2
    average_implemented: Point2
    error_slope: float
    stagnation_steps: int
    error_bound_sq: Optional[Fraction]
    bound_satisfied: Optional[bool]

    @property
    def max_error_norm(self) -> float:
        return float(self.max_error_norm2) ** 0.5


@dataclass
class MetricsReport:
    resources: dict[str, ResourceMetrics] = field(default_factory=dict)


@dataclass
class ScenarioResult:
    scenario: Scenario
    traces: dict[str, ControllerTrace]
    report: MetricsReport
    diffusion: dict[str, bool]


def _resource_rng(seed: int, resource_id: str) -> random.Random:
    return random.Random(f"{seed}:{resource_id}")


def compute_metrics(trace: ControllerTrace, resource_id: str, bound_sq: Optional[Fraction]) -> ResourceMetrics:
    steps = len(trace.records)
    if steps == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    errors = trace.errors()
    max_err2 = max(e.norm2() for e in errors)
    avg_req = trace.average_requested()
    avg_imp = trace.average_implemented()
    # Exact bookkeeping identity: mean(y) - mean(x) = (e_0 - e_N) / N.
    lhs = avg_imp - avg_req
    rhs = (errors[0] - errors[-1]) * Fraction(1, steps)
    if lhs != rhs:
        raise AssertionError("trace violates the exact averaging identity")
    norms = np.sqrt([float(e.norm2()) for e in errors])
    slope = float(np.polyfit(np.arange(len(norms)), norms, 1)[0]) if len(norms) > 1 else 0.0
    longest = current = 0
    prev = None
    for r in trace.records:
        pair = (r.requested, r.implemented)
        current = current + 1 if pair == prev else 1
        prev = pair
        longest = max(longest, current)
    return ResourceMetrics(
        resource_id=resource_id,
        steps=steps,
        max_error_norm2=max_err2,
        final_error=errors[-1],
        average_requested=avg_req,
        average_implemented=avg_imp,
        error_slope=slope,
        stagnation_steps=longest,
        error_bound_sq=bound_sq,
        bound_satisfied=None if bound_sq is None else max_err2 <= bound_sq,
    )


def run_scenario(
    scenario: Scenario, *, diffusion_overrides: Optional[dict[str, bool]] = None
) -> ScenarioResult:
    """Run every resource loop; fully deterministic for a fixed seed.

    Resources are uncoupled, so running them one after another in listed
    order is equivalent to interleaving steps; each gets an independent
    seeded stream.  ``diffusion_overrides`` force diffusion on/off per
    resource id (used by the command line's --no-diffusion flag).
    """
    overrides = diffusion_overrides or {}
    unknown = set(overrides) - {r.resource_id for r in scenario.resources}
    if unknown:
        raise ValueError(f"diffusion override for unknown resources: {sorted(unknown)}")
    traces: dict[str, ControllerTrace] = {}
    report = MetricsReport()
    flags: dict[str, bool] = {}
    for spec in scenario.resources:
        rng = _resource_rng(scenario.seed, spec.resource_id)
        unit = spec.build(rng)
        requests = GradientRequests(spec.policy)
        diffusion = overrides.get(spec.resource_id, spec.diffusion)
        flags[spec.resource_id] = diffusion
        trace = run_resource_loop(unit, requests, scenario.horizon, rng, diffusion=diffusion)
        traces[spec.resource_id] = trace
        report.resources[spec.resource_id] = compute_metrics(
            trace, spec.resource_id, unit.error_bound_sq()
        )
    return ScenarioResult(scenario=scenario, traces=traces, report=report, diffusion=flags)


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        import csv as _csv

        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_plot_data(result: ScenarioResult, out_dir: Union[str, Path]) -> list[Path]:
    """Write per-resource CSV series and a manifest describing them.

    Series per resource: requested vs implemented setpoints, accumulated
    error components, and running time averages.  Values are exact rational
    strings plus float renderings, so reruns are byte-identical.
    """
    from .serialize import metrics_to_json  # serialize imports this module

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    manifest: dict = {
        "scenario": {
            "horizon": result.scenario.horizon,
            "seed": result.scenario.seed,
            "step_ms": result.scenario.step_ms,
            "resources": [r.resource_id for r in result.scenario.resources],
            "diffusion": result.diffusion,
        },
        "files": [],
        "metrics": {},
    }
    for rid, trace in result.traces.items():
        setpoints = out / f"{rid}_setpoints.csv"
        _write_csv(
            setpoints,
            ["n", "x_p", "x_q", "y_p", "y_q", "x_p_float", "x_q_float", "y_p_float", "y_q_float"],
            (
                [
                    r.step,
                    str(r.requested.x), str(r.requested.y),
                    str(r.implemented.x), str(r.implemented.y),
                    float(r.requested.x), float(r.requested.y),
                    float(r.implemented.x), float(r.implemented.y),
                ]
                for r in trace.records
            ),
        )
        manifest["files"].append(
            {
                "path": setpoints.name,
                "resource": rid,
                "series": "requested vs implemented setpoints per step",
            }
        )
        errors_path = out / f"{rid}_accumulated_error.csv"
        errors = trace.errors() if trace.records else []
        _write_csv(
            errors_path,
            ["n", "e_p", "e_q", "e_p_float", "e_q_float", "e_norm_float"],
            (
                [n, str(e.x), str(e.y), float(e.x), float(e.y), float(e.norm2()) ** 0.5]
                for n, e in enumerate(errors)
            ),
        )
        manifest["files"].append(
            {
                "path": errors_path.name,
                "resource": rid,
                "series": "accumulated error e_n (components and norm)",
            }
        )
        averages_path = out / f"{rid}_time_averaged.csv"

        def running_rows(records):
            sx = sy = ix = iy = Fraction(0)
            for k, r in enumerate(records, start=1):
                sx += r.requested.x
                sy += r.requested.y
                ix += r.implemented.x
                iy += r.implemented.y
                inv = Fraction(1, k)
                yield [
                    k - 1,
                    str(sx * inv), str(sy * inv), str(ix * inv), str(iy * inv),
                    float(sx * inv), float(sy * inv), float(ix * inv), float(iy * inv),
                ]

        _write_csv(
            averages_path,
            [
                "n",
                "xbar_p", "xbar_q", "ybar_p", "ybar_q",
                "xbar_p_float", "xbar_q_float", "ybar_p_float", "ybar_q_float",
            ],
            running_rows(trace.records),
        )
        manifest["files"].append(
            {
                "path": averages_path.name,
                "resource": rid,
                "series": "running time-averages of requested and implemented setpoints",
            }
        )
        written.extend([setpoints, errors_path, averages_path])
        if trace.records:
            manifest["metrics"][rid] = metrics_to_json(result.report.resources[rid])
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    written.append(manifest_path)
    return written
