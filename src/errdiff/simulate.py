"""Closed-loop scenarios: a toy central controller dispatching setpoints to
resource-backed local controllers.

Each resource advertises a convex set, the central policy picks the next
request by a projected gradient step on its per-resource cost, and the
local controller (``dynamics.run_resource_loop``) implements greedily, with
or without error diffusion.  Resources then advance their own state from
what was actually implemented.  No network constraints couple the resources
here; each one runs its own loop, which keeps every claim about accumulated
error exact and testable.

The central step rounds each coordinate of its gradient target to the
1/1024 grid (``REQUEST_RESOLUTION``, ties to even) by one integer divmod,
and the metrics put every setpoint and error of a trace over one common
denominator, so the sums, squared norms and the averaging-identity check
are integer operations.  The resources' feasible sets come from the
bounded caches of ``resources``, and ``serialize`` hashes each distinct
set once.

This module holds the resource units, the central policy, scenarios and
metrics; ``serialize`` writes them out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Protocol, Sequence, Union

from .dynamics import ControllerTrace, RequestPolicy, SetSource, run_resource_loop
from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    _from_triple,
    _normalised,
    _scaled,
    as_fraction,
    project_convex_polygon,
)
from .operators import MODES, FeasibleSet, Mode
from .resources import (
    HeaterParams,
    HeaterState,
    PVParams,
    grid_numerator,
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


_MINUS_P = Point2(-1, 0)


@dataclass(frozen=True)
class MaximizeActivePower:
    """cost(x) = -P, so the gradient is the constant (-1, 0)."""

    def gradient(self, x: Point2) -> Point2:
        return _MINUS_P


Cost = Union[QuadraticCost, MaximizeActivePower]


# Gradient targets are snapped to this grid before projecting onto the
# advertisement.  A real dispatcher sends setpoints with finite precision
# anyway, and without the snap the exact iterates contract forever without
# settling, with denominators compounding every step.
REQUEST_RESOLUTION = Fraction(1, 1024)


@dataclass(frozen=True)
class CentralPolicy:
    """Projected-gradient request policy for one resource."""

    cost: Cost
    step_size: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_size", as_fraction(self.step_size))
        if self.step_size <= 0:
            raise ValueError("step size must be positive")


def central_step(policy: CentralPolicy, advertised: ConvexPolygon, x_prev: Point2) -> Point2:
    """One projected gradient step on the ``REQUEST_RESOLUTION`` grid,
    guaranteed to land in the advertisement.

    Each coordinate of x - gradient*step is rounded to the grid, ties to
    even, by one integer divmod on the two points' triples; the snapped
    point is then projected.
    """
    if advertised.is_empty:
        raise ValueError("advertisement must be non-empty")
    x, y, w = x_prev._t
    gx, gy, gw = policy.cost.gradient(x_prev)._t
    step = policy.step_size
    sn, sd = step.numerator, step.denominator
    den = w * gw * sd
    snapped = _normalised(
        grid_numerator(x * gw * sd - gx * sn * w, den, REQUEST_RESOLUTION),
        grid_numerator(y * gw * sd - gy * sn * w, den, REQUEST_RESOLUTION),
        REQUEST_RESOLUTION.denominator,
    )
    return project_convex_polygon(advertised, _from_triple(snapped))


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


def _levels(*values: Fraction) -> list[Fraction]:
    """The values as Fractions, checked to be available powers."""
    levels = [as_fraction(v) for v in values]
    if any(v < 0 for v in levels):
        raise ValueError("availability levels must be non-negative")
    return levels


def square_wave(period: int, low: Fraction, high: Fraction) -> Availability:
    """Alternate between low and high every half period (in control steps)."""
    low, high = _levels(low, high)
    if period < 2:
        raise ValueError("period must span at least two steps")
    half = period // 2

    def wave(n: int, rng: random.Random) -> Fraction:
        return high if (n // half) % 2 == 0 else low

    return wave


def constant_availability(value: Fraction) -> Availability:
    (value,) = _levels(value)

    def wave(n: int, rng: random.Random) -> Fraction:
        return value

    return wave


def random_availability(low: Fraction, high: Fraction, denominator: int = 64) -> Availability:
    """Seeded random availability on a rational grid between low and high."""
    low, high = _levels(low, high)
    if denominator < 1:
        raise ValueError("availability grid denominator must be at least 1")

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
        return pv_feasible_set(self.params, self.availability(self.step, self.rng))

    def advance(self, implemented: Point2) -> None:
        self.step += 1

    def error_bound_sq(self) -> Optional[Fraction]:
        return pv_error_bound_sq(self.params)


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


def _check_prediction(spec: "ResourceSpec") -> None:
    if spec.prediction not in MODES:
        raise ValueError(f"resource {spec.resource_id!r}: prediction must be one of {MODES}")


@dataclass
class HeaterSpec:
    resource_id: str
    params: HeaterParams
    initial: HeaterState
    policy: CentralPolicy
    prediction: Mode = "perfect"
    diffusion: bool = True

    def __post_init__(self) -> None:
        _check_prediction(self)
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

    def __post_init__(self) -> None:
        _check_prediction(self)

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


def least_squares_slope(ys: Sequence[float]) -> float:
    """Correctly rounded least-squares slope of the points (i, ys[i]).

    Every float is a dyadic rational, so all of them scale to integers over
    one power of two; the normal equations are then solved exactly and
    rounded once, by the correctly rounded integer division.
    """
    n = len(ys)
    if n < 2:
        raise ValueError("a slope needs at least two points")
    ratios = [y.as_integer_ratio() for y in ys]
    shift = max(den.bit_length() for _, den in ratios) - 1
    scaled = [num << (shift + 1 - den.bit_length()) for num, den in ratios]
    sum_i = n * (n - 1) // 2
    sum_ii = (n - 1) * n * (2 * n - 1) // 6
    sum_y = sum(scaled)
    sum_iy = sum(i * y for i, y in enumerate(scaled))
    return (n * sum_iy - sum_i * sum_y) / ((n * sum_ii - sum_i * sum_i) << shift)


def compute_metrics(trace: ControllerTrace, bound_sq: Optional[Fraction]) -> ResourceMetrics:
    """The metrics of one trace, in one exact pass over integers.

    Every requested and implemented setpoint and every error is put over
    one common denominator L, so the sums, the squared norms (over L^2) and
    the stagnation test are integer operations, and each reported rational
    is built once.  The averaging identity mean(y) - mean(x) = (e_0 - e_N)/N
    is checked exactly, as sum(y) - sum(x) = e_0 - e_N in those integers.
    """
    records = trace.records
    steps = len(records)
    if steps == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    errors = trace.errors()
    scale, ints = _scaled(
        [r.requested for r in records] + [r.implemented for r in records] + errors
    )
    requested, implemented, scaled_errors = ints[:steps], ints[steps : 2 * steps], ints[2 * steps :]
    norms2 = [x * x + y * y for x, y in scaled_errors]
    max_norm2 = max(norms2)
    longest = current = 0
    prev = None
    for pair in zip(requested, implemented):
        current = current + 1 if pair == prev else 1
        prev = pair
        longest = max(longest, current)
    req_x = sum(x for x, _ in requested)
    req_y = sum(y for _, y in requested)
    imp_x = sum(x for x, _ in implemented)
    imp_y = sum(y for _, y in implemented)
    (first_x, first_y), (last_x, last_y) = scaled_errors[0], scaled_errors[-1]
    if (imp_x - req_x, imp_y - req_y) != (first_x - last_x, first_y - last_y):
        raise AssertionError("trace violates the exact averaging identity")
    total, square = scale * steps, scale * scale
    max_err2 = Fraction(max_norm2, square)
    return ResourceMetrics(
        steps=steps,
        max_error_norm2=max_err2,
        final_error=errors[-1],
        average_requested=_from_triple(_normalised(req_x, req_y, total)),
        average_implemented=_from_triple(_normalised(imp_x, imp_y, total)),
        # q / square is the correctly rounded float of the squared norm.
        error_slope=least_squares_slope([math.sqrt(q / square) for q in norms2]),
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
        report.resources[spec.resource_id] = compute_metrics(trace, unit.error_bound_sq())
    return ScenarioResult(scenario=scenario, traces=traces, report=report, diffusion=flags)
