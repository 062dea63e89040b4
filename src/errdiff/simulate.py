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
and the metrics put each distinct setpoint and error of a trace over one
common denominator, so the sums, squared norms and the averaging-identity
check are integer operations.  The resources' feasible sets come from the
bounded caches of ``resources``, and ``serialize`` hashes each distinct
set once.

On the grid the same steps recur, and one run computes each of them once:
``GradientRequests``, built afresh for every resource of every run, keeps
the central step of each (advertisement, previous request) pair, and a
random availability wave, built with its scenario, builds each grid level
when it is first drawn.  The loop's step table, described in ``dynamics``,
appends one shared ``StepRecord`` for all equal steps, so
``compute_metrics`` counts each distinct record once.  The loop's and
the request source's tables belong to one run and a wave's to its
scenario; the bounded caches of ``resources``, ``geometry``, ``operators``
and ``serialize`` are process-wide.

A scenario, its specs and their availability waves are frozen values
that hold every fixed fact about their resources, error bounds included,
so two loads of one scenario file compare equal; a variant is built with
``dataclasses.replace``.  A result is frozen too, with its metrics and
traces in read-only mappings and each trace's records in a tuple, so it
always describes the run it came from.  A resource unit, built from its
spec for one run, holds that run's state.  This module holds the units,
the central policy, scenarios and metrics; ``serialize`` writes them out.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from operator import mul, ne, sub
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence, Union

from .dynamics import ControllerTrace, run_resource_loop
from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    Triple,
    _from_triple,
    _norm,
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
    step from the previous one.  The step is a pure function of the
    advertisement and the previous request, so each distinct pair is
    computed once for the life of the source, which is one run.
    """

    def __init__(self, policy: CentralPolicy):
        self.policy = policy
        self._current: Optional[Point2] = None
        self._steps: dict[tuple[tuple[Triple, ...], Triple], Point2] = {}

    def __call__(self, advertised: ConvexPolygon) -> Point2:
        current = self._current
        if current is None:
            current = project_convex_polygon(advertised, ORIGIN)
        key = (advertised._ts, current._t)
        request = self._steps.get(key)
        if request is None:
            request = self._steps[key] = central_step(self.policy, advertised, current)
        self._current = request
        return request


# ---------------------------------------------------------------------------
# Resource units
# ---------------------------------------------------------------------------


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
        # Read from the triple: an integral setpoint (W = 1) goes as an int.
        x, y, w = implemented._t
        if y:
            raise ValueError("heater bank cannot implement reactive power")
        self.state = heater_step(self.params, self.state, x if w == 1 else Fraction(x, w))


Availability = Callable[[int, random.Random], Fraction]


def _check_levels(wave: object, *names: str) -> None:
    """Set the wave's named fields to Fractions, checked to be available powers."""
    for name in names:
        level = as_fraction(getattr(wave, name))
        if level < 0:
            raise ValueError("availability levels must be non-negative")
        object.__setattr__(wave, name, level)


@dataclass(frozen=True)
class SquareWave:
    """Alternate between high and low every half period (in control steps)."""

    period: int
    low: Fraction
    high: Fraction

    def __post_init__(self) -> None:
        _check_levels(self, "low", "high")
        if self.period < 2:
            raise ValueError("period must span at least two steps")

    def __call__(self, n: int, rng: random.Random) -> Fraction:
        return self.high if (n // (self.period // 2)) % 2 == 0 else self.low


@dataclass(frozen=True)
class ConstantWave:
    """The same level at every step."""

    value: Fraction

    def __post_init__(self) -> None:
        _check_levels(self, "value")

    def __call__(self, n: int, rng: random.Random) -> Fraction:
        return self.value


@dataclass(frozen=True)
class RandomWave:
    """Seeded random availability on a rational grid between low and high.

    Each level low + (high - low)*k/denominator is built the first time
    draw k comes up and kept by the wave, so a fine grid costs nothing
    until it is drawn.  The kept levels take no part in equality.
    """

    low: Fraction
    high: Fraction
    denominator: int = 64
    _drawn: dict[int, Fraction] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_levels(self, "low", "high")
        if self.denominator < 1:
            raise ValueError("availability grid denominator must be at least 1")

    def __call__(self, n: int, rng: random.Random) -> Fraction:
        k = rng.randrange(self.denominator + 1)
        level = self._drawn.get(k)
        if level is None:
            level = self._drawn[k] = self.low + (self.high - self.low) * Fraction(k, self.denominator)
        return level


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


# ---------------------------------------------------------------------------
# Scenario plumbing
# ---------------------------------------------------------------------------


def _check_prediction(spec: "ResourceSpec") -> None:
    if spec.prediction not in MODES:
        raise ValueError(f"resource {spec.resource_id!r}: prediction must be one of {MODES}")


@dataclass(frozen=True)
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

    def build(self, rng: random.Random) -> HeaterUnit:
        return HeaterUnit(self.resource_id, self.params, self.initial, self.prediction)

    def error_bound_sq(self) -> Fraction:
        bound = heater_error_bound(self.params.powers)
        return bound * bound


@dataclass(frozen=True)
class PVSpec:
    resource_id: str
    params: PVParams
    availability: Availability
    policy: CentralPolicy
    prediction: Mode = "persistent"
    diffusion: bool = True

    def __post_init__(self) -> None:
        _check_prediction(self)

    def build(self, rng: random.Random) -> PVUnit:
        return PVUnit(self.resource_id, self.params, self.availability, self.prediction, rng)

    def error_bound_sq(self) -> Fraction:
        return pv_error_bound_sq(self.params)


ResourceSpec = Union[HeaterSpec, PVSpec]


def checked_resource_id(rid: str) -> str:
    """``rid``, checked to be a file name part: not empty, "." or "..", and
    with no "/", "\\" or NUL, since each resource id names its output files."""
    if rid in ("", ".", "..") or any(c in rid for c in "/\\\0"):
        raise ValueError(f"resource id {rid!r} cannot name an output file")
    return rid


@dataclass(frozen=True)
class Scenario:
    """A fully deterministic closed-loop experiment.

    The resources are kept as a tuple.  Each resource id names the
    resource's output files, so it must pass ``checked_resource_id``.
    """

    horizon: int
    resources: tuple[ResourceSpec, ...]
    seed: int = 0
    step_ms: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "resources", tuple(self.resources))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        ids = [checked_resource_id(r.resource_id) for r in self.resources]
        if len(set(ids)) != len(ids):
            raise ValueError("resource ids must be unique")
        if not self.resources:
            raise ValueError("scenario needs at least one resource")


@dataclass(frozen=True)
class ResourceMetrics:
    steps: int
    max_error_norm2: Fraction
    final_error: Point2
    average_requested: Point2
    average_implemented: Point2
    error_slope: float
    stagnation_steps: int
    error_bound_sq: Fraction
    bound_satisfied: bool

    @property
    def max_error_norm(self) -> float:
        return math.sqrt(self.max_error_norm2)


@dataclass(frozen=True)
class MetricsReport:
    """Each resource's metrics by id, kept as a read-only mapping."""

    resources: Mapping[str, ResourceMetrics] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "resources", MappingProxyType(dict(self.resources)))


@dataclass(frozen=True)
class ScenarioResult:
    """A run's scenario, traces and metrics.  Like everything it holds, it is
    frozen, and its traces are a read-only mapping, so the files written
    from a result always describe the run."""

    scenario: Scenario
    traces: Mapping[str, ControllerTrace]
    report: MetricsReport

    def __post_init__(self) -> None:
        object.__setattr__(self, "traces", MappingProxyType(dict(self.traces)))

    @property
    def diffusion(self) -> dict[str, bool]:
        """Whether each resource ran with error diffusion, by id in scenario order."""
        return {spec.resource_id: spec.diffusion for spec in self.scenario.resources}


def _resource_rng(seed: int, resource_id: str) -> random.Random:
    return random.Random(f"{seed}:{resource_id}")


def least_squares_slope(ys: Sequence[float]) -> float:
    """Correctly rounded least-squares slope of the points (i, ys[i]).

    Every float is a dyadic rational, so all of them scale to integers over
    one power of two; the normal equations are then solved exactly and
    rounded once, by the correctly rounded integer division.  A trace
    repeats its values, so each distinct value is scaled once and the sums
    run over the looked-up integers.
    """
    n = len(ys)
    if n < 2:
        raise ValueError("a slope needs at least two points")
    distinct = dict.fromkeys(ys)
    ratios = [y.as_integer_ratio() for y in distinct]
    shift = max(den.bit_length() for _, den in ratios) - 1
    ints = dict(zip(distinct, [num << (shift + 1 - den.bit_length()) for num, den in ratios]))
    scaled = list(map(ints.__getitem__, ys))
    sum_i = n * (n - 1) // 2
    sum_ii = (n - 1) * n * (2 * n - 1) // 6
    sum_y = sum(scaled)
    sum_iy = sum(map(mul, range(n), scaled))
    return (n * sum_iy - sum_i * sum_y) / ((n * sum_ii - sum_i * sum_i) << shift)


def _weighted_sum(counts: dict[Triple, int], ints: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the scaled points ``ints``, each taken as often as ``counts`` says, in order."""
    sx = sy = 0
    for (x, y), k in zip(ints, counts.values()):
        sx += x * k
        sy += y * k
    return sx, sy


def compute_metrics(trace: ControllerTrace, bound_sq: Fraction) -> ResourceMetrics:
    """The metrics of one trace, exact, over its distinct records, judged
    against the squared error bound ``bound_sq``.

    Equal steps share one record, so the records are counted once (by
    identity) and the requested and implemented setpoints are summed per
    distinct triple, weighted by their records' counts; the errors are
    collected as a set.  Every distinct point is put over one common
    denominator L, the lcm of all their W, so the sums and the squared
    norms (over L^2) are integer operations, and each reported rational is
    built once.  Each distinct error's float norm, `geometry._norm` of its
    triple, is computed once and looked up per step for the slope.  The
    averaging identity mean(y) - mean(x) = (e_0 - e_N)/N is checked
    exactly, as sum(y) - sum(x) = e_0 - e_N in those integers, and the
    stagnation run is the longest run of steps with equal (requested,
    implemented) triples.
    """
    records = trace.records
    steps = len(records)
    if steps == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    counts = Counter(records)
    requested: dict[Triple, int] = {}
    implemented: dict[Triple, int] = {}
    for r, k in counts.items():
        x, y = r.requested._t, r.implemented._t
        requested[x] = requested.get(x, 0) + k
        implemented[y] = implemented.get(y, 0) + k
    final = trace.final_error._t
    # e_0, the first record's error, comes first.
    distinct_errors = dict.fromkeys([*[r.error._t for r in counts], final])
    scale, ints = _scaled([*requested, *implemented, *distinct_errors])
    n_req, n_imp = len(requested), len(implemented)
    req_x, req_y = _weighted_sum(requested, ints[:n_req])
    imp_x, imp_y = _weighted_sum(implemented, ints[n_req : n_req + n_imp])
    error_ints = ints[n_req + n_imp :]
    # e_N may repeat an earlier error, so it is scaled alone.
    first_x, first_y = error_ints[0]
    last_x, last_y, last_w = final
    k = scale // last_w
    if (imp_x - req_x, imp_y - req_y) != (first_x - last_x * k, first_y - last_y * k):
        raise AssertionError("trace violates the exact averaging identity")
    total, square = scale * steps, scale * scale
    max_err2 = Fraction(max(x * x + y * y for x, y in error_ints), square)
    norms = {t: _norm(t) for t in distinct_errors}
    # The stagnation runs end where the pair changes: at those steps and at N.
    pairs = [(r.requested._t, r.implemented._t) for r in records]
    ends = [*compress(count(1), map(ne, pairs, pairs[1:])), steps]
    return ResourceMetrics(
        steps=steps,
        max_error_norm2=max_err2,
        final_error=trace.final_error,
        average_requested=_from_triple(_normalised(req_x, req_y, total)),
        average_implemented=_from_triple(_normalised(imp_x, imp_y, total)),
        error_slope=least_squares_slope([norms[e._t] for e in trace.errors()]),
        stagnation_steps=max(map(sub, ends, [0, *ends])),
        error_bound_sq=bound_sq,
        bound_satisfied=max_err2 <= bound_sq,
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run every resource loop; fully deterministic for a fixed seed.

    Resources are uncoupled, so running them one after another in listed
    order is equivalent to interleaving steps; each gets an independent
    seeded stream, which a PV unit's availability draws from.  Each spec's
    ``diffusion`` field switches its error diffusion on or off.
    """
    traces: dict[str, ControllerTrace] = {}
    metrics: dict[str, ResourceMetrics] = {}
    for spec in scenario.resources:
        unit = spec.build(_resource_rng(scenario.seed, spec.resource_id))
        requests = GradientRequests(spec.policy)
        trace = run_resource_loop(unit, requests, scenario.horizon, diffusion=spec.diffusion)
        traces[spec.resource_id] = trace
        metrics[spec.resource_id] = compute_metrics(trace, spec.error_bound_sq())
    return ScenarioResult(scenario=scenario, traces=traces, report=MetricsReport(metrics))
