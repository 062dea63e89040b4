"""Discrete-time dynamics of a greedy setpoint-tracking local controller.

The controller's state is its accumulated error e[n], a point that starts
at the origin.  It receives a requested setpoint, implements the feasible
point closest to request-plus-error, and carries the remainder forward
(``step_perfect``):

    e[n+1] = e[n] + x[n] - y[n],    y[n] = proj(S[n], e[n] + x[n]).

Two prediction disciplines are supported.  With perfect prediction the
request x[n] is chosen from the hull of S[n] itself.  With persistent
prediction it is chosen from the hull of the previous feasible set; in the
modified request z[n] = e[n] + x[n], with z[0] = x[0], the recursion reads
(``step_persistent``, kept as the oracle)

    z[n+1] = z[n] + x[n+1] - proj(S[n], z[n]),    e[n] = z[n] - x[n],

which is the same update with the advertisement one step behind.  So one
loop, ``run_resource_loop``, runs both disciplines, over fixed set
sequences (``run_trace``) and closed-loop resources alike.

All arithmetic is exact; the recursion above holds as an identity of
rationals in every trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Protocol, Sequence, Union

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    PointSet,
    Triple,
    _contains_all,
    _from_triple,
    _normalised,
    _scaled,
    project_convex_polygon,
    project_point_set,
)
from .operators import MODES, FeasibleSet, Mode, feasible_hull


class InfeasibleRequestError(ValueError):
    """The requested setpoint lies outside the advertised convex set."""


def project_feasible(feasible: FeasibleSet, z: Point2) -> Point2:
    """Closest feasible point: exact over finite sets and convex polygons."""
    if isinstance(feasible, PointSet):
        return project_point_set(feasible, z)
    return project_convex_polygon(feasible, z)


def step_perfect(
    error: Point2, request: Point2, feasible: FeasibleSet
) -> tuple[Point2, Point2]:
    """One greedy step: implement proj(S[n], e[n] + x[n]), carry the rest.

    Returns the implemented setpoint y[n] and the next error e[n+1].  This
    is the update of both prediction modes; they differ only in the
    advertisement the request was drawn from, which the caller checks.
    """
    # A polygon projection returns z itself when z is feasible, and the
    # error is then the origin: such steps skip their subtraction.
    target = request if error is ORIGIN else error + request
    implemented = project_feasible(feasible, target)
    return implemented, ORIGIN if implemented is target else target - implemented


def step_persistent(
    z: Point2, next_request: Point2, feasible: FeasibleSet
) -> tuple[Point2, Point2]:
    """One greedy step under persistent prediction, in the z-form.

    ``z`` is the modified request z[n] = e[n] + x[n] (z[0] = x[0] from a
    zero error) and ``feasible`` the set valid now; its hull is the
    advertisement from which ``next_request`` was chosen.  Returns the
    setpoint implemented now and z[n+1].  The controller loop runs the
    equivalent e-form; this is the paper's recursion as written, kept as an
    oracle for it.
    """
    if not feasible_hull(feasible).contains_point(next_request):
        raise InfeasibleRequestError(f"request {next_request} outside advertised set")
    implemented = project_feasible(feasible, z)
    return implemented, z + next_request - implemented


@dataclass(frozen=True)
class StepRecord:
    """One step of a trace; ``error`` is the accumulated error entering the step."""

    step: int
    feasible: FeasibleSet
    advertised: ConvexPolygon
    requested: Point2
    implemented: Point2
    error: Point2


@dataclass
class ControllerTrace:
    """The steps of one run; the error starts at the origin and ends at ``final_error``."""

    records: list[StepRecord] = field(default_factory=list)
    final_error: Point2 = ORIGIN

    def errors(self) -> list[Point2]:
        """Accumulated errors e[0..N], including the post-horizon value."""
        return [r.error for r in self.records] + [self.final_error]

    def max_error_norm2(self) -> Fraction:
        scale, errors = _scaled(self.errors())
        return Fraction(max(x * x + y * y for x, y in errors), scale * scale)


# ---------------------------------------------------------------------------
# Request policies
# ---------------------------------------------------------------------------


class RequestPolicy(Protocol):
    def __call__(self, advertised: ConvexPolygon, error: Point2, rng: random.Random) -> Point2:
        ...


def fixed_request(point: Point2) -> RequestPolicy:
    """Always request the same setpoint."""

    def policy(advertised: ConvexPolygon, error: Point2, rng: random.Random) -> Point2:
        return point

    return policy


def _extent(ts: Sequence[Triple], axis: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The smallest and largest coordinate ``axis`` of the triples, as (numerator, denominator)."""
    lo = hi = ts[0]
    for t in ts[1:]:
        if t[axis] * lo[2] < lo[axis] * t[2]:
            lo = t
        elif t[axis] * hi[2] > hi[axis] * t[2]:
            hi = t
    return (lo[axis], lo[2]), (hi[axis], hi[2])


def uniform_request(denominator: int = 1024) -> RequestPolicy:
    """Random rational request in the advertised set.

    Points are drawn on a denominator-bounded grid: rejection sampling from
    the bounding box for full polygons, parameter sampling for segments.
    Each draw k/denominator is placed in integers, on the segment's or the
    box's corners as numerator-denominator pairs, and only the returned
    point's triple becomes a Point2.
    """

    def lerp(a: tuple[int, int], b: tuple[int, int], k: int) -> tuple[int, int]:
        """a + (b - a)*k/denominator for a = an/ad and b = bn/bd, as a numerator and denominator."""
        (an, ad), (bn, bd) = a, b
        return an * bd * (denominator - k) + bn * ad * k, ad * bd * denominator

    def policy(advertised: ConvexPolygon, error: Point2, rng: random.Random) -> Point2:
        ts = advertised._ts
        if not ts:
            raise ValueError("cannot sample from an empty advertisement")
        if len(ts) == 1:
            return advertised.vertices[0]
        if len(ts) == 2:
            (ux, uy, uw), (vx, vy, vw) = ts
            k = rng.randrange(denominator + 1)
            x, w = lerp((ux, uw), (vx, vw), k)
            y, _ = lerp((uy, uw), (vy, vw), k)
            return _from_triple(_normalised(x, y, w))
        (xmin, xmax), (ymin, ymax) = _extent(ts, 0), _extent(ts, 1)
        for _ in range(200):
            xn, xd = lerp(xmin, xmax, rng.randrange(denominator + 1))
            yn, yd = lerp(ymin, ymax, rng.randrange(denominator + 1))
            t = (xn * yd, yn * xd, xd * yd)
            if _contains_all(ts, (t,)):
                return _from_triple(_normalised(*t))
        # Thin polygon: fall back to a random convex combination of vertices
        # (equal weights when the grid has no point strictly between 0 and 1).
        verts = advertised.vertices
        weights = [rng.randrange(1, max(denominator, 2)) for _ in verts]
        return sum((v * w for v, w in zip(verts, weights)), ORIGIN) * Fraction(1, sum(weights))

    return policy


# ---------------------------------------------------------------------------
# The controller loop
# ---------------------------------------------------------------------------


class SetSource(Protocol):
    """What the controller loop runs over.

    ``feasible_set`` gives the set S[n] valid at the current step and
    ``advance`` receives the setpoint implemented from it, moving the source
    to the next step; a resource whose state follows what it implemented
    closes the loop there.
    """

    prediction: Mode

    def feasible_set(self) -> FeasibleSet:
        ...

    def advance(self, implemented: Point2) -> None:
        ...


def run_resource_loop(
    source: SetSource,
    requests: RequestPolicy,
    horizon: int,
    rng: random.Random,
    *,
    diffusion: bool = True,
) -> ControllerTrace:
    """Run the local controller over ``source`` for ``horizon`` steps.

    Every step reads one feasible set, takes one hull, checks the request
    against the advertisement it was drawn from and projects once.  The
    advertisement is the hull of the current set under perfect prediction
    and the hull of the previous set under persistent prediction (step 0
    advertises its own set).  The error starts at the origin.  With
    ``diffusion`` off the controller projects the bare request and the
    residual still accumulates, which is the unbounded-error baseline.

    Perfect steps read the set before drawing the request; persistent steps
    after the first draw the request before reading the set.  A source and
    a request policy sharing ``rng`` see that order.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    mode = source.prediction
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    trace = ControllerTrace()
    error = ORIGIN
    for n in range(horizon):
        if mode == "persistent" and n > 0:
            advertised = hull  # the previous step's set
            request = requests(advertised, error, rng)
            feasible = source.feasible_set()
            hull = feasible_hull(feasible)
        else:
            feasible = source.feasible_set()
            hull = advertised = feasible_hull(feasible)
            request = requests(advertised, error, rng)
        if not advertised.contains_point(request):
            raise InfeasibleRequestError(f"request {request} outside advertised set")
        # Without diffusion the step sees no carried error; e[n+1] still
        # accumulates its residual.
        implemented, residual = step_perfect(error if diffusion else ORIGIN, request, feasible)
        trace.records.append(StepRecord(n, feasible, advertised, request, implemented, error))
        error = residual if diffusion else error + residual
        source.advance(implemented)
    trace.final_error = error
    return trace


Schedule = Union[Sequence[FeasibleSet], Callable[[int], FeasibleSet]]


@dataclass
class _ScheduledSource:
    """A set sequence or a function of the step index, as a set source."""

    prediction: Mode
    sets: Schedule
    step: int = 0

    def feasible_set(self) -> FeasibleSet:
        return self.sets(self.step) if callable(self.sets) else self.sets[self.step]

    def advance(self, implemented: Point2) -> None:
        self.step += 1


def run_trace(
    mode: Mode,
    sets: Schedule,
    requests: RequestPolicy,
    horizon: int,
    *,
    seed: int = 0,
    diffusion: bool = True,
) -> ControllerTrace:
    """Run the controller against a fixed schedule of feasible sets.

    ``sets`` may be a sequence or a function of the step index; it is read
    once per step and does not depend on what gets implemented.  ``seed``
    seeds the stream the request policy draws from.
    """
    return run_resource_loop(
        _ScheduledSource(mode, sets),
        requests,
        horizon,
        random.Random(seed),
        diffusion=diffusion,
    )
