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

A request policy (``RequestPolicy``) sees the advertisement alone: the
central controller picks from what is advertised, and the local
controller compensates its own error.  A random policy,
``uniform_request``, owns the stream it draws from, as a PV unit owns its
availability's; a source and a policy meant to share one stream are given
the same ``Random``.

All arithmetic is exact; the recursion above holds as an identity of
rationals in every trace.

A step is a pure function of its set, advertisement, request and error
(for a given ``diffusion``), and in grid scenarios those repeat, so
``run_resource_loop`` keeps a step table for the length of one call: each
distinct step key maps to the step's ``StepRecord`` and the error it leaves.
A repeated step appends that same record object, so a trace's records are
shared between equal steps and a record's position in ``records`` is its
step index (``StepRecord`` has no ``step`` field).  Among the steps the
table misses, two more tables catch the repeated parts: the projection of
each distinct (set, target) pair and the pairs (advertisement, request)
already found to contain the request.  Nothing is kept between calls.
Every membership test here, `ConvexPolygon.contains_point` and the request
sampler's test of its draws, is `geometry._holds`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Protocol, Sequence, Union

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    PointSet,
    Triple,
    _extremes,
    _from_triple,
    _holds,
    _normalised,
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


Projections = dict[tuple[FeasibleSet, Triple], Point2]


def step_perfect(
    error: Point2, request: Point2, feasible: FeasibleSet, projections: Projections
) -> tuple[Point2, Point2]:
    """One greedy step: implement proj(S[n], e[n] + x[n]), carry the rest.

    Returns the implemented setpoint y[n] and the next error e[n+1].  This
    is the update of both prediction modes; they differ only in the
    advertisement the request was drawn from, which the caller checks.
    ``projections`` maps (set, target triple) pairs to the projections
    found before; a pair not in it is projected and added.
    """
    target = request if error is ORIGIN else error + request
    key = (feasible, target._t)
    implemented = projections.get(key)
    if implemented is None:
        implemented = projections[key] = project_feasible(feasible, target)
    elif implemented._t == target._t:
        implemented = target  # an earlier target, equal to this one
    # A polygon projection returns z itself when z is feasible, and the
    # error is then the origin: such steps skip their subtraction.
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


class StepRecord(NamedTuple):
    """One distinct step of a trace; ``error`` is the accumulated error entering it.

    The loop appends one record object for every equal step, so a record
    holds no step index (its positions in ``ControllerTrace.records`` are
    its steps), and records compare and hash by identity: counting or
    formatting each distinct record once covers every step it stands for.
    A record is a tuple, so no field can be written once the loop has built
    it; a frozen dataclass would set each field through
    ``object.__setattr__`` and cost about twice as much to build.
    """

    feasible: FeasibleSet
    advertised: ConvexPolygon
    requested: Point2
    implemented: Point2
    error: Point2

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ControllerTrace:
    """The steps of one run, ``records[n]`` being step n; equal steps share one
    record.  The error starts at the origin and ends at ``final_error``.
    The trace is frozen and keeps its records as a tuple, so no step can be
    added, dropped or replaced once the run has returned it."""

    records: tuple[StepRecord, ...] = ()
    final_error: Point2 = ORIGIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def errors(self) -> list[Point2]:
        """Accumulated errors e[0..N], including the post-horizon value."""
        return [r.error for r in self.records] + [self.final_error]


# ---------------------------------------------------------------------------
# Request policies
# ---------------------------------------------------------------------------


# A request policy picks the next request from the advertisement alone.
RequestPolicy = Callable[[ConvexPolygon], Point2]


def fixed_request(point: Point2) -> RequestPolicy:
    """Always request the same setpoint."""
    return lambda advertised: point


def uniform_request(rng: random.Random, denominator: int) -> RequestPolicy:
    """Random rational request in the advertised set, drawn from ``rng``.

    Points are drawn on a denominator-bounded grid: rejection sampling from
    the bounding box for full polygons, parameter sampling for segments.
    Each draw k/denominator is placed in integers, on the segment's or the
    box's corners as numerator-denominator pairs, and only the returned
    point's triple becomes a Point2.  A denominator below 1 is refused.
    """
    if denominator < 1:
        raise ValueError(f"uniform_request denominator must be at least 1, got {denominator}")

    def lerp(a: tuple[int, int], b: tuple[int, int], k: int) -> tuple[int, int]:
        """a + (b - a)*k/denominator for a = an/ad and b = bn/bd, as a numerator and denominator."""
        (an, ad), (bn, bd) = a, b
        return an * bd * (denominator - k) + bn * ad * k, ad * bd * denominator

    def policy(advertised: ConvexPolygon) -> Point2:
        ts = advertised._ts
        if len(ts) == 1:
            return advertised.vertices[0]
        if len(ts) == 2:
            (ux, uy, uw), (vx, vy, vw) = ts
            k = rng.randrange(denominator + 1)
            x, w = lerp((ux, uw), (vx, vw), k)
            y, _ = lerp((uy, uw), (vy, vw), k)
            return _from_triple(_normalised(x, y, w))
        # The bounding box's sides as (numerator, denominator) pairs.
        (xmin, xmax), (ymin, ymax) = (
            [(s, t[2]) for t, s in _extremes(ts, a, b)] for a, b in ((1, 0), (0, 1))
        )
        for _ in range(200):
            xn, xd = lerp(xmin, xmax, rng.randrange(denominator + 1))
            yn, yd = lerp(ymin, ymax, rng.randrange(denominator + 1))
            t = (xn * yd, yn * xd, xd * yd)
            if _holds(advertised, t):
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
    *,
    diffusion: bool = True,
) -> ControllerTrace:
    """Run the local controller over ``source`` for ``horizon`` steps.

    Every step reads one feasible set, takes one hull and draws one request
    from an advertisement, and ``source.advance`` receives its setpoint.  The
    advertisement is the hull of the current set under perfect prediction
    and the hull of the previous set under persistent prediction (step 0
    advertises its own set).  The error starts at the origin.  With
    ``diffusion`` off the controller projects the bare request and the
    residual still accumulates, which is the unbounded-error baseline.

    Perfect steps read the set before drawing the request; persistent steps
    after the first draw the request before reading the set.  A source and
    a request policy that draw from one shared stream see that order.

    The rest of a step (the check of the request against its advertisement,
    the projection, the error update and the ``StepRecord``) is a pure
    function of its key (set, advertisement, request, error), so for the
    length of the call a step table keeps each distinct key's record and the
    error it leaves: a repeated key appends that same record object and
    takes that error.  Among the keys the table misses, each distinct
    (set, target) pair is projected and each distinct (advertisement,
    request) pair checked once; a request outside its advertisement is
    never added, so it raises whenever it recurs.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    mode = source.prediction
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    records: list[StepRecord] = []
    error = ORIGIN
    # step key -> (the step's record, the error it leaves)
    steps: dict[tuple, tuple[StepRecord, Point2]] = {}
    projections: Projections = {}
    # Keyed on triples: a tuple of ints hashes and compares without a Python call.
    contained: set[tuple[tuple[Triple, ...], Triple]] = set()
    for n in range(horizon):
        if mode == "persistent" and n > 0:
            advertised = hull  # the previous step's set
            request = requests(advertised)
            feasible = source.feasible_set()
            hull = feasible_hull(feasible)
        else:
            feasible = source.feasible_set()
            hull = advertised = feasible_hull(feasible)
            request = requests(advertised)
        # The set itself, not its triples: a point set and a polygon with
        # the same triples project differently.
        key = (feasible, advertised._ts, request._t, error._t)
        step = steps.get(key)
        if step is None:
            checked = (advertised._ts, request._t)
            if checked not in contained:
                if not advertised.contains_point(request):
                    raise InfeasibleRequestError(f"request {request} outside advertised set")
                contained.add(checked)
            # Without diffusion the step sees no carried error; e[n+1] still
            # accumulates its residual.
            implemented, residual = step_perfect(
                error if diffusion else ORIGIN, request, feasible, projections
            )
            record = StepRecord(feasible, advertised, request, implemented, error)
            step = steps[key] = (record, residual if diffusion else error + residual)
        record, error = step
        records.append(record)
        source.advance(record.implemented)
    return ControllerTrace(records, error)


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
    diffusion: bool = True,
) -> ControllerTrace:
    """Run the controller against a fixed schedule of feasible sets.

    ``sets`` may be a sequence or a function of the step index; it is read
    once per step and does not depend on what gets implemented.
    """
    return run_resource_loop(_ScheduledSource(mode, sets), requests, horizon, diffusion=diffusion)
