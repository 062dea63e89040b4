"""Concrete local-controller models: on/off heaters and a PV converter.

The heater bank exposes a one-dimensional discrete feasible set of real
power setpoints (consumption is negative by convention), shaped by per-room
lock timers and comfort-band state.  The PV converter exposes a triangle of
(P, Q) setpoints whose real-power cap follows the available irradiance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    PointSet,
    RationalLike,
    _raw_polygon,
    as_fraction,
    segment,
)

# ---------------------------------------------------------------------------
# Heaters
# ---------------------------------------------------------------------------

# Temperatures are snapped to this grid after every step.  Without the snap
# the exact recursion multiplies denominators every step; the temperature
# only selects which feasible set appears, so the grid is a modeling
# choice, not an accuracy loss in the error accounting.
TEMP_RESOLUTION = Fraction(1, 1024)


@dataclass(frozen=True)
class HeaterParams:
    """A bank of purely resistive on/off heaters, one per room.

    ``powers`` are positive wattage magnitudes (implemented setpoints are
    their negatives).  After a switch a heater stays locked for
    ``lock_steps`` control periods.  Temperatures follow a first-order
    model: T' = T + leak*(t_out - T) + gain*P_delivered.
    """

    powers: tuple[Fraction, ...]
    t_min: Fraction
    t_max: Fraction
    lock_steps: int = 0
    leak: Fraction = Fraction(1, 100)
    gain: Fraction = Fraction(0)
    t_out: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "powers", tuple(as_fraction(p) for p in self.powers))
        for name in ("t_min", "t_max", "leak", "gain", "t_out"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if not self.powers:
            raise ValueError("at least one heater required")
        if any(p <= 0 for p in self.powers):
            raise ValueError("heater powers must be positive")
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be below t_max")
        if self.lock_steps < 0:
            raise ValueError("lock_steps must be non-negative")
        if not (0 <= self.leak < 1):
            raise ValueError("leak rate must lie in [0, 1)")

    @property
    def rooms(self) -> int:
        return len(self.powers)


@dataclass(frozen=True)
class HeaterState:
    """Per-room switch state, remaining lock steps, and temperature."""

    on: tuple[bool, ...]
    lock_remaining: tuple[int, ...]
    temps: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "on", tuple(bool(s) for s in self.on))
        object.__setattr__(self, "lock_remaining", tuple(int(k) for k in self.lock_remaining))
        object.__setattr__(self, "temps", tuple(as_fraction(t) for t in self.temps))
        if not (len(self.on) == len(self.lock_remaining) == len(self.temps)):
            raise ValueError("per-room state tuples must have equal length")
        if any(k < 0 for k in self.lock_remaining):
            raise ValueError("lock counters must be non-negative")

    @classmethod
    def initial(cls, temps: Iterable[RationalLike], on: Iterable[bool] = ()) -> "HeaterState":
        temps = tuple(as_fraction(t) for t in temps)
        on = tuple(on) or (False,) * len(temps)
        return cls(on=on, lock_remaining=(0,) * len(temps), temps=temps)


def _room_classes(params: HeaterParams, state: HeaterState):
    """Locked rooms, forced-on contribution, and toggle-eligible rooms."""
    locked = [i for i in range(params.rooms) if state.lock_remaining[i] > 0]
    unlocked = [i for i in range(params.rooms) if state.lock_remaining[i] == 0]
    cold = [i for i in unlocked if state.temps[i] < params.t_min]
    comfort = [i for i in unlocked if params.t_min <= state.temps[i] <= params.t_max]
    base = -sum(
        (params.powers[i] for i in locked if state.on[i]), Fraction(0)
    ) - sum((params.powers[i] for i in cold), Fraction(0))
    return locked, cold, comfort, base


def heater_feasible_set(params: HeaterParams, state: HeaterState) -> tuple[Fraction, ...]:
    """Implementable total real-power setpoints, sorted ascending.

    Locked heaters and too-cold rooms contribute a fixed base consumption;
    each subset of the unlocked comfort-band rooms may additionally heat.
    With a single room this reduces to the three-case table {0}, {-P, 0},
    {-P} driven by lock state and temperature.
    """
    _, _, comfort, base = _room_classes(params, state)
    sums = {Fraction(0)}
    for i in comfort:
        sums |= {s + params.powers[i] for s in sums}
    return tuple(sorted({base - s for s in sums}))


def heater_setpoints_2d(params: HeaterParams, state: HeaterState) -> PointSet:
    """The feasible set embedded in the (P, Q) plane at Q = 0."""
    return PointSet(tuple(Point2(v, Fraction(0)) for v in heater_feasible_set(params, state)))


def _coldest_subset(
    order: Sequence[int], powers: Sequence[Fraction], target: Fraction
) -> Optional[list[int]]:
    """First subset (in coldest-first preference order) summing to target, or None."""

    def search(idx: int, remaining: Fraction, chosen: list[int]):
        if remaining == 0:
            return chosen
        if idx == len(order):
            return None
        room = order[idx]
        if powers[room] <= remaining:
            found = search(idx + 1, remaining - powers[room], chosen + [room])
            if found is not None:
                return found
        return search(idx + 1, remaining, chosen)

    return search(0, target, [])


def heater_step(params: HeaterParams, state: HeaterState, setpoint: Fraction) -> HeaterState:
    """Advance the bank after implementing a feasible total setpoint.

    The setpoint is decoded into a subset of the comfort-band rooms; a
    setpoint that no subset decodes is not in ``heater_feasible_set`` and
    raises ValueError.  When several subsets match, the coldest rooms are
    heated (room index breaks exact temperature ties).  Heaters that switch
    acquire a fresh lock; temperatures then follow the first-order thermal
    model using the new switch states.
    """
    setpoint = as_fraction(setpoint)
    _, cold, comfort, base = _room_classes(params, state)
    order = sorted(comfort, key=lambda i: (state.temps[i], i))
    heated = _coldest_subset(order, params.powers, base - setpoint)
    if heated is None:
        raise ValueError(f"setpoint {setpoint} is not implementable in this state")

    res = TEMP_RESOLUTION
    on, locks, temps = [], [], []
    for i, (was_on, lock, t) in enumerate(zip(state.on, state.lock_remaining, state.temps)):
        # A locked room keeps its switch; an unlocked one heats when too cold
        # or chosen, and a too-hot room switches off.
        now_on = was_on if lock else (i in cold or i in heated)
        on.append(now_on)
        locks.append(params.lock_steps if now_on != was_on else max(lock - 1, 0))
        heat = params.gain * params.powers[i] if now_on else 0
        temps.append(round((t + params.leak * (params.t_out - t) + heat) / res) * res)
    return HeaterState(on=tuple(on), lock_remaining=tuple(locks), temps=tuple(temps))


def max_step_size(sets: Iterable[Iterable[RationalLike]]) -> Fraction:
    """Largest gap between consecutive points over all 1D sets (0 for singletons)."""
    worst = Fraction(0)
    seen = False
    for values in sets:
        seen = True
        vals = sorted({as_fraction(v) for v in values})
        if not vals:
            raise ValueError("1D sets must be non-empty")
        for a, b in zip(vals, vals[1:]):
            worst = max(worst, b - a)
    if not seen:
        raise ValueError("collection must be non-empty")
    return worst


def heater_error_bound(powers: Iterable[RationalLike]) -> Fraction:
    """Tight accumulated-error bound: half the largest single-heater power.

    Equals half the maximum step size of every feasible set the bank can
    expose, hence the radius of the minimal invariant error interval.
    """
    vals = [as_fraction(p) for p in powers]
    if not vals:
        raise ValueError("at least one heater required")
    if any(p < 0 for p in vals):
        raise ValueError("powers must be non-negative")
    return max(vals) / 2


# ---------------------------------------------------------------------------
# PV converter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PVParams:
    """PV converter limits: real-power cap and power-factor cone slope.

    The rated apparent power is determined by the pair: its square is
    p_max^2 * (1 + tan_phi^2), kept squared so it stays rational.
    """

    p_max: Fraction
    tan_phi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_max", as_fraction(self.p_max))
        object.__setattr__(self, "tan_phi", as_fraction(self.tan_phi))
        if self.p_max < 0:
            raise ValueError("p_max must be non-negative")
        if self.tan_phi < 0:
            raise ValueError("tan_phi must be non-negative")

    @property
    def rated_power_sq(self) -> Fraction:
        return self.p_max * self.p_max * (1 + self.tan_phi * self.tan_phi)


def pv_triangle(params: PVParams, cap: RationalLike) -> ConvexPolygon:
    """Feasible (P, Q) triangle with real power in [0, cap] inside the cone.

    Vertices are (0, 0) and (cap, +-cap*tan_phi); cap = 0 collapses to the
    origin and tan_phi = 0 to a segment on the P axis.  The result is built
    in canonical form: the origin is the lexicographically smallest vertex
    and (0, 0), (cap, -spread), (cap, spread) turn counter-clockwise.
    """
    cap = as_fraction(cap)
    if not (0 <= cap <= params.p_max):
        raise ValueError(f"cap {cap} outside [0, {params.p_max}]")
    spread = cap * params.tan_phi
    if spread == 0:
        return segment(ORIGIN, Point2(cap, spread))  # the origin itself when cap = 0
    return _raw_polygon((ORIGIN, Point2(cap, -spread), Point2(cap, spread)))


def pv_feasible_set(params: PVParams, p_avail: Fraction) -> ConvexPolygon:
    """Triangle capped by the real power irradiance currently makes available."""
    return pv_triangle(params, min(p_avail, params.p_max))


def pv_triangle_family(params: PVParams, subdivisions: int) -> list[ConvexPolygon]:
    """Discretization of the capped-triangle family at caps k/m * p_max."""
    if subdivisions < 1:
        raise ValueError("need at least one subdivision")
    return [
        pv_triangle(params, params.p_max * Fraction(k, subdivisions))
        for k in range(subdivisions + 1)
    ]


def pv_error_bound_sq(params: PVParams) -> Fraction:
    """Squared diameter of the full triangle: the persistent-mode error bound.

    The maximum of leg^2 = p_max^2 (1 + tan_phi^2) and base^2 =
    (2 p_max tan_phi)^2, whichever dominates for the given cone.
    """
    base_sq = 4 * params.p_max * params.p_max * params.tan_phi * params.tan_phi
    return max(params.rated_power_sq, base_sq)
