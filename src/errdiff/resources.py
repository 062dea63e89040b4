"""Concrete local-controller models: on/off heaters and a PV converter.

The heater bank exposes a one-dimensional discrete feasible set of real
power setpoints (consumption is negative by convention), shaped by per-room
lock timers and comfort-band state.  The PV converter exposes a triangle of
(P, Q) setpoints whose real-power cap follows the available irradiance.

Both models run their per-step work on integers.  A bank keeps its powers
over one common denominator, classifies rooms by cross-multiplied
temperature comparisons, decodes a setpoint as an integer subset sum and
rounds each new temperature to the 1/1024 grid (``TEMP_RESOLUTION``, ties
to even) by one integer divmod (``grid_point``).  Feasible sets are built
once and shared through bounded caches: the heater set per (forced base,
comfort-room powers) and the PV triangle per (cap, tan_phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    PointSet,
    RationalLike,
    _from_triple,
    _normalised,
    _polygon,
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


def grid_numerator(num: int, den: int, resolution: Fraction) -> int:
    """``grid_point(num, den, resolution)`` times ``resolution.denominator``."""
    rn, rd = resolution.numerator, resolution.denominator
    den *= rn
    k, r = divmod(num * rd, den)
    if 2 * r > den or (2 * r == den and k & 1):
        k += 1
    return k * rn


def grid_point(num: int, den: int, resolution: Fraction) -> Fraction:
    """round(num / den / resolution) * resolution for den > 0, in one integer divmod.

    The nearest point of the grid, ties to even, exactly what rounding the
    Fraction num/den/resolution with ``round`` gives.
    """
    return Fraction(grid_numerator(num, den, resolution), resolution.denominator)


@dataclass(frozen=True)
class HeaterParams:
    """A bank of purely resistive on/off heaters, one per room.

    ``powers`` are positive wattage magnitudes (implemented setpoints are
    their negatives).  After a switch a heater stays locked for
    ``lock_steps`` control periods.  Temperatures follow a first-order
    model: T' = T + leak*(t_out - T) + gain*P_delivered.

    The bank is also kept in integers, computed once: ``_scale``, the lcm
    of the power denominators, and every power times it; the band limits as
    (numerator, denominator) pairs; and per room and switch state the
    thermal update T' = (T*keep + add) / over with integer keep, add, over.
    """

    powers: tuple[Fraction, ...]
    t_min: Fraction
    t_max: Fraction
    lock_steps: int = 0
    leak: Fraction = Fraction(1, 100)
    gain: Fraction = Fraction(0)
    t_out: Fraction = Fraction(0)
    _scale: int = field(init=False, repr=False, compare=False)
    _scaled_powers: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _band: tuple[tuple[int, int], tuple[int, int]] = field(init=False, repr=False, compare=False)
    _thermal: tuple = field(init=False, repr=False, compare=False)

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
        scale = math.lcm(*(p.denominator for p in self.powers))
        object.__setattr__(self, "_scale", scale)
        scaled_powers = tuple(p.numerator * (scale // p.denominator) for p in self.powers)
        object.__setattr__(self, "_scaled_powers", scaled_powers)
        object.__setattr__(
            self, "_band", tuple((t.numerator, t.denominator) for t in (self.t_min, self.t_max))
        )
        keep, add = 1 - self.leak, self.leak * self.t_out
        object.__setattr__(
            self,
            "_thermal",
            tuple((_affine(keep, add), _affine(keep, add + self.gain * p)) for p in self.powers),
        )

    @property
    def rooms(self) -> int:
        return len(self.powers)


def _affine(keep: Fraction, add: Fraction) -> tuple[int, int, int]:
    """T -> T*keep + add as integers (k, a, m): T' = (T*k + a) / m."""
    m = math.lcm(keep.denominator, add.denominator)
    return keep.numerator * (m // keep.denominator), add.numerator * (m // add.denominator), m


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


def _heater_state(on: tuple, locks: tuple, temps: tuple) -> HeaterState:
    """A HeaterState from values ``heater_step`` computed, without re-validating them."""
    state = object.__new__(HeaterState)
    object.__setattr__(state, "on", on)
    object.__setattr__(state, "lock_remaining", locks)
    object.__setattr__(state, "temps", temps)
    return state


def _room_classes(params: HeaterParams, state: HeaterState) -> tuple[list[int], list[int], int]:
    """Too-cold rooms, toggle-eligible comfort rooms, and the forced base.

    Temperatures are compared with the band by cross-multiplication; the
    base is the negated power of the locked-on and too-cold rooms, as an
    integer over ``params._scale``.
    """
    (lo_n, lo_d), (hi_n, hi_d) = params._band
    powers = params._scaled_powers
    cold, comfort = [], []
    base = 0
    for i, lock in enumerate(state.lock_remaining):
        if lock:
            if state.on[i]:
                base -= powers[i]
            continue
        t = state.temps[i]
        a, b = t.numerator, t.denominator
        if a * lo_d < lo_n * b:
            cold.append(i)
            base -= powers[i]
        elif a * hi_d <= hi_n * b:
            comfort.append(i)
    return cold, comfort, base


@lru_cache(maxsize=4096)
def _setpoints(scale: int, base: int, comfort: tuple[int, ...]) -> PointSet:
    """base minus every subset sum of the comfort powers, over scale, on the P axis."""
    sums = {0}
    for p in comfort:
        sums |= {s + p for s in sums}
    return PointSet(tuple(_from_triple(_normalised(base - s, 0, scale)) for s in sums))


def heater_setpoints_2d(params: HeaterParams, state: HeaterState) -> PointSet:
    """The feasible set embedded in the (P, Q) plane at Q = 0.

    Locked heaters and too-cold rooms contribute a fixed base consumption;
    each subset of the unlocked comfort-band rooms may additionally heat.
    The set is built once per (base, comfort-room powers) and then shared.
    """
    _, comfort, base = _room_classes(params, state)
    powers = params._scaled_powers
    return _setpoints(params._scale, base, tuple(powers[i] for i in comfort))


def _coldest_subset(
    order: Sequence[int], powers: Sequence[int], target: int
) -> Optional[list[int]]:
    """First subset (in coldest-first preference order) summing to target, or None."""

    def search(idx: int, remaining: int, chosen: list[int]):
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
    setpoint that no subset decodes is not in ``heater_setpoints_2d`` and
    raises ValueError.  When several subsets match, the coldest rooms are
    heated (room index breaks exact temperature ties).  Heaters that switch
    acquire a fresh lock; temperatures then follow the first-order thermal
    model using the new switch states, rounded to the ``TEMP_RESOLUTION``
    grid (ties to even) by one integer divmod per room.
    """
    setpoint = as_fraction(setpoint)
    cold, comfort, base = _room_classes(params, state)
    order = sorted(comfort, key=lambda i: (state.temps[i], i))
    # The decode runs in integers over params._scale; a setpoint off that
    # grid is no sum of powers.
    target, off_grid = divmod(setpoint.numerator * params._scale, setpoint.denominator)
    heated = None if off_grid else _coldest_subset(order, params._scaled_powers, base - target)
    if heated is None:
        raise ValueError(f"setpoint {setpoint} is not implementable in this state")

    on, locks, temps = [], [], []
    for i, (was_on, lock, t) in enumerate(zip(state.on, state.lock_remaining, state.temps)):
        # A locked room keeps its switch; an unlocked one heats when too cold
        # or chosen, and a too-hot room switches off.
        now_on = was_on if lock else (i in cold or i in heated)
        on.append(now_on)
        locks.append(params.lock_steps if now_on != was_on else max(lock - 1, 0))
        keep, add, over = params._thermal[i][now_on]
        a, b = t.numerator, t.denominator
        temps.append(grid_point(a * keep + add * b, b * over, TEMP_RESOLUTION))
    return _heater_state(tuple(on), tuple(locks), tuple(temps))


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
    and (0, 0), (cap, -spread), (cap, spread) turn counter-clockwise.  The
    cap is checked, and the cache keyed, on numerators and denominators.
    """
    cap = as_fraction(cap)
    cn, cd = cap.numerator, cap.denominator
    p_max, tan_phi = params.p_max, params.tan_phi
    if cn < 0 or cn * p_max.denominator > p_max.numerator * cd:
        raise ValueError(f"cap {cap} outside [0, {p_max}]")
    return _pv_triangle(cn, cd, tan_phi.numerator, tan_phi.denominator)


@lru_cache(maxsize=4096)
def _pv_triangle(cn: int, cd: int, tn: int, td: int) -> ConvexPolygon:
    """The triangle of a valid cap cn/cd, built once per (cap, tan_phi): they determine it."""
    x, spread, w = top = _normalised(cn * td, cn * tn, cd * td)  # (cap, cap*tan_phi)
    if spread == 0:
        return segment(ORIGIN, _from_triple(top))  # the origin itself when cap = 0
    return _polygon((ORIGIN._t, (x, -spread, w), top))


def pv_feasible_set(params: PVParams, p_avail: Fraction) -> ConvexPolygon:
    """Triangle capped by the real power irradiance currently makes available.

    The cap min(p_avail, p_max) is chosen by cross-multiplication.
    """
    p_max = params.p_max
    if p_avail.numerator * p_max.denominator > p_max.numerator * p_avail.denominator:
        p_avail = p_max
    return pv_triangle(params, p_avail)


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
