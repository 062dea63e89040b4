"""Concrete local-controller models: on/off heaters and a PV converter.

The heater bank exposes a one-dimensional discrete feasible set of real
power setpoints (consumption is negative by convention), shaped by per-room
lock timers and comfort-band state.  The PV converter exposes a triangle of
(P, Q) setpoints whose real-power cap follows the available irradiance.

Both models run their per-step work on integers.  A bank keeps its powers
over one common denominator, and a ``HeaterState`` its temperatures as
numerators over another, so rooms are classified (once per state) and
ordered coldest first by integer comparisons, a setpoint is decoded as an
integer subset sum, and each new temperature is rounded to the 1/1024 grid
(``TEMP_RESOLUTION``, ties to even) by one integer divmod.  Fractions are
built only where a temperature is read.

A heater step works from tables.  The decode table keeps the rooms to
heat for each distinct (comfort order, scaled powers, target), None for
an unreachable target; the bank keeps each room's thermal update with its
rounding per state denominator; and the step classifies the state it
makes in its room loop, so the next step's feasible set is one lookup.
Feasible sets are built once and shared through bounded caches: the
heater set per (scale, powers, forced base, comfort rooms) and the PV
triangle per (cap, tan_phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    PointSet,
    RationalLike,
    _from_triple,
    _Frozen,
    _normalised,
    _polygon,
    _setattr,
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
_GRID_DEN = 1024
TEMP_RESOLUTION = Fraction(1, _GRID_DEN)


def _nearest(num: int, den: int) -> int:
    """round(Fraction(num, den)) for den > 0: the nearest integer, ties to even."""
    k, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and k & 1):
        k += 1
    return k


def grid_numerator(num: int, den: int, resolution: Fraction) -> int:
    """round(num / den / resolution) * resolution for den > 0, as a numerator
    over ``resolution.denominator``, in one integer divmod.

    The nearest point of the grid, ties to even, exactly what rounding the
    Fraction num/den/resolution with ``round`` gives.
    """
    rn, rd = resolution.numerator, resolution.denominator
    return _nearest(num * rd, den * rn) * rn


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
    thermal update in units of ``TEMP_RESOLUTION``,
    T' / TEMP_RESOLUTION = (T*keep + add) / over with integer keep, add, over.
    ``_rounding`` holds that update, rounding included, per state
    denominator (see ``_thermal_rounding``), filled by ``heater_step`` the
    first time it meets each one.
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
    _rounding: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _grid_band: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

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
        (lo_n, lo_d), (hi_n, hi_d) = self._band
        object.__setattr__(self, "_grid_band", (lo_d, lo_n * _GRID_DEN, hi_d, hi_n * _GRID_DEN))
        keep = (1 - self.leak) / TEMP_RESOLUTION
        add = self.leak * self.t_out / TEMP_RESOLUTION
        heat = self.gain / TEMP_RESOLUTION
        thermal = tuple((_affine(keep, add), _affine(keep, add + heat * p)) for p in self.powers)
        object.__setattr__(self, "_thermal", thermal)

    @property
    def rooms(self) -> int:
        return len(self.powers)


def _affine(keep: Fraction, add: Fraction) -> tuple[int, int, int]:
    """T -> T*keep + add as integers (k, a, m): T' = (T*k + a) / m."""
    m = math.lcm(keep.denominator, add.denominator)
    return keep.numerator * (m // keep.denominator), add.numerator * (m // add.denominator), m


def _thermal_rounding(thermal: tuple, den: int) -> tuple:
    """Per room and switch state, the thermal update of a temperature t/den
    with its rounding: (times, plus, over) such that, for q, r =
    divmod(t*times + plus, over), the new temperature over
    ``TEMP_RESOLUTION`` is q, or q - 1 when r is 0 and q is odd.

    The update is N/D = (t*keep + add*den) / (den*over) in grid units, and
    q = floor((2N + D) / 2D) rounds it to the nearest integer with halves
    up; r = 0 is a half, which goes to the even neighbour.
    """
    return tuple(
        tuple((2 * keep, (2 * add + over) * den, 2 * over * den) for keep, add, over in room)
        for room in thermal
    )


class HeaterState(_Frozen):
    """Per-room switch state, remaining lock steps, and temperature.

    The temperatures are kept like a point's triple: integer numerators
    ``_nums`` over one common denominator ``_den``, the least one, so equal
    temperatures give equal integers.  Equality and hashing compare
    (on, lock_remaining, _nums, _den), which is comparing the temperatures
    as Fractions.  ``temps`` builds the lowest-terms Fractions when read.
    A starting temperature off the ``TEMP_RESOLUTION`` grid is kept
    exactly; ``heater_step`` snaps every room onto the grid.  The room
    classes of a state under one bank are computed once and kept in
    ``_rooms``.
    """

    __slots__ = ("on", "lock_remaining", "_nums", "_den", "_rooms")

    def __init__(
        self,
        on: Iterable[bool],
        lock_remaining: Iterable[int],
        temps: Iterable[RationalLike],
    ) -> None:
        on = tuple(bool(s) for s in on)
        locks = tuple(int(k) for k in lock_remaining)
        temps = tuple(as_fraction(t) for t in temps)
        if not (len(on) == len(locks) == len(temps)):
            raise ValueError("per-room state tuples must have equal length")
        if any(k < 0 for k in locks):
            raise ValueError("lock counters must be non-negative")
        # The lcm of lowest-terms denominators leaves the numerators and it
        # without a common factor.
        den = math.lcm(*(t.denominator for t in temps))
        nums = tuple(t.numerator * (den // t.denominator) for t in temps)
        _init_state(self, on, locks, nums, den)

    @classmethod
    def initial(cls, temps: Iterable[RationalLike], on: Iterable[bool] = ()) -> "HeaterState":
        temps = tuple(temps)
        on = tuple(on) or (False,) * len(temps)
        return cls(on=on, lock_remaining=(0,) * len(temps), temps=temps)

    @property
    def temps(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    def _fields(self) -> tuple:
        return self.on, self.lock_remaining, self._nums, self._den

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HeaterState:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"HeaterState(on={self.on!r}, lock_remaining={self.lock_remaining!r}, "
            f"temps={self.temps!r})"
        )

    def __reduce__(self):
        return HeaterState, (self.on, self.lock_remaining, self.temps)


def _init_state(
    state: HeaterState,
    on: tuple,
    locks: tuple,
    nums: tuple,
    den: int,
    rooms: Optional[tuple] = None,
) -> HeaterState:
    """Set the slots of a state whose temperatures are nums/den in least terms,
    with its room classes under a bank if known (see ``_room_classes``)."""
    _setattr(state, "on", on)
    _setattr(state, "lock_remaining", locks)
    _setattr(state, "_nums", nums)
    _setattr(state, "_den", den)
    _setattr(state, "_rooms", rooms)
    return state


def _room_classes(
    params: HeaterParams, state: HeaterState
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Too-cold rooms, toggle-eligible comfort rooms, and the forced base.

    Temperatures are compared with the band by cross-multiplication; the
    base is the negated power of the locked-on and too-cold rooms, as an
    integer over ``params._scale``.  Kept once per state and bank:
    ``heater_setpoints_2d`` and ``heater_step`` both read them.
    ``heater_step`` classifies the state it makes in its room loop, the same
    way, so they are computed here only for a state built from its fields
    or read under another bank.
    """
    kept = state._rooms
    if kept is not None and kept[0] is params:
        return kept[1]
    (lo_n, lo_d), (hi_n, hi_d) = params._band
    den = state._den
    lo, hi = lo_n * den, hi_n * den
    powers = params._scaled_powers
    cold, comfort = [], []
    base = 0
    for i, (lock, a) in enumerate(zip(state.lock_remaining, state._nums)):
        if lock:
            if state.on[i]:
                base -= powers[i]
        elif a * lo_d < lo:
            cold.append(i)
            base -= powers[i]
        elif a * hi_d <= hi:
            comfort.append(i)
    classes = (tuple(cold), tuple(comfort), base)
    _setattr(state, "_rooms", (params, classes))
    return classes


@lru_cache(maxsize=4096)
def _setpoints(
    scale: int, powers: tuple[int, ...], base: int, comfort: tuple[int, ...]
) -> PointSet:
    """base minus every subset sum of the comfort rooms' powers, over scale, on the P axis."""
    sums = {0}
    for room in comfort:
        p = powers[room]
        sums |= {s + p for s in sums}
    return PointSet(tuple(_from_triple(_normalised(base - s, 0, scale)) for s in sums))


def heater_setpoints_2d(params: HeaterParams, state: HeaterState) -> PointSet:
    """The feasible set embedded in the (P, Q) plane at Q = 0.

    Locked heaters and too-cold rooms contribute a fixed base consumption;
    each subset of the unlocked comfort-band rooms may additionally heat.
    The set is built once per (bank, base, comfort rooms) and then shared:
    a state's set is one cached lookup.
    """
    _, comfort, base = _room_classes(params, state)
    return _setpoints(params._scale, params._scaled_powers, base, comfort)


@lru_cache(maxsize=4096)
def _coldest_subset(
    order: tuple[int, ...], powers: tuple[int, ...], target: int
) -> Optional[frozenset[int]]:
    """The rooms to heat: the first subset of ``order`` whose powers sum to
    target, None if no subset does.

    "First" is the order of a search that tries each room, coldest first,
    with it before without it.  It is found without the search: each room
    is taken exactly when the rest of the target is still a subset sum of
    the rooms after it.  A bank's decodes repeat, so each distinct
    (order, powers, target) is decoded once and kept, None included.
    """
    # after[k]: every subset sum of the rooms order[k:].
    after = [{0}]
    for room in reversed(order):
        p = powers[room]
        after.append(after[-1] | {s + p for s in after[-1]})
    after.reverse()
    if target not in after[0]:
        return None
    heated = []
    for k, room in enumerate(order, 1):
        if target - powers[room] in after[k]:
            heated.append(room)
            target -= powers[room]
    return frozenset(heated)


def heater_step(params: HeaterParams, state: HeaterState, setpoint: RationalLike) -> HeaterState:
    """Advance the bank after implementing a feasible total setpoint.

    The setpoint is decoded into a subset of the comfort-band rooms; a
    setpoint that no subset decodes is not in ``heater_setpoints_2d`` and
    raises ValueError.  When several subsets match, the coldest rooms are
    heated (room index breaks exact temperature ties).  Heaters that switch
    acquire a fresh lock; temperatures then follow the first-order thermal
    model using the new switch states, rounded to the ``TEMP_RESOLUTION``
    grid (ties to even) by one integer divmod per room, in the room loop.
    All of it runs on the state's numerators over its common denominator;
    an int setpoint needs no Fraction.
    """
    cold, comfort, base = _room_classes(params, state)
    nums, den = state._nums, state._den
    # The decode runs in integers over params._scale; a setpoint off that
    # grid is no sum of powers.
    if type(setpoint) is int:
        target, off_grid = setpoint * params._scale, 0
    else:
        setpoint = as_fraction(setpoint)
        target, off_grid = divmod(setpoint.numerator * params._scale, setpoint.denominator)
    # Over one denominator the numerators order the temperatures; the sort
    # is stable and comfort ascends, so the room index breaks ties.
    if len(comfort) > 1:
        comfort = tuple(sorted(comfort, key=nums.__getitem__))
    heated = None if off_grid else _coldest_subset(comfort, params._scaled_powers, base - target)
    if heated is None:
        raise ValueError(f"setpoint {setpoint} is not implementable in this state")

    rounding = params._rounding.get(den)
    if rounding is None:
        rounding = params._rounding[den] = _thermal_rounding(params._thermal, den)
    lock_steps, powers = params.lock_steps, params._scaled_powers
    lo_d, lo, hi_d, hi = params._grid_band
    on, locks, snapped = [], [], []
    next_cold, next_comfort, next_base = [], [], 0
    for i, (now_on, lock, a, switch) in enumerate(
        zip(state.on, state.lock_remaining, nums, rounding)
    ):
        # A locked room keeps its switch and counts down; an unlocked one
        # heats when too cold or chosen, a too-hot room switches off, and a
        # switch takes a fresh lock.
        if lock:
            lock -= 1
        elif now_on != (i in cold or i in heated):
            now_on, lock = not now_on, lock_steps
        on.append(now_on)
        locks.append(lock)
        times, plus, over = switch[now_on]
        k, r = divmod(a * times + plus, over)
        if not r and k & 1:
            k -= 1
        snapped.append(k)
        # The new state's classes, as _room_classes finds them, on k over the grid.
        if lock:
            if now_on:
                next_base -= powers[i]
        elif k * lo_d < lo:
            next_cold.append(i)
            next_base -= powers[i]
        elif k * hi_d <= hi:
            next_comfort.append(i)
    g = math.gcd(_GRID_DEN, *snapped)
    if g > 1:
        snapped = [k // g for k in snapped]
    return _init_state(
        object.__new__(HeaterState),
        tuple(on),
        tuple(locks),
        tuple(snapped),
        _GRID_DEN // g,
        (params, (tuple(next_cold), tuple(next_comfort), next_base)),
    )


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
    ``_p_max`` and ``_tan_phi`` hold both as (numerator, denominator), read
    by the per-step cap arithmetic.
    """

    p_max: Fraction
    tan_phi: Fraction
    _p_max: tuple[int, int] = field(init=False, repr=False, compare=False)
    _tan_phi: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("p_max", "tan_phi"):
            value = as_fraction(getattr(self, name))
            object.__setattr__(self, name, value)
            object.__setattr__(self, f"_{name}", (value.numerator, value.denominator))
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
    origin and tan_phi = 0 to a segment on the P axis.  A cap above p_max
    is refused here; any other cap is `pv_feasible_set`'s, which refuses a
    negative one and builds the triangle.
    """
    cap = as_fraction(cap)
    pn, pd = params._p_max
    if cap.numerator * pd > pn * cap.denominator:
        raise ValueError(f"cap {cap} outside [0, {params.p_max}]")
    return pv_feasible_set(params, cap)


@lru_cache(maxsize=4096)
def _pv_triangle(cn: int, cd: int, tn: int, td: int) -> ConvexPolygon:
    """The triangle of a valid cap cn/cd, built once per (cap, tan_phi): they
    determine it.  It is built in canonical form: the origin is the
    lexicographically smallest vertex, and (0, 0), (cap, -spread), (cap,
    spread) turn counter-clockwise."""
    x, spread, w = top = _normalised(cn * td, cn * tn, cd * td)  # (cap, cap*tan_phi)
    if spread == 0:
        return segment(ORIGIN, _from_triple(top))  # the origin itself when cap = 0
    return _polygon((ORIGIN._t, (x, -spread, w), top))


def pv_feasible_set(params: PVParams, p_avail: Fraction) -> ConvexPolygon:
    """Triangle capped by the real power irradiance currently makes available.

    The cap min(p_avail, p_max) is chosen and checked by cross-multiplying
    numerators and denominators.
    """
    an, ad = p_avail.numerator, p_avail.denominator
    pn, pd = params._p_max
    if an * pd > pn * ad:
        an, ad = pn, pd
    elif an < 0:
        raise ValueError(f"cap {p_avail} outside [0, {params.p_max}]")
    return _pv_triangle(an, ad, *params._tan_phi)


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
