import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errdiff.geometry import convex_hull
from errdiff.intervals import IntervalUnion
from errdiff.operators import Collection, check_invariance, iterate_1d, verify_monotone_family
from errdiff.resources import (
    TEMP_RESOLUTION,
    HeaterParams,
    HeaterState,
    PVParams,
    heater_error_bound,
    heater_setpoints_2d,
    heater_step,
    max_step_size,
    pv_error_bound_sq,
    pv_feasible_set,
    pv_triangle,
    pv_triangle_family,
)

from conftest import pt
from fraction_kernel import diameter_sq, polygon_intersection


def heater_feasible_set(params: HeaterParams, state: HeaterState) -> tuple[Fraction, ...]:
    """The real-power setpoints of ``heater_setpoints_2d``, sorted ascending."""
    return tuple(p.x for p in heater_setpoints_2d(params, state).points)


def single_heater(p=15, lock_steps=3, leak="1/100", gain="1/10", t_out=8):
    return HeaterParams(
        powers=(Fraction(p),),
        t_min=Fraction(19),
        t_max=Fraction(22),
        lock_steps=lock_steps,
        leak=Fraction(leak),
        gain=Fraction(gain),
        t_out=Fraction(t_out),
    )


def state(temps, on=None, locks=None):
    temps = tuple(Fraction(t) for t in temps)
    on = tuple(on) if on else (False,) * len(temps)
    locks = tuple(locks) if locks else (0,) * len(temps)
    return HeaterState(on=on, lock_remaining=locks, temps=temps)


class TestHeaterFeasibleSet:
    def test_unlocked_too_hot_offers_off_only(self):
        assert heater_feasible_set(single_heater(), state(["23"])) == (0,)

    def test_unlocked_too_cold_forces_on(self):
        assert heater_feasible_set(single_heater(), state(["18"])) == (-15,)

    def test_unlocked_comfort_offers_both(self):
        assert heater_feasible_set(single_heater(), state(["20"])) == (-15, 0)

    def test_locked_on_keeps_heating_even_when_hot(self):
        got = heater_feasible_set(single_heater(), state(["23"], on=[True], locks=[2]))
        assert got == (-15,)

    def test_locked_off_offers_nothing_but_off(self):
        got = heater_feasible_set(single_heater(), state(["18"], on=[False], locks=[2]))
        assert got == (0,)

    def test_two_equal_heaters_in_comfort(self):
        params = HeaterParams(powers=(Fraction(1), Fraction(1)), t_min=19, t_max=22)
        got = heater_feasible_set(params, state(["20", "21"]))
        assert got == (-2, -1, 0)

    def test_mixed_rooms_offset_by_forced_consumption(self):
        params = HeaterParams(powers=(Fraction(1), Fraction(2), Fraction(3)), t_min=19, t_max=22)
        # room0 too cold (forced on), room1 locked on, room2 comfort
        st = state(["18", "20", "21"], on=[False, True, False], locks=[0, 4, 0])
        got = heater_feasible_set(params, st)
        assert got == (-6, -3)  # base -3, optionally heat room2

    def test_always_contains_the_forced_base(self):
        rng = random.Random(0)
        params = HeaterParams(powers=(Fraction(1), Fraction(2), Fraction(3)), t_min=19, t_max=22)
        for _ in range(50):
            st = state(
                [rng.choice(["18", "20", "23"]) for _ in range(3)],
                on=[rng.random() < 0.5 for _ in range(3)],
                locks=[rng.choice([0, 0, 2]) for _ in range(3)],
            )
            values = heater_feasible_set(params, st)
            assert max(values) in values  # base = largest (least consumption)... sanity
            # the empty heating subset is always admissible
            locked = [i for i in range(3) if st.lock_remaining[i] > 0]
            cold = [i for i in range(3) if st.lock_remaining[i] == 0 and st.temps[i] < 19]
            base = -sum(params.powers[i] for i in locked if st.on[i]) - sum(
                params.powers[i] for i in cold
            )
            assert base in values


class TestHeaterStep:
    def test_all_off_decays_toward_outdoor(self):
        params = single_heater(lock_steps=0, gain="1/10")
        st = state(["20"])
        nxt = heater_step(params, st, Fraction(0))
        assert nxt.on == (False,)
        # quantized first-order decay toward 8
        expected = Fraction(20) + Fraction(1, 100) * (Fraction(8) - Fraction(20))
        assert abs(nxt.temps[0] - expected) <= TEMP_RESOLUTION / 2

    def test_switching_on_locks(self):
        params = single_heater(lock_steps=3)
        nxt = heater_step(params, state(["20"]), Fraction(-15))
        assert nxt.on == (True,)
        assert nxt.lock_remaining == (3,)

    def test_lock_counts_down_without_switch(self):
        params = single_heater(lock_steps=3)
        st = state(["20"], on=[True], locks=[2])
        nxt = heater_step(params, st, Fraction(-15))
        assert nxt.lock_remaining == (1,)
        assert nxt.on == (True,)

    def test_coldest_room_decodes_ambiguous_subset(self):
        params = HeaterParams(powers=(Fraction(1), Fraction(1)), t_min=19, t_max=22, gain=0)
        st = state(["41/2", "21"])  # room0 colder
        nxt = heater_step(params, st, Fraction(-1))
        assert nxt.on == (True, False)

    def test_equal_temperature_tie_breaks_by_index(self):
        params = HeaterParams(powers=(Fraction(1), Fraction(1)), t_min=19, t_max=22, gain=0)
        nxt = heater_step(params, state(["20", "20"]), Fraction(-1))
        assert nxt.on == (True, False)

    def test_infeasible_setpoint_rejected(self):
        with pytest.raises(ValueError):
            heater_step(single_heater(), state(["20"]), Fraction(-7))

    def test_comfort_band_stays_within_enlarged_band(self):
        """Lock-free trivial-action rule keeps temperatures inside the band
        enlarged by one-step overshoot, for a heater strong enough to heat."""
        params = single_heater(p=15, lock_steps=0, leak="1/50", gain="1/25", t_out=0)
        # one-step excursions: cooling at most leak*(t_max - t_out), heating
        # at most gain*P - leak*(t_min - t_out) above t_max... conservative:
        down = params.leak * (params.t_max - params.t_out)
        up = params.gain * params.powers[0]
        lo = params.t_min - down - TEMP_RESOLUTION
        hi = params.t_max + up + TEMP_RESOLUTION
        st = state(["20"])
        rng = random.Random(1)
        for _ in range(800):
            values = heater_feasible_set(params, st)
            # always request zero: the agent heats only when forced
            target = max(v for v in values) if 0 in values else values[0]
            st = heater_step(params, st, target)
            assert lo <= st.temps[0] <= hi


@st.composite
def heater_banks(draw):
    """Up to four rooms in any switch, lock and temperature-band state."""
    rooms = draw(st.integers(1, 4))
    powers = [draw(st.sampled_from(["1", "2", "3", "3/2"])) for _ in range(rooms)]
    params = HeaterParams(
        powers=tuple(Fraction(p) for p in powers),
        t_min=Fraction(19),
        t_max=Fraction(22),
        lock_steps=draw(st.integers(0, 3)),
    )
    bank = HeaterState(
        on=tuple(draw(st.booleans()) for _ in range(rooms)),
        lock_remaining=tuple(draw(st.integers(0, 3)) for _ in range(rooms)),
        temps=tuple(Fraction(draw(st.sampled_from(["18", "19", "41/2", "22", "23"]))) for _ in range(rooms)),
    )
    return params, bank


class TestHeaterStepOracle:
    @settings(max_examples=80, deadline=None)
    @given(heater_banks())
    def test_raises_exactly_outside_the_feasible_set(self, bank):
        params, now = bank
        feasible = heater_feasible_set(params, now)
        # Every negated sum of room powers, feasible here or not, and values between them.
        sums = {
            sum(chosen, Fraction(0))
            for k in range(params.rooms + 1)
            for chosen in itertools.combinations(params.powers, k)
        }
        candidates = {-s for s in sums} | {-s - Fraction(1, 2) for s in sums} | {Fraction(1)}
        for setpoint in sorted(candidates):
            if setpoint in feasible:
                nxt = heater_step(params, now, setpoint)
                heating = sum((p for p, on in zip(params.powers, nxt.on) if on), Fraction(0))
                assert -heating == setpoint  # the decoded rooms draw exactly the setpoint
            else:
                with pytest.raises(ValueError):
                    heater_step(params, now, setpoint)


class TestStepSize:
    def test_singleton(self):
        assert max_step_size([(0,)]) == 0

    def test_single_heater_modes(self):
        assert max_step_size([(0,), (-15, 0), (-15,)]) == 15

    def test_multi_heater_collection_gap_is_largest_power(self):
        params = HeaterParams(powers=(Fraction(1), Fraction(2), Fraction(3)), t_min=19, t_max=22)
        temps_options = ["18", "20", "23"]
        sets = []
        for combo in itertools.product(temps_options, repeat=3):
            for locks in itertools.product([0, 2], repeat=3):
                for on in itertools.product([False, True], repeat=3):
                    st = state(list(combo), on=list(on), locks=list(locks))
                    sets.append(heater_feasible_set(params, st))
        assert max_step_size(sets) == 3

    def test_error_bound_is_half_the_largest_power(self):
        assert heater_error_bound([Fraction(15000)]) == 7500
        assert heater_error_bound([1, 2, 3]) == Fraction(3, 2)
        assert heater_error_bound([0]) == 0

    def test_heater_collection_matches_interval_fixed_point(self):
        sets = [(0,), (Fraction(-15), Fraction(0)), (Fraction(-15),)]
        delta = max_step_size(sets)
        fixed = iterate_1d(sets, IntervalUnion.singleton(0))
        assert fixed == IntervalUnion.closed(-delta / 2, delta / 2)
        assert delta / 2 == heater_error_bound([15])


class TestPVTriangle:
    def test_zero_cap_is_origin(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        assert pv_triangle(params, 0).vertices == (pt(0, 0),)

    def test_full_cap_corners_on_rated_circle(self):
        params = PVParams(p_max=Fraction(4), tan_phi=Fraction(1, 4))
        tri = pv_triangle(params, 4)
        assert set(tri.vertices) == {pt(0, 0), pt(4, -1), pt(4, 1)}
        for corner in (pt(4, 1), pt(4, -1)):
            assert corner.norm2() == params.rated_power_sq

    def test_half_cap(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        tri = pv_triangle(params, "1/2")
        assert set(tri.vertices) == {pt(0, 0), pt("1/2", "-1/2"), pt("1/2", "1/2")}

    def test_zero_cone_gives_segment(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(0))
        assert pv_triangle(params, 1).vertices == (pt(0, 0), pt(1, 0))

    @pytest.mark.parametrize("tan_phi", [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3)])
    @pytest.mark.parametrize("cap", [Fraction(0), Fraction(1, 3), Fraction(2)])
    def test_equals_hull_of_its_corners(self, cap, tan_phi):
        params = PVParams(p_max=Fraction(2), tan_phi=tan_phi)
        spread = cap * tan_phi
        corners = (pt(0, 0), pt(cap, -spread), pt(cap, spread))
        assert pv_triangle(params, cap) == convex_hull(corners)

    def test_cap_out_of_range_rejected(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        with pytest.raises(ValueError):
            pv_triangle(params, 2)

    def test_feasible_set_saturates(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        assert pv_feasible_set(params, Fraction(5)) == pv_triangle(params, 1)
        assert pv_feasible_set(params, Fraction(0)).vertices == (pt(0, 0),)
        assert pv_feasible_set(params, Fraction(1, 3)) == pv_triangle(params, "1/3")


class TestPVBound:
    def test_segment_bound(self):
        assert pv_error_bound_sq(PVParams(p_max=Fraction(1), tan_phi=Fraction(0))) == 1

    def test_wide_cone_base_dominates(self):
        assert pv_error_bound_sq(PVParams(p_max=Fraction(1), tan_phi=Fraction(1))) == 4

    def test_narrow_cone_leg_dominates(self):
        assert pv_error_bound_sq(PVParams(p_max=Fraction(4), tan_phi=Fraction(1, 4))) == 17

    def test_bound_is_the_squared_diameter(self):
        for p_max, tan_phi in ((1, 1), (4, "1/4"), (1, 0), (3, "1/2")):
            params = PVParams(p_max=Fraction(p_max), tan_phi=Fraction(tan_phi))
            tri = pv_triangle(params, params.p_max)
            assert pv_error_bound_sq(params) == diameter_sq(tri)


class TestPVInvariance:
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_family_leaves_full_triangle_invariant(self, m):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        family = Collection(tuple(pv_triangle_family(params, m)), "persistent")
        assert check_invariance(family, pv_triangle(params, 1))

    def test_family_intersection_is_origin(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        family = pv_triangle_family(params, 4)
        meet = family[0]
        for member in family[1:]:
            meet = polygon_intersection(meet, member)
        assert meet.vertices == (pt(0, 0),)

    def test_monotone_family_conditions_hold(self):
        params = PVParams(p_max=Fraction(2), tan_phi=Fraction(1, 2))
        report = verify_monotone_family(pv_triangle_family(params, 4))
        assert report.ok
        assert report.candidate == pv_triangle(params, 2)


class TestEmbedding:
    def test_heater_setpoints_embed_on_p_axis(self):
        params = single_heater()
        ps = heater_setpoints_2d(params, state(["20"]))
        assert ps.points == (pt(-15, 0), pt(0, 0))
