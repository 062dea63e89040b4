import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from errdiff.dynamics import ControllerTrace
from errdiff.geometry import ORIGIN, Point2
from errdiff.resources import HeaterParams, HeaterState, PVParams, pv_error_bound_sq
from errdiff.serialize import emit_plot_data
from errdiff.simulate import (
    CentralPolicy,
    GradientRequests,
    HeaterSpec,
    HeaterUnit,
    MaximizeActivePower,
    MetricsReport,
    PVSpec,
    PVUnit,
    QuadraticCost,
    Scenario,
    ScenarioResult,
    central_step,
    constant_availability,
    least_squares_slope,
    random_availability,
    run_scenario,
    square_wave,
)

from conftest import poly, pt


def heater_params(p=15000, lock_steps=10, leak="1/100", gain="1/20000"):
    return HeaterParams(
        powers=(Fraction(p),),
        t_min=Fraction(19),
        t_max=Fraction(22),
        lock_steps=lock_steps,
        leak=Fraction(leak),
        gain=Fraction(gain),
        t_out=Fraction(8),
    )


def heater_scenario(horizon=400, diffusion=True, seed=3, params=None):
    spec = HeaterSpec(
        resource_id="heater",
        params=params or heater_params(),
        initial=HeaterState.initial([Fraction(20)]),
        policy=CentralPolicy(QuadraticCost(pt(-7500, 0), Fraction(1)), Fraction(1, 4)),
        diffusion=diffusion,
    )
    return Scenario(horizon=horizon, resources=[spec], seed=seed)


def static_heater_params():
    """Comfort temperatures frozen: the feasible set stays {-P, 0}."""
    return heater_params(lock_steps=0, leak="0", gain="0")


def pv_scenario(horizon=400, seed=5):
    params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
    spec = PVSpec(
        resource_id="pv",
        params=params,
        availability=square_wave(6, Fraction(0), Fraction(1)),
        policy=CentralPolicy(MaximizeActivePower(), Fraction(1, 4)),
    )
    return Scenario(horizon=horizon, resources=[spec], seed=seed)


class TestCentralStep:
    def test_zero_gradient_is_fixed(self):
        policy = CentralPolicy(QuadraticCost(pt(0, 0), Fraction(1)), Fraction(1, 2))
        square = poly((-1, -1), (1, -1), (1, 1), (-1, 1))
        assert central_step(policy, square, pt(0, 0)) == pt(0, 0)

    def test_quadratic_converges_to_interior_minimum(self):
        policy = CentralPolicy(QuadraticCost(pt(-7500, 0), Fraction(1)), Fraction(1, 4))
        advert = poly((-15000, 0), (0, 0))
        x = pt(0, 0)
        for _ in range(80):
            x = central_step(policy, advert, x)
            assert advert.contains_point(x)
        # the quantized contraction settles exactly on the minimizer
        assert x == pt(-7500, 0)
        assert central_step(policy, advert, x) == x

    def test_maximize_p_pushes_to_cap_facet(self):
        policy = CentralPolicy(MaximizeActivePower(), Fraction(1, 4))
        tri = poly((0, 0), (1, -1), (1, 1))
        x = pt(0, 0)
        for _ in range(40):
            x = central_step(policy, tri, x)
            assert tri.contains_point(x)
        assert x.x == 1

    def test_gradient_requests_start_from_projected_origin(self):
        requests = GradientRequests(CentralPolicy(MaximizeActivePower(), Fraction(1, 8)))
        tri = poly((0, 0), (1, -1), (1, 1))
        first = requests(tri, ORIGIN, random.Random(0))
        assert first == pt(Fraction(1, 8), 0)


class TestRunScenario:
    def test_deterministic_and_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_plot_data(run_scenario(heater_scenario()), out_a)
        emit_plot_data(run_scenario(heater_scenario()), out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_every_request_is_feasible(self):
        result = run_scenario(heater_scenario())
        for trace in result.traces.values():
            for r in trace.records:
                assert r.advertised.contains_point(r.requested)

    def test_energy_identity_exact(self):
        result = run_scenario(heater_scenario())
        for trace in result.traces.values():
            total = ORIGIN
            for r in trace.records:
                total = total + r.requested - r.implemented
            assert total == trace.final_error - trace.errors()[0]

    def test_heater_error_bounded_with_diffusion(self):
        result = run_scenario(heater_scenario(horizon=1000))
        metrics = result.report.resources["heater"]
        assert metrics.bound_satisfied
        assert metrics.max_error_norm2 <= Fraction(7500) ** 2

    def test_average_convergence_rate(self):
        result = run_scenario(heater_scenario(horizon=1000))
        trace = result.traces["heater"]
        bound = Fraction(7500)
        for n in (500, 1000):
            sub_req = [r.requested for r in trace.records[:n]]
            sub_imp = [r.implemented for r in trace.records[:n]]
            inv = Fraction(1, n)
            xbar = Point2(
                sum((p.x for p in sub_req), Fraction(0)) * inv,
                sum((p.y for p in sub_req), Fraction(0)) * inv,
            )
            ybar = Point2(
                sum((p.x for p in sub_imp), Fraction(0)) * inv,
                sum((p.y for p in sub_imp), Fraction(0)) * inv,
            )
            assert (xbar - ybar).norm2() <= (bound * inv) ** 2

    def test_no_diffusion_gets_stuck_and_drifts(self):
        result = run_scenario(
            heater_scenario(horizon=600, diffusion=False, params=static_heater_params())
        )
        metrics = result.report.resources["heater"]
        # the request settles at the non-implementable cost minimum while the
        # implementation parks on one side: long stagnation, linear drift
        assert metrics.stagnation_steps > 400
        assert metrics.error_slope > 1000
        assert not metrics.bound_satisfied

    def test_diffusion_override_flags(self):
        result = run_scenario(heater_scenario(), diffusion_overrides={"heater": False})
        assert result.diffusion == {"heater": False}
        with pytest.raises(ValueError):
            run_scenario(heater_scenario(), diffusion_overrides={"nope": True})

    def test_duty_cycle_respects_lock_windows(self):
        lock_steps = 10
        scenario = heater_scenario(horizon=800)
        scenario.resources[0].params = heater_params(lock_steps=lock_steps)
        result = run_scenario(scenario)
        ys = [r.implemented.x for r in result.traces["heater"].records]
        switches = [i for i in range(1, len(ys)) if ys[i] != ys[i - 1]]
        assert len(switches) >= 10  # it genuinely duty-cycles
        gaps = [b - a for a, b in zip(switches, switches[1:])]
        assert min(gaps) >= lock_steps + 1

    def test_time_average_converges_to_cost_minimum(self):
        result = run_scenario(
            heater_scenario(horizon=2000, params=static_heater_params())
        )
        trace = result.traces["heater"]
        # requests settle exactly on the minimizer after a short transient
        requests = [r.requested.x for r in trace.records]
        settle = next(i for i, x in enumerate(requests) if x == Fraction(-7500))
        assert settle < 100
        avg_imp = result.report.resources["heater"].average_implemented
        n = len(trace.records)
        transient_mass = Fraction(settle) * 15000
        envelope = (transient_mass + Fraction(7500)) * Fraction(1, n)
        assert abs(avg_imp.x - Fraction(-7500)) <= envelope

    def test_pv_persistent_bound(self):
        result = run_scenario(pv_scenario(horizon=1500))
        metrics = result.report.resources["pv"]
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        assert metrics.max_error_norm2 <= pv_error_bound_sq(params)
        assert metrics.bound_satisfied

    def test_multi_resource_scenario_runs_in_order(self):
        sc = heater_scenario()
        sc.resources.append(pv_scenario().resources[0])
        result = run_scenario(sc)
        assert set(result.traces) == {"heater", "pv"}
        assert set(result.report.resources) == {"heater", "pv"}


def slope_oracle(ys):
    """Least-squares slope by the centred formula, in exact rationals."""
    qs = [Fraction(y) for y in ys]
    n = len(qs)
    i_bar = Fraction(n - 1, 2)
    y_bar = sum(qs) / n
    num = sum((i - i_bar) * (y - y_bar) for i, y in enumerate(qs))
    return float(num / sum((i - i_bar) ** 2 for i in range(n)))


norm_floats = st.one_of(
    st.floats(min_value=0, max_value=1e300),
    st.floats(min_value=0, max_value=1e-300),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


class TestErrorSlope:
    @given(st.lists(norm_floats, min_size=2, max_size=40))
    def test_matches_exact_oracle(self, ys):
        assert least_squares_slope(ys) == slope_oracle(ys)

    @given(norm_floats, st.integers(min_value=2, max_value=30))
    def test_constant_list_is_flat(self, y, n):
        assert least_squares_slope([y] * n) == 0.0

    def test_two_points(self):
        assert least_squares_slope([1.5, 4.0]) == 2.5
        assert least_squares_slope([5e-324, 0.0]) == -5e-324

    def test_metrics_slope_is_over_error_norms(self):
        result = run_scenario(pv_scenario(horizon=200))
        trace = result.traces["pv"]
        norms = [math.sqrt(float(e.norm2())) for e in trace.errors()]
        slope = result.report.resources["pv"].error_slope
        assert slope == slope_oracle(norms) != 0.0


class TestAvailabilityWaves:
    def test_square_wave_alternates(self):
        wave = square_wave(6, Fraction(0), Fraction(1))
        rng = random.Random(0)
        values = [wave(n, rng) for n in range(12)]
        assert values == [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0]

    def test_constant_and_random_bounds(self):
        rng = random.Random(0)
        assert constant_availability(Fraction(3, 4))(17, rng) == Fraction(3, 4)
        wave = random_availability(Fraction(0), Fraction(2), denominator=8)
        assert all(0 <= wave(n, rng) <= 2 for n in range(50))


class TestEmitPlotData:
    def test_files_and_manifest(self, tmp_path):
        result = run_scenario(heater_scenario(horizon=50))
        files = emit_plot_data(result, tmp_path)
        names = {p.name for p in files}
        assert names == {
            "heater_setpoints.csv",
            "heater_accumulated_error.csv",
            "heater_time_averaged.csv",
            "manifest.json",
        }
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"]["horizon"] == 50
        assert {f["series"] for f in manifest["files"]} == {
            "requested vs implemented setpoints per step",
            "accumulated error e_n (components and norm)",
            "running time-averages of requested and implemented setpoints",
        }
        assert manifest["metrics"]["heater"]["bound_satisfied"] is True

    def test_empty_trace_gives_header_only_csvs(self, tmp_path):
        scenario = heater_scenario(horizon=1)
        synthetic = ScenarioResult(
            scenario=scenario,
            traces={"heater": ControllerTrace()},
            report=MetricsReport(),
            diffusion={"heater": True},
        )
        emit_plot_data(synthetic, tmp_path)
        for name in ("heater_setpoints.csv", "heater_accumulated_error.csv", "heater_time_averaged.csv"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert len(lines) == 1  # header only


class TestUnits:
    def test_heater_unit_rejects_reactive_power(self):
        unit = HeaterUnit("h", heater_params(), HeaterState.initial([Fraction(20)]))
        with pytest.raises(ValueError):
            unit.advance(pt(0, 1))

    def test_pv_unit_follows_wave(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        unit = PVUnit("pv", params, square_wave(2, Fraction(0), Fraction(1)))
        first = unit.feasible_set()
        unit.advance(pt(0, 0))
        second = unit.feasible_set()
        assert len(first.vertices) == 3 and second.vertices == (pt(0, 0),)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(horizon=0, resources=[heater_scenario().resources[0]])
        spec = heater_scenario().resources[0]
        with pytest.raises(ValueError):
            Scenario(horizon=5, resources=[spec, spec])
