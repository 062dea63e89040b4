import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from errdiff.dynamics import ControllerTrace
from errdiff.geometry import ORIGIN, Point2
from errdiff.resources import HeaterParams, HeaterState, PVParams, pv_error_bound_sq
from errdiff.serialize import emit_plot_data, load_scenario, write_simulation
from errdiff.simulate import (
    CentralPolicy,
    ConstantWave,
    GradientRequests,
    HeaterSpec,
    HeaterUnit,
    MaximizeActivePower,
    MetricsReport,
    PVSpec,
    PVUnit,
    QuadraticCost,
    RandomWave,
    Scenario,
    ScenarioResult,
    SquareWave,
    central_step,
    least_squares_slope,
    run_scenario,
)

from conftest import poly, pt
from fraction_kernel import least_squares_slope as slope_oracle

DATA = Path(__file__).resolve().parent / "data"


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
        availability=SquareWave(6, Fraction(0), Fraction(1)),
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
        first = requests(tri)
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
        """The spec's field is the one switch, and the result reads it back."""
        scenario = heater_scenario()
        off = dataclasses.replace(scenario.resources[0], diffusion=False)
        result = run_scenario(dataclasses.replace(scenario, resources=[off]))
        assert result.diffusion == {"heater": False}
        built_off = run_scenario(heater_scenario(diffusion=False))
        assert result.traces["heater"].errors() == built_off.traces["heater"].errors()
        assert run_scenario(heater_scenario()).diffusion == {"heater": True}

    def test_duty_cycle_respects_lock_windows(self):
        lock_steps = 10
        scenario = heater_scenario(horizon=800)
        spec = dataclasses.replace(scenario.resources[0], params=heater_params(lock_steps=lock_steps))
        result = run_scenario(dataclasses.replace(scenario, resources=[spec]))
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
        sc = dataclasses.replace(sc, resources=[*sc.resources, pv_scenario().resources[0]])
        result = run_scenario(sc)
        assert set(result.traces) == {"heater", "pv"}
        assert set(result.report.resources) == {"heater", "pv"}


norm_floats = st.one_of(
    st.floats(min_value=0, max_value=1e300),
    st.floats(min_value=0, max_value=1e-300),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


class TestErrorSlope:
    @given(st.lists(norm_floats, min_size=2, max_size=40))
    def test_matches_exact_oracle(self, ys):
        assert least_squares_slope(ys) == slope_oracle(ys)

    @given(
        st.lists(norm_floats, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=200)
        )
    )
    def test_repeated_values_match_exact_oracle(self, ys):
        """Traces repeat a few values; each distinct value is scaled once."""
        assert least_squares_slope(ys) == slope_oracle(ys)

    def test_signed_zeros_are_one_value(self):
        ys = [0.0, -0.0, 0.75, -0.0, 0.0, 0.75]
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
        wave = SquareWave(6, Fraction(0), Fraction(1))
        rng = random.Random(0)
        values = [wave(n, rng) for n in range(12)]
        assert values == [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0]

    def test_constant_and_random_bounds(self):
        rng = random.Random(0)
        assert ConstantWave(Fraction(3, 4))(17, rng) == Fraction(3, 4)
        wave = RandomWave(Fraction(0), Fraction(2), denominator=8)
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
        unit = PVUnit("pv", params, SquareWave(2, Fraction(0), Fraction(1)))
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

    @pytest.mark.parametrize("rid", ["", ".", "..", "../x", "/x", "a/b", "a\\b", "a\0b"])
    def test_resource_id_must_be_a_file_name(self, rid):
        spec = dataclasses.replace(heater_scenario().resources[0], resource_id=rid)
        with pytest.raises(ValueError, match="resource id"):
            Scenario(horizon=5, resources=[spec])


class TestFrozenInputs:
    """A scenario and its specs are values: a variant is a new value, built
    with ``dataclasses.replace``, and a result keeps describing its own run."""

    def test_every_field_refuses_assignment(self):
        scenario = heater_scenario()
        for value in (scenario, scenario.resources[0], pv_scenario().resources[0]):
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
        assert type(scenario.resources) is tuple

    def test_a_variant_leaves_an_earlier_result_as_it_ran(self, tmp_path):
        """A result's files describe its own run: the scenario it holds cannot
        be changed in place, and a variant built after the run is a new value."""
        scenario = heater_scenario(horizon=50, diffusion=False, seed=11)
        result = run_scenario(scenario)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.resources[0].diffusion = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.seed = 99
        on = dataclasses.replace(scenario.resources[0], diffusion=True)
        variant = run_scenario(dataclasses.replace(scenario, seed=99, resources=[on]))
        assert variant.diffusion == {"heater": True} and variant.scenario.seed == 99
        write_simulation(result, tmp_path / "sim")
        emit_plot_data(result, tmp_path / "plot")
        metrics = json.loads((tmp_path / "sim" / "metrics.json").read_text())
        manifest = json.loads((tmp_path / "plot" / "manifest.json").read_text())
        for header in (metrics, manifest["scenario"]):
            assert header["seed"] == 11
            assert header["diffusion"] == {"heater": False}

    def test_the_specs_hold_the_bounds(self):
        heater, pv = heater_scenario().resources[0], pv_scenario().resources[0]
        assert heater.error_bound_sq() == 7500**2
        assert pv.error_bound_sq() == pv_error_bound_sq(pv.params) == 4
        result = run_scenario(Scenario(horizon=5, resources=[heater, pv]))
        bounds = [m.error_bound_sq for m in result.report.resources.values()]
        assert bounds == [7500**2, 4]


class TestFrozenResults:
    """A result is a value too: its metrics, its traces and the mappings
    that hold them refuse change, so the files written from it describe
    the run."""

    def test_a_result_refuses_change_and_writes_the_run(self, tmp_path):
        scenario = load_scenario(DATA / "closed_loop_seed1.json")
        result = run_scenario(dataclasses.replace(scenario, horizon=30))
        write_simulation(result, tmp_path / "before")
        metrics, trace = result.report.resources["heaters"], result.traces["heaters"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            metrics.bound_satisfied = False
        with pytest.raises(AttributeError):
            trace.records.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.records = ()
        with pytest.raises(TypeError):
            result.report.resources["heaters"] = dataclasses.replace(metrics, bound_satisfied=False)
        with pytest.raises(TypeError):
            del result.traces["heaters"]
        for value, name in ((result, "traces"), (result, "report"), (result.report, "resources")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, {})
        write_simulation(result, tmp_path / "after")
        for name in ("metrics.json", "heaters_trace.csv"):
            assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()
        assert json.loads((tmp_path / "after" / "metrics.json").read_text())["resources"]["heaters"]["steps"] == 30
        assert len(trace.records) == 30

    def test_a_record_refuses_change(self, tmp_path):
        """Writing a step record's field once changed the trace CSV but not
        metrics.json.  A record is a tuple now, so the write is refused, and
        records still compare and hash by identity."""
        scenario = load_scenario(DATA / "closed_loop_seed1.json")
        result = run_scenario(dataclasses.replace(scenario, horizon=30))
        write_simulation(result, tmp_path / "before")
        records = result.traces["heaters"].records
        with pytest.raises(AttributeError):
            records[0].implemented = records[0].requested
        with pytest.raises(TypeError):
            records[0][3] = records[0].requested
        write_simulation(result, tmp_path / "after")
        for path in sorted((tmp_path / "before").iterdir()):
            assert (tmp_path / "after" / path.name).read_bytes() == path.read_bytes()
        twin = records[0]._replace()
        assert twin != records[0] and records[0] == records[0]
        assert len({twin, records[0]}) == 2
