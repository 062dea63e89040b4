import json
from fractions import Fraction

import pytest

from errdiff.dynamics import fixed_request, run_trace
from errdiff.geometry import PointSet, as_fraction
from errdiff.operators import Collection
from errdiff.serialize import (
    feasible_set_id,
    load_collection,
    load_scenario,
    parse_collection,
    parse_feasible,
    parse_point,
    parse_polygon,
    parse_scenario,
    polygon_to_json,
    write_trace_csv,
)

from conftest import poly, pt


class TestFractionFormat:
    def test_integer_omits_denominator(self):
        assert str(Fraction(3)) == "3"
        assert str(Fraction(-15000)) == "-15000"

    def test_proper_fraction(self):
        assert str(Fraction(-7, 2)) == "-7/2"

    def test_parse_round_trip(self):
        for text in ("3", "-7/2", "0", "1/100000000"):
            assert str(as_fraction(text)) == text
        assert as_fraction(5) == Fraction(5)


class TestGeometryJson:
    def test_point_round_trip(self):
        p = pt("-3/7", "22")
        assert parse_point(["-3/7", "22"]) == p

    def test_polygon_round_trip(self):
        region = poly((0, 0), (1, 0), (1, 1), (0, 1))
        data = polygon_to_json(region)
        assert data == [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
        assert parse_polygon(data) == region

    def test_point_set_round_trip(self):
        ps = PointSet.from_coords([(0, 0), ("1/2", -1)])
        assert parse_feasible({"points": [["0", "0"], ["1/2", "-1"]]}) == ps

    def test_feasible_polygon_round_trip(self):
        region = poly((0, 0), (2, 0), (0, 2))
        assert parse_feasible({"polygon": polygon_to_json(region)}) == region

    def test_golden_file_matches_computed_polygon(self):
        from errdiff.verify import load_golden_polygon

        golden = load_golden_polygon(None)
        assert len(golden.vertices) == 7
        assert golden.vertices[0] == pt(-3, "-7/2")


class TestCollectionFiles:
    def test_round_trip(self, tmp_path, ring_family):
        col = Collection(ring_family, "perfect")
        ring = [["-1", "-1"], ["0", "-1"], ["1", "-1"], ["1", "0"],
                ["1", "1"], ["0", "1"], ["-1", "1"], ["-1", "0"]]
        doc = {
            "mode": "perfect",
            "sets": [
                {"points": ring},
                {"points": [p for p in ring if p != ["0", "-1"]]},
                {"points": [p for p in ring if p not in (["0", "-1"], ["-1", "-1"])]},
            ],
        }
        path = tmp_path / "collection.json"
        path.write_text(json.dumps(doc))
        assert load_collection(path) == col

    def test_mode_default_and_errors(self):
        data = {"sets": [{"points": [["0", "0"]]}]}
        assert parse_collection(data).mode == "perfect"
        with pytest.raises(ValueError):
            parse_collection({"mode": "perfect"})
        with pytest.raises(ValueError):
            parse_feasible({"blob": []})


SCENARIO = {
    "horizon": 20,
    "seed": 9,
    "step_ms": 100,
    "resources": [
        {
            "id": "heater1",
            "kind": "heater",
            "prediction": "perfect",
            "diffusion": True,
            "powers": ["15000"],
            "t_min": "19",
            "t_max": "22",
            "lock_steps": 10,
            "thermal": {"leak": "1/100", "gain": "1/20000", "t_out": "8"},
            "initial_temps": ["20"],
            "policy": {
                "cost": {"kind": "quadratic", "center": ["-7500", "0"], "curvature": "1"},
                "step_size": "1/4",
            },
        },
        {
            "id": "pv1",
            "kind": "pv",
            "prediction": "persistent",
            "p_max": "1",
            "tan_phi": "1",
            "availability": {"kind": "square", "period": 6, "low": "0", "high": "1"},
            "policy": {"cost": {"kind": "maximize_p"}, "step_size": "1/4"},
        },
    ],
}


class TestScenarioFiles:
    def test_parse_full_scenario(self):
        scenario = parse_scenario(SCENARIO)
        assert scenario.horizon == 20
        assert [r.resource_id for r in scenario.resources] == ["heater1", "pv1"]
        heater, pv = scenario.resources
        assert heater.params.powers == (Fraction(15000),)
        assert heater.params.lock_steps == 10
        assert pv.params.tan_phi == 1
        assert pv.prediction == "persistent"

    def test_scenario_runs_from_file(self, tmp_path):
        from errdiff.simulate import run_scenario

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO))
        result = run_scenario(load_scenario(path))
        assert set(result.traces) == {"heater1", "pv1"}

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario({"horizon": 5, "resources": [{"kind": "battery", "id": "b"}]})
        bad = json.loads(json.dumps(SCENARIO))
        bad["resources"][1]["availability"] = {"kind": "sine"}
        with pytest.raises(ValueError):
            parse_scenario(bad)
        bad = json.loads(json.dumps(SCENARIO))
        bad["resources"][0]["policy"]["cost"]["kind"] = "cubic"
        with pytest.raises(ValueError):
            parse_scenario(bad)


HEATER = PointSet((pt(-15, 0), pt(0, 0)))  # consumption setpoints, embedded at Q=0


class TestTraceExport:
    def test_csv_round_trip_values(self, tmp_path):
        trace = run_trace("perfect", lambda n: HEATER, fixed_request(pt("-15/2", 0)), 4)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "n,set_id,x_p,x_q,y_p,y_q,e_p,e_q,"
            "x_p_float,x_q_float,y_p_float,y_q_float,e_p_float,e_q_float"
        )
        set_id = feasible_set_id(HEATER)
        assert lines[1] == f"0,{set_id},-15/2,0,-15,0,0,0,-7.5,0.0,-15.0,0.0,0.0,0.0"
        assert lines[2] == f"1,{set_id},-15/2,0,0,0,15/2,0,-7.5,0.0,0.0,0.0,7.5,0.0"
        assert len(lines) == 5

    def test_set_id_distinguishes_sets(self):
        a = feasible_set_id(HEATER)
        b = feasible_set_id(PointSet((pt(0, 0),)))
        c = feasible_set_id(poly((0, 0), (1, 0), (0, 1)))
        assert len({a, b, c}) == 3
