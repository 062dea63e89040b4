import csv
import dataclasses
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernel as oracle
from errdiff.dynamics import fixed_request, run_trace
from errdiff.geometry import Point2, PointSet, _norm, as_fraction
from errdiff.operators import Collection
from errdiff.scenario_io import _columns, _Cells, _csv, _trace_csv, feasible_set_id, parse_scenario
from errdiff.serialize import (
    load_collection,
    load_scenario,
    parse_collection,
    parse_feasible,
    parse_point,
    parse_polygon,
    point_to_json,
    polygon_to_json,
)
from errdiff.simulate import PVSpec, ResourceMetrics

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


def _near_tie(m: int, q: int, delta: int, shift: int) -> Fraction:
    """(2m + 1)/2^shift, a tie between two floats for a 53-bit m, moved by delta/(q*2^shift)."""
    return Fraction((2 * m + 1) * q + delta, q) * Fraction(2) ** -shift


rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(10**6), 10**6).map(Fraction),
    st.fractions(max_denominator=10**6),
    # dyadic: the float is exact when the numerator fits
    st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-(2**60), 2**60), st.integers(0, 1100)),
    # 200-bit numerators and denominators
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
    st.builds(
        _near_tie,
        st.integers(2**52, 2**53 - 1),
        st.sampled_from([1, 3, 5, 1023]),
        st.integers(-2, 2),
        st.integers(-980, 1130),
    ),
)


def _row_of(cells: _Cells):
    """A row builder over one file's cells, laid out as every writer lays out
    its rows: the index columns, each point's exact cell, then each point's
    float cell."""

    def row(index, triples) -> str:
        got = [cells[t] for t in triples]
        return ",".join([*map(str, index), *(c[0] for c in got), *(c[1] for c in got)])

    return row


def _line(row) -> object:
    """A row as one CSV line: its cells as the csv writer renders them (str;
    repr for a float) joined by commas, or OverflowError when a value has no
    float.  A row already formatted as a line is returned as it is."""
    try:
        cells = row()
    except OverflowError:
        return OverflowError
    return cells if isinstance(cells, str) else ",".join(map(str, cells))


class TestFormatter:
    """The writers format from the triples exactly as the Fraction form did."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(rationals, rationals), min_size=1, max_size=3),
        st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=4),
    )
    @example([(Fraction(-3, 6), Fraction(0))], [[0, 0]])
    @example([(Fraction(2**1024), Fraction(1, 3)), (Fraction(1, 3), Fraction(0))], [[1], [0, 1]])
    def test_row_equals_fraction_oracle(self, pairs, rows):
        """Rows of one file pick points by index; the second pass over them
        reads every cell from the memo, and both passes equal the oracle."""
        points = [Point2(x, y) for x, y in pairs]
        row = _row_of(_Cells())
        for picks in rows + rows:
            chosen = [points[i % len(points)] for i in picks]
            got = _line(lambda: row((7, "id"), [p._t for p in chosen]))
            assert got == _line(lambda: oracle.row((7, "id"), oracle.coords(*chosen)))
        for p in points:
            assert point_to_json(p) == [str(p.x), str(p.y)]
            try:
                want = math.sqrt(p.norm2())
            except OverflowError:
                with pytest.raises(OverflowError):
                    _norm(p._t)
            else:
                assert repr(_norm(p._t)) == repr(want)

    def test_norms_are_correctly_rounded(self):
        """sqrt of the float of |e|^2, rounded once: x ** 0.5 gives ...432 here."""
        e = pt(4, Fraction(1, 3))
        assert repr(_norm(e._t)) == "4.013864859597431"
        metrics = ResourceMetrics(1, e.norm2(), e, e, e, 0.0, 1, e.norm2(), True)
        assert repr(metrics.max_error_norm) == "4.013864859597431"

    def test_beyond_float_range_raises_on_both_sides(self):
        huge = Point2(Fraction(3 * 2**1100, 7), Fraction(1))
        row = _row_of(_Cells())
        for _ in range(2):
            with pytest.raises(OverflowError):
                row((0,), [huge._t])
        with pytest.raises(OverflowError):
            oracle.row((0,), oracle.coords(huge))
        assert point_to_json(huge) == [str(huge.x), "1"]


# The real headers of the trace CSV and the three plot series: the number of
# index columns, of points per row, and whether a float norm ends the row.
CSV_SHAPES = [
    (_columns(["n", "set_id"], ["x_p", "x_q", "y_p", "y_q", "e_p", "e_q"]), 2, 3, False),
    (_columns(["n"], ["x_p", "x_q", "y_p", "y_q"]), 1, 2, False),
    (_columns(["n"], ["e_p", "e_q"]) + ["e_norm_float"], 1, 1, True),
    (_columns(["n"], ["xbar_p", "xbar_q", "ybar_p", "ybar_q"]), 1, 2, False),
]
wide_ints = st.integers(-(2**210), 2**210)
csv_values = st.one_of(
    wide_ints.map(Fraction),
    st.builds(Fraction, wide_ints, st.integers(1, 2**210)),
    st.sampled_from([1e-300, 1e300, 0.0, -0.5]).map(Fraction),
)
csv_index = st.one_of(wide_ints, st.text("0123456789abcdef", min_size=12, max_size=12))


class TestCsvWriter:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(CSV_SHAPES),
        st.lists(
            st.tuples(
                st.lists(csv_index, min_size=2, max_size=2),
                st.lists(st.tuples(csv_values, csv_values), min_size=3, max_size=3),
                st.sampled_from([1e-300, 1e300, 0.0, -0.5]),
            ),
            max_size=6,
        ),
    )
    def test_lines_equal_csv_writer(self, shape, rows):
        """The preformatted lines, byte for byte what csv.writer writes from the
        oracle's cells: ints, "n/d" strings and floats."""
        header, n_index, n_points, with_norm = shape
        row = _row_of(_Cells())
        lines, cells = [], []
        for index, pairs, norm in rows:
            index, points = index[:n_index], [Point2(x, y) for x, y in pairs[:n_points]]
            line = row(index, [p._t for p in points])
            want = oracle.row(index, oracle.coords(*points))
            if with_norm:
                line += f",{norm!r}"
                want.append(norm)
            lines.append(line)
            cells.append(want)
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(cells)
        assert _csv(header, lines) == buffer.getvalue()


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

        golden = load_golden_polygon()
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

    def test_absent_keys_take_the_model_defaults(self):
        """A minimal scenario and collection parse equal to ones that give
        every optional key its default."""
        heater = {k: v for k, v in SCENARIO["resources"][0].items() if k not in (
            "prediction", "diffusion", "lock_steps", "thermal")}
        heater["policy"] = {"cost": {"kind": "quadratic", "center": ["-7500", "0"]}}
        pv = {k: v for k, v in SCENARIO["resources"][1].items() if k != "prediction"}
        pv["availability"] = {"kind": "random", "low": "0", "high": "1"}
        pv["policy"] = {"cost": {"kind": "maximize_p"}}
        minimal = {"horizon": 20, "resources": [heater, pv]}
        explicit = {"horizon": 20, "seed": 0, "step_ms": 100, "resources": [
            {**heater, "prediction": "perfect", "diffusion": True, "lock_steps": 0,
             "thermal": {"leak": "1/100", "gain": "0", "t_out": "0"},
             "policy": {"cost": {**heater["policy"]["cost"], "curvature": "1"}, "step_size": "1/2"}},
            {**pv, "prediction": "persistent", "diffusion": True,
             "availability": {**pv["availability"], "denominator": 64},
             "policy": {**pv["policy"], "step_size": "1/2"}},
        ]}
        assert parse_scenario(minimal) == parse_scenario(explicit)
        sets = [{"points": [["0", "0"], ["1", "0"]]}]
        assert parse_collection({"sets": sets}) == parse_collection({"mode": "perfect", "sets": sets})

    @pytest.mark.parametrize("name", ["closed_loop_seed1.json", "closed_loop_seed2.json"])
    def test_two_loads_of_one_file_are_equal_values(self, name):
        """Every availability wave is a frozen value, so two loads of one
        scenario file are equal and hash equal, and a random wave's drawn
        levels take no part in equality."""
        path = Path(__file__).resolve().parent / "data" / name
        first, second = load_scenario(path), load_scenario(path)
        assert first == second and hash(first) == hash(second)
        rng = random.Random(3)
        for spec in first.resources:
            if isinstance(spec, PVSpec):
                for n in range(50):
                    spec.availability(n, rng)
        assert first == second and hash(first) == hash(second)
        assert first != dataclasses.replace(first, seed=first.seed + 1)

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
    def test_csv_round_trip_values(self):
        trace = run_trace("perfect", lambda n: HEATER, fixed_request(pt("-15/2", 0)), 4)
        lines = _trace_csv(trace).splitlines()
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
