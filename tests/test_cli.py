import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import errdiff
import fraction_kernel as oracle
from errdiff import cli
from errdiff.cli import main
from errdiff.geometry import ConvexPolygon, Point2
from errdiff.operators import check_invariance
from errdiff.serialize import load_collection, parse_polygon


GRID8_COLLECTION = {
    "mode": "perfect",
    "sets": [{"points": [[str(x), str(y)] for x in (-1, 1, 3, 5) for y in (-1, 1)]}],
}

SCENARIO = {
    "horizon": 40,
    "seed": 2,
    "resources": [
        {
            "id": "heater",
            "kind": "heater",
            "powers": ["15000"],
            "t_min": "19",
            "t_max": "22",
            "lock_steps": 5,
            "thermal": {"leak": "1/100", "gain": "1/20000", "t_out": "8"},
            "initial_temps": ["20"],
            "policy": {
                "cost": {"kind": "quadratic", "center": ["-7500", "0"], "curvature": "1"},
                "step_size": "1/4",
            },
        }
    ],
}


def _pv(availability=None, **extra) -> dict:
    """A PV resource entry on a square wave unless ``availability`` is given."""
    return {
        "id": "pv",
        "kind": "pv",
        "p_max": "1",
        "tan_phi": "1",
        "availability": availability or {"kind": "square", "period": 4, "low": "0", "high": "1"},
        "policy": {"cost": {"kind": "maximize_p"}},
        **extra,
    }


def _heater(**extra) -> dict:
    """The heater entry of SCENARIO with ``extra`` fields set."""
    return {**SCENARIO["resources"][0], **extra}


def _pv_scenario(availability: dict) -> dict:
    return {"horizon": 4, "resources": [_pv(availability)]}


@pytest.fixture
def collection_file(tmp_path):
    path = tmp_path / "collection.json"
    path.write_text(json.dumps(GRID8_COLLECTION))
    return path


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


class TestComputeInvariant:
    def test_grid8_run(self, collection_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            ["compute-invariant", "--collection", str(collection_file), "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged: True" in printed
        assert "iterations: 1" in printed
        data = json.loads(out.read_text())
        assert data["converged"] is True
        assert data["vertices"] == [["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]]

    def test_iteration_log_lines(self, collection_file, capsys):
        main(["compute-invariant", "--collection", str(collection_file)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("iteration 0: vertices=1")
        assert any(line.startswith("iteration 1: vertices=4") for line in lines)

    def test_budget_exhaustion_exit_code(self, collection_file):
        code = main(
            [
                "compute-invariant",
                "--collection",
                str(collection_file),
                "--max-iters",
                "0",
            ]
        )
        assert code == 2


STALL_COLLECTION = {
    "mode": "perfect",
    "sets": [
        {"points": [["-2", "-5"], ["-2", "1"]]},
        {"points": [["5", "0"]]},
        {"points": [["-5", "3"], ["1", "-3"], ["4", "1"]]},
    ],
}
DATA = Path(__file__).resolve().parent / "data"
# The paper's three-set family: the 8-point ring, without (0, -1), without (-1, -1) too.
FAMILY3_COLLECTION = json.loads((DATA / "family3.json").read_text())


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


class TestStopStatus:
    """Each status the CLI can report, with its line, JSON key and exit code,
    and the exact gap it prints and writes."""

    def _run(self, path, tmp_path, capsys, *extra):
        out = tmp_path / "result.json"
        code = main(["compute-invariant", "--collection", str(path), "--out", str(out), *extra])
        printed = capsys.readouterr().out.splitlines()
        doc = json.loads(out.read_text())
        assert f"status: {doc['status']}" in printed
        assert f"gap: {doc['gap']}" in printed
        return code, doc["status"], doc["gap"]

    def test_converged(self, collection_file, tmp_path, capsys):
        assert self._run(collection_file, tmp_path, capsys) == (0, "converged", "0")

    def test_extrapolated(self, tmp_path, capsys):
        path = _write(tmp_path, "family3.json", FAMILY3_COLLECTION)
        assert self._run(path, tmp_path, capsys) == (0, "extrapolated", "65536/15625")

    def test_budget(self, tmp_path, capsys):
        path = _write(tmp_path, "stall.json", STALL_COLLECTION)
        assert self._run(path, tmp_path, capsys, "--max-iters", "1") == (2, "budget", None)


def test_seed_off_the_origin(tmp_path, capsys):
    """The seed (3, -2) and the first iterate do not hold the origin, so
    their fattened regions need not contain a member's hull and every
    Voronoi vertex is tested.  Each iterate is the Fraction oracle's, and
    the answer is invariant."""
    path = _write(tmp_path, "family3.json", FAMILY3_COLLECTION)
    out = tmp_path / "result.json"
    argv = ["compute-invariant", "--collection", str(path), "--q0", "3,-2", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert (doc["status"], doc["iterations"]) == ("extrapolated", 11)
    assert doc["vertex_counts"] == [1, 4, 5, 7, 8, 7, 9, 8, 9, 8, 9, 8]
    collection = load_collection(path)
    region = ConvexPolygon((Point2(3, -2),))
    for k, digest in enumerate(doc["history_hashes"]):
        if k:
            region = oracle.apply_collection(collection, region)
        assert digest == oracle.digest(region)
        assert oracle.contains_point(region, Point2(0, 0)) == (k > 1)
    assert check_invariance(collection, parse_polygon(doc["vertices"]))


# Files the exit-status table names by key, written to a temporary directory.
_TABLE_FILES = {
    "grid8.json": GRID8_COLLECTION,
    "family3.json": FAMILY3_COLLECTION,
    "stall.json": STALL_COLLECTION,
    "scenario.json": SCENARIO,
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compute-invariant", "--collection", "grid8.json"], 0),
        (["compute-invariant", "--collection", "family3.json"], 0),
        (["compute-invariant", "--collection", "stall.json", "--max-iters", "1"], 2),
        (["compute-invariant"], 1),
        (["compute-invariant", "--collection", "grid8.json", "--max-iters", "abc"], 1),
        (["compute-invariant", "--collection", "grid8.json", "--mode", "bogus"], 1),
        (["simulate", "--scenario", "scenario.json"], 1),
        (["bogus"], 1),
        ([], 1),
    ],
    ids=[
        "converged", "extrapolated", "budget", "missing-collection", "max-iters-abc",
        "mode-bogus", "simulate-without-out", "unknown-subcommand", "empty-argv",
    ],
)
def test_exit_status(argv, code, tmp_path, capsys):
    """0 for a certified set, 2 for a run that stopped short, 1 for any malformed
    command line, which argparse rejects with the same one line as a bad file."""
    for name, doc in _TABLE_FILES.items():
        _write(tmp_path, name, doc)
    argv = [str(tmp_path / word) if word in _TABLE_FILES else word for word in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 1:
        (line,) = captured.err.splitlines()
        assert line.startswith("errdiff: error: ")
        assert captured.out == ""
    else:
        assert captured.err == ""
        assert f"converged: {code == 0}" in captured.out.splitlines()


def test_parser_is_built_once_per_process(collection_file, monkeypatch, capsys):
    argv = ["compute-invariant", "--collection", str(collection_file)]
    assert main(argv) == 0  # builds the parser unless an earlier call did
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(
        cli._Parser, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw)
    )
    assert main(argv) == 0
    assert built == []


class TestMalformedInput:
    """Bad input files and options end in one stderr line and exit 1."""

    def _fails(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("errdiff: error: ")
        assert captured.out == ""
        return line

    def _compute(self, capsys, path, *extra):
        return self._fails(capsys, ["compute-invariant", "--collection", str(path), *extra])

    def test_missing_collection_file(self, tmp_path, capsys):
        assert "No such file" in self._compute(capsys, tmp_path / "absent.json")

    def test_collection_not_json(self, tmp_path, capsys):
        self._compute(capsys, _write(tmp_path, "c.json", "not json {"))

    def test_collection_without_sets(self, tmp_path, capsys):
        line = self._compute(capsys, _write(tmp_path, "c.json", {"points": []}))
        assert "'sets'" in line

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([GRID8_COLLECTION], "collection must be a JSON object, got list"),
            ({"sets": "x"}, "'sets' must be a JSON list, got str"),
            ({"sets": {"points": 1}}, "'sets' must be a JSON list, got dict"),
            ({"sets": [1]}, "feasible set must be a JSON object, got int"),
            ({"sets": [{"points": 1}]}, "'points' must be a JSON list, got int"),
            ({"sets": [{"polygon": {"a": 1}}]}, "'polygon' must be a JSON list, got dict"),
            (
                {"sets": [{"points": [["0", "0"]], "polygon": [["1", "0"]]}]},
                "feasible set needs exactly one of 'points' and 'polygon'",
            ),
            ({"sets": [{"polygon": []}]}, "a convex polygon needs at least one vertex"),
        ],
        ids=[
            "document-not-object", "sets-string", "sets-object", "member-not-object",
            "points-number", "polygon-object", "points-and-polygon", "polygon-empty",
        ],
    )
    def test_collection_shape(self, doc, message, tmp_path, capsys):
        line = self._compute(capsys, _write(tmp_path, "c.json", doc))
        assert line.endswith(message)

    def test_zero_denominator(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", {"sets": [{"points": [["1/0", "0"]]}]})
        assert "zero denominator" in self._compute(capsys, path)

    def test_boolean_coordinate(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", {"sets": [{"points": [[True, "0"]]}]})
        assert "expected a rational value, got bool" in self._compute(capsys, path)

    @pytest.mark.parametrize("exponent", ["1e10000000", "1E-10000000"])
    def test_exponent_beyond_the_digit_limit(self, exponent, digit_limit, tmp_path, capsys):
        """Fraction would spend seconds on the power of ten; the reader refuses it at once."""
        path = _write(tmp_path, "c.json", {"sets": [{"points": [["0", exponent]]}]})
        line = self._compute(capsys, path)
        assert line.endswith(f"exponent in {exponent!r} exceeds 4300, the integer string digit limit")

    def test_three_coordinate_seed(self, collection_file, capsys):
        assert "--q0" in self._compute(capsys, collection_file, "--q0", "1,2,3")

    def test_negative_iteration_budget(self, collection_file, capsys):
        line = self._compute(capsys, collection_file, "--max-iters", "-1")
        assert line == "errdiff: error: iteration options: max_iterations must be non-negative"

    def test_heater_without_a_temperature_per_room(self, tmp_path, capsys):
        scenario = json.loads(json.dumps(SCENARIO))
        scenario["resources"][0]["initial_temps"] = ["20", "21"]
        path = _write(tmp_path, "s.json", scenario)
        argv = ["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]
        assert "one initial state per room" in self._fails(capsys, argv)

    def test_unwritable_compute_invariant_out(self, collection_file, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.json"
        line = self._compute(capsys, collection_file, "--out", str(out))
        assert f"--out {out}" in line and "No such file" in line

    @pytest.mark.parametrize("command", ["simulate", "plot-data"])
    def test_unwritable_out_directory(self, command, scenario_file, tmp_path, capsys):
        taken = _write(tmp_path, "taken", "a file, not a directory")
        out = taken if command == "simulate" else taken / "sub"
        argv = [command, "--scenario", str(scenario_file), "--out", str(out)]
        assert f"--out {out}" in self._fails(capsys, argv)

    def test_missing_scenario_file(self, tmp_path, capsys):
        argv = ["simulate", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
        assert "No such file" in self._fails(capsys, argv)

    def _scenario(self, capsys, tmp_path, doc):
        out = tmp_path / "o"
        path = _write(tmp_path, "s.json", doc)
        line = self._fails(capsys, ["simulate", "--scenario", str(path), "--out", str(out)])
        assert not out.exists()  # rejected while reading, before any step runs
        return line

    @pytest.mark.parametrize(
        "doc, what",
        [
            ([SCENARIO], "scenario"),
            ({**SCENARIO, "resources": ["heater"]}, "resource"),
            ({"horizon": 4, "resources": [_pv("square")]}, "availability"),
        ],
    )
    def test_non_object_entry(self, doc, what, tmp_path, capsys):
        assert f"{what} must be a JSON object" in self._scenario(capsys, tmp_path, doc)

    @pytest.mark.parametrize(
        "resource", [{**SCENARIO["resources"][0], "prediction": "bogus"}, _pv(prediction="bogus")]
    )
    def test_unknown_prediction(self, resource, tmp_path, capsys):
        line = self._scenario(capsys, tmp_path, {"horizon": 4, "resources": [resource]})
        assert "prediction must be one of" in line

    @pytest.mark.parametrize(
        "availability",
        [
            {"kind": "square", "period": 4, "low": "-1", "high": "1"},
            {"kind": "constant", "value": "-1/2"},
            {"kind": "random", "low": "0", "high": "-1"},
        ],
    )
    def test_negative_availability_level(self, availability, tmp_path, capsys):
        line = self._scenario(capsys, tmp_path, {"horizon": 4, "resources": [_pv(availability)]})
        assert "availability levels must be non-negative" in line

    def test_zero_availability_denominator(self, tmp_path, capsys):
        availability = {"kind": "random", "low": "0", "high": "1", "denominator": 0}
        line = self._scenario(capsys, tmp_path, {"horizon": 4, "resources": [_pv(availability)]})
        assert "denominator must be at least 1" in line

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({**SCENARIO, "horizon": 3.7}, "horizon"),
            ({**SCENARIO, "horizon": True}, "horizon"),
            ({**SCENARIO, "seed": "2"}, "seed"),
            ({**SCENARIO, "step_ms": 100.0}, "step_ms"),
            ({**SCENARIO, "resources": [_heater(lock_steps=5.9)]}, "lock_steps"),
            (_pv_scenario({"kind": "square", "period": 4.0, "low": "0", "high": "1"}), "period"),
            (
                _pv_scenario({"kind": "random", "low": "0", "high": "1", "denominator": 2.9}),
                "denominator",
            ),
        ],
    )
    def test_non_integer_field(self, doc, field, tmp_path, capsys):
        line = self._scenario(capsys, tmp_path, doc)
        assert f"'{field}' must be a JSON integer" in line

    def test_boolean_rational_field(self, tmp_path, capsys):
        line = self._scenario(capsys, tmp_path, {**SCENARIO, "resources": [_heater(t_min=True)]})
        assert "expected a rational value, got bool" in line

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({**SCENARIO, "resources": [_heater(diffusion="false")]}, "diffusion"),
            ({"horizon": 4, "resources": [_pv(diffusion=0)]}, "diffusion"),
            ({**SCENARIO, "resources": [_heater(initial_on=["false"])]}, "initial_on"),
            ({**SCENARIO, "resources": [_heater(initial_on=[1])]}, "initial_on"),
        ],
    )
    def test_non_boolean_field(self, doc, field, tmp_path, capsys):
        line = self._scenario(capsys, tmp_path, doc)
        assert f"'{field}' must be a JSON boolean" in line

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {**SCENARIO, "resources": [_heater(powers="12", initial_temps=["20", "21"])]},
                "'powers' must be a JSON list, got str",
            ),
            (
                {**SCENARIO, "resources": [_heater(initial_temps=20)]},
                "'initial_temps' must be a JSON list, got int",
            ),
            (
                {**SCENARIO, "resources": [_heater(initial_on=True)]},
                "'initial_on' must be a JSON list, got bool",
            ),
            ({**SCENARIO, "resources": 5}, "'resources' must be a JSON list, got int"),
            ({**SCENARIO, "resources": [_heater(id=5)]}, "'id' must be a JSON string, got 5"),
            ({"horizon": 4, "resources": [_pv(id=["pv"])]}, "'id' must be a JSON string, got ['pv']"),
        ],
        ids=[
            "powers-string", "initial-temps-number", "initial-on-boolean", "resources-number",
            "heater-id-number", "pv-id-list",
        ],
    )
    def test_field_of_wrong_json_type(self, doc, message, tmp_path, capsys):
        assert self._scenario(capsys, tmp_path, doc).endswith(message)

    @pytest.mark.parametrize("command", ["simulate", "plot-data"])
    def test_no_diffusion_unknown_resource(self, command, scenario_file, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [command, "--scenario", str(scenario_file), "--out", str(out),
                "--no-diffusion", "heater", "bogus"]
        line = self._fails(capsys, argv)
        assert line == "errdiff: error: --no-diffusion: unknown resources: bogus"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "plot-data"])
    @pytest.mark.parametrize(
        "rid",
        ["../escaped", "{tmp}/absolute", "a/b", "", ".", "..", "a\\b", "a\0b"],
        ids=["parent", "absolute", "nested", "empty", "dot", "dot-dot", "backslash", "nul"],
    )
    def test_resource_id_that_is_not_a_file_name(self, command, rid, tmp_path, capsys):
        rid = rid.format(tmp=tmp_path)
        out = tmp_path / "o"
        path = _write(tmp_path, "s.json", {**SCENARIO, "resources": [_heater(id=rid)]})
        line = self._fails(capsys, [command, "--scenario", str(path), "--out", str(out)])
        assert f"resource id {rid!r}" in line
        # Nothing is written, inside --out or beside it.
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    @pytest.mark.parametrize("command", ["simulate", "plot-data"])
    def test_heater_power_beyond_the_float_range(self, command, tmp_path, capsys):
        """A power of 1e400 is a rational the parser takes, but its setpoints
        have no float column; the run ends in one line, not a traceback."""
        scenario = json.loads((DATA / "closed_loop_seed1.json").read_text())
        scenario["horizon"] = 30
        scenario["resources"][0]["powers"][2] = "1e400"
        path = _write(tmp_path, "s.json", scenario)
        line = self._fails(capsys, [command, "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert "beyond the float range" in line

    @pytest.mark.parametrize("command", ["simulate", "plot-data"])
    @pytest.mark.parametrize("heater_at", ["first", "last"])
    def test_value_beyond_the_float_range_leaves_no_out(self, command, heater_at, tmp_path, capsys):
        """Every file is formatted before --out is made, so the failing run
        leaves no directory, nor the files of the resources listed before the
        heater whose column cannot be written."""
        scenario = json.loads((DATA / "closed_loop_seed1.json").read_text())
        scenario["horizon"] = 30
        heater = scenario["resources"].pop(0)
        heater["powers"][2] = "1e400"
        scenario["resources"].insert(0 if heater_at == "first" else 2, heater)
        path = _write(tmp_path, "s.json", scenario)
        out = tmp_path / "o"
        line = self._fails(capsys, [command, "--scenario", str(path), "--out", str(out)])
        assert "beyond the float range" in line
        assert not out.exists()

    def test_coordinates_beyond_the_float_range_still_solve(self, tmp_path, capsys):
        """compute-invariant writes exact strings only, so 1e400 coordinates run."""
        doc = {"sets": [{"points": [["0", "0"], ["1e400", "0"]]}, {"polygon": [["0", "1e400"]]}]}
        path = _write(tmp_path, "c.json", doc)
        assert main(["compute-invariant", "--collection", str(path), "--q0", "1e400,0"]) == 0
        assert capsys.readouterr().err == ""


class TestSimulate:
    def test_outputs_and_determinism(self, scenario_file, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out_a)]) == 0
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out_b)]) == 0
        metrics = json.loads((out_a / "metrics.json").read_text())
        assert metrics["resources"]["heater"]["bound_satisfied"] is True
        assert (out_a / "heater_trace.csv").read_bytes() == (out_b / "heater_trace.csv").read_bytes()
        rows = list(csv.DictReader((out_a / "heater_trace.csv").read_text().splitlines()))
        assert len(rows) == 40

    def test_no_diffusion_flag(self, scenario_file, tmp_path):
        out = tmp_path / "nd"
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    str(scenario_file),
                    "--out",
                    str(out),
                    "--no-diffusion",
                    "heater",
                ]
            )
            == 0
        )
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["diffusion"] == {"heater": False}

    def test_plot_data(self, scenario_file, tmp_path):
        out = tmp_path / "plots"
        assert main(["plot-data", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["files"]) == 3
        assert (out / "heater_setpoints.csv").exists()


def _digest(out: Path) -> str:
    """sha256 over the sorted output files, each as name, NUL, bytes."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "command, seed, expected",
    [
        ("simulate", 1, "10c46af1505a55074155fbddf3b580d6040513e154d8de76ef50a2fa74bc3a86"),
        ("plot-data", 1, "6c0c379150fca03b67e16c5be9a964deb02d3e1a3063cfd50ea7a4c8c9cf3131"),
        ("simulate", 2, "d4229f6ffbde52cb17bc1199079336fd87dceb2d1e45961f4cad47be32f339f6"),
        ("plot-data", 2, "94d52f679689ea73a94512fe6f470679477d34c0b67e7cc2fdc522b3e1c4fef7"),
    ],
    ids=["simulate-seed1", "plot-data-seed1", "simulate-seed2", "plot-data-seed2"],
)
def test_closed_loop_outputs_are_pinned(command, seed, expected, tmp_path, capsys):
    """The benchmark's closed-loop scenario (heaters and two PV units, 2000 steps) byte for byte."""
    out = tmp_path / "out"
    scenario = DATA / f"closed_loop_seed{seed}.json"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == 0
    assert _digest(out) == expected


def test_closed_loop_without_diffusion_is_pinned(tmp_path, capsys):
    """The same scenario with diffusion off for the heaters and the random PV unit."""
    out = tmp_path / "out"
    scenario = DATA / "closed_loop_seed1.json"
    argv = ["simulate", "--scenario", str(scenario), "--out", str(out)]
    assert main(argv + ["--no-diffusion", "heaters", "pv_random"]) == 0
    assert _digest(out) == "68d07443cd94fa8c11920e0b101f44b0b55ff5f1493fea425e972ac4d331f61f"


def test_plot_data_without_diffusion_is_pinned(tmp_path, capsys):
    """The three plot series of the same run, with its unbounded errors."""
    out = tmp_path / "out"
    scenario = DATA / "closed_loop_seed1.json"
    argv = ["plot-data", "--scenario", str(scenario), "--out", str(out)]
    assert main(argv + ["--no-diffusion", "heaters", "pv_random"]) == 0
    assert _digest(out) == "b6e55ca4b41347d624416d876470f6136675067d2d1b4f1515fa23a5d17d9506"


@pytest.mark.parametrize(
    "collection, expected",
    [(FAMILY3_COLLECTION, "251fb713d7775851ff05fc5704a75080daccd9767b42af40b7a9c64f56af334b")],
    ids=["family3"],
)
def test_compute_invariant_outputs_are_pinned(collection, expected, tmp_path, capsys):
    """The --out document byte for byte: vertices, status, gap, digests and vertex counts."""
    out = tmp_path / "result.json"
    path = _write(tmp_path, "collection.json", collection)
    main(["compute-invariant", "--collection", str(path), "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


# A point set and a triangle, every coordinate a 'p/q' string.
FRACTIONAL_COLLECTION = {
    "mode": "perfect",
    "sets": [
        {"points": [["-2/3", "-1/2"], ["1/3", "-1/2"], ["2/3", "1/4"], ["-1/3", "3/4"]]},
        {"polygon": [["-1/2", "-2/3"], ["5/6", "-1/3"], ["1/6", "2/3"]]},
    ],
}
FRACTIONAL_STDOUT = (
    "iteration 0: vertices=1\n"
    "iteration 1: vertices=9\n"
    "iteration 2: vertices=7\n"
    "iteration 3: vertices=11\n"
    "iteration 4: vertices=8\n"
    "iteration 5: vertices=11\n"
    "iteration 6: vertices=8\n"
    "iteration 7: vertices=11\n"
    "iteration 8: vertices=8\n"
    "iteration 9: vertices=11\n"
    "iteration 10: vertices=8\n"
    "iteration 11: vertices=11\n"
    "iteration 12: vertices=8\n"
    "converged: True\n"
    "status: extrapolated\n"
    "iterations: 12\n"
    "gap: 15530217148088529850914884663144180875264/3858767640916609392455230188775634765625\n"
    "invariant set vertices (exact):\n"
    "  -269/84 31/168\n"
    "  -1/2 -2\n"
    "  1/2 -2\n"
    "  386/291 -109/776\n"
    "  15/16 5/8\n"
    "  -1/16 9/8\n"
    "  -241/84 241/168\n"
)


@pytest.mark.parametrize(
    "collection, expected",
    [
        (FAMILY3_COLLECTION, (DATA / "family3.stdout").read_text()),
        (FRACTIONAL_COLLECTION, FRACTIONAL_STDOUT),
    ],
    ids=["family3", "fractional"],
)
def test_compute_invariant_stdout_is_pinned(collection, expected, tmp_path, capsys):
    """The printed report byte for byte: vertex counts, status, gap and the
    exact vertex lines, written from the answer's triples."""
    path = _write(tmp_path, "collection.json", collection)
    assert main(["compute-invariant", "--collection", str(path)]) == 0
    assert capsys.readouterr().out == expected


COLLINEAR_COLLECTION = {
    "mode": "persistent",
    "sets": [
        {"points": [["0", "0"], ["3", "0"], ["5", "0"], ["8", "0"]]},
        {"points": [["0", "0"], ["5", "0"], ["6", "0"]]},
    ],
}


def _outputs_under_hash_seeds(argv, tmp_path) -> list[dict[str, bytes]]:
    """Run ``python -m errdiff.cli *argv --out OUT`` in a fresh interpreter
    under PYTHONHASHSEED 0 and then 1; the bytes each run wrote to OUT, a
    file or a directory, by file name."""
    written = []
    for seed in (0, 1):
        out = tmp_path / f"hashseed{seed}"
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(errdiff.__file__).parents[1]),
            "PYTHONHASHSEED": str(seed),
        }
        subprocess.run(
            [sys.executable, "-m", "errdiff.cli", *argv, "--out", str(out)],
            capture_output=True, check=True, env=env,
        )
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        written.append({path.name: path.read_bytes() for path in files})
    return written


def test_simulate_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Set and dict order must not reach the output of a closed-loop run."""
    argv = ["simulate", "--scenario", str(DATA / "closed_loop_seed1.json")]
    first, second = _outputs_under_hash_seeds(argv, tmp_path)
    assert sorted(first) == ["heaters_trace.csv", "metrics.json", "pv_random_trace.csv", "pv_square_trace.csv"]
    assert first == second


@pytest.mark.parametrize(
    "collection", [FAMILY3_COLLECTION, COLLINEAR_COLLECTION], ids=["ring-family", "collinear"]
)
def test_compute_invariant_bytes_do_not_depend_on_the_hash_seed(collection, tmp_path):
    """The hull deduplicates through a set of triples, and the members' cell
    tables are keyed by hash; neither order may reach the --out document."""
    path = _write(tmp_path, "collection.json", collection)
    argv = ["compute-invariant", "--collection", str(path)]
    first, second = _outputs_under_hash_seeds(argv, tmp_path)
    assert json.loads(first["hashseed0"])["status"] in ("converged", "extrapolated")
    assert list(first.values()) == list(second.values())


def test_cli_imports_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import errdiff.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'errdiff'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(errdiff.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "[]"


# Run in a fresh interpreter: reports which deferred errdiff modules are
# registered and which have run their bodies after each command.
# object.__getattribute__ reads a module's namespace without starting its load.
_LAZY_PROBE = """
import contextlib, io, json, sys
import errdiff.cli

DEFERRED = ("certificate", "dynamics", "resources", "simulate", "verify")
collection, scenario, out = sys.argv[1:]
report = {}

def state(label, code=None):
    ran = [n for n in DEFERRED
           if "__builtins__" in object.__getattribute__(sys.modules["errdiff." + n], "__dict__")]
    report[label] = {"code": code, "ran": ran,
                     "registered": all("errdiff." + n in sys.modules for n in DEFERRED)}

def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = errdiff.cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()

state("import")
code, _, _ = run(["compute-invariant", "--collection", collection])
state("compute-invariant", code)
code, _, _ = run(["simulate", "--scenario", scenario, "--out", out])
state("simulate", code)
code, listed, _ = run(["verify", "--list"])
report["list"] = {"code": code, "out": listed.splitlines()}
code, _, err = run(["verify", "--only", "bogus"])
report["bogus"] = {"code": code, "err": err.splitlines()}
print(json.dumps(report))
"""


def test_deferred_modules_run_only_when_a_command_uses_them(tmp_path):
    collection = _write(tmp_path, "collection.json", GRID8_COLLECTION)
    scenario = _write(tmp_path, "scenario.json", {**SCENARIO, "resources": [_heater(), _pv()]})
    env = {**os.environ, "PYTHONPATH": str(Path(errdiff.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE, str(collection), str(scenario), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(done.stdout)
    assert report["import"] == {"code": None, "ran": [], "registered": True}
    assert report["compute-invariant"] == {"code": 0, "ran": [], "registered": True}
    assert report["simulate"] == {
        "code": 0, "ran": ["dynamics", "resources", "simulate"], "registered": True
    }
    assert report["list"] == {"code": 0, "out": list(errdiff.verify.CHECKS)}
    (line,) = report["bogus"]["err"]
    assert report["bogus"]["code"] == 1
    assert line.startswith("errdiff: error: --only: unknown checks: ['bogus']")


class TestVerify:
    def test_single_check_passes(self, capsys):
        code = main(["verify", "--only", "grid8-one-iteration"])
        out = capsys.readouterr().out
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        rows = list(reader)
        assert rows[0] == ["check", "expected", "got", "status", "seconds"]
        assert rows[1][0] == "grid8-one-iteration"
        assert rows[1][3] == "pass"

    def test_unknown_check_rejected(self, capsys):
        assert main(["verify", "--only", "bogus"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("errdiff: error: --only: unknown checks: ['bogus']")
        assert captured.out == ""

    def test_list_checks(self, capsys):
        assert main(["verify", "--list"]) == 0
        assert "invariant-family3" in capsys.readouterr().out

    def test_perturbed_golden_fails(self, monkeypatch, capsys):
        golden = errdiff.verify.load_golden_polygon()
        first, *rest = golden.vertices
        perturbed = errdiff.convex_hull([errdiff.Point2(first.x + Fraction(1, 1000), first.y), *rest])
        assert perturbed != golden
        monkeypatch.setattr(errdiff.verify, "load_golden_polygon", lambda: perturbed)
        code = main(["verify", "--only", "invariant-family3"])
        assert code == 1
        assert ",FAIL," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "check, bound",
        [("pv-sim-bound", "pv_error_bound_sq"), ("heater-single-bound", "heater_error_bound")],
    )
    def test_quartered_bound_fails(self, check, bound, monkeypatch, capsys):
        original = getattr(errdiff.verify, bound)
        monkeypatch.setattr(errdiff.verify, bound, lambda *args: original(*args) / 4)
        assert main(["verify", "--only", check]) == 1
        (row,) = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        # The run finished and its metrics broke the bound; the check did not crash.
        assert row[0] == check and row[3] == "FAIL" and not row[2].startswith("error:")
