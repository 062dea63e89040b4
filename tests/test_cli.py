import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources as importlib_resources
from pathlib import Path

import pytest

import errdiff
from errdiff.cli import main


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
# The paper's three-set family: the 8-point ring, without (0, -1), without (-1, -1) too.
RING = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)]
FAMILY3_COLLECTION = {
    "mode": "perfect",
    "sets": [
        {"points": [[str(x), str(y)] for x, y in RING if (x, y) not in dropped]}
        for dropped in ((), ((0, -1),), ((0, -1), (-1, -1)))
    ],
}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


class TestStopStatus:
    """Each status the CLI can report, with its line, JSON key and exit code."""

    def _run(self, path, tmp_path, capsys, *extra):
        out = tmp_path / "result.json"
        code = main(["compute-invariant", "--collection", str(path), "--out", str(out), *extra])
        printed = capsys.readouterr().out
        status = json.loads(out.read_text())["status"]
        assert f"status: {status}" in printed.splitlines()
        return code, status

    def test_converged(self, collection_file, tmp_path, capsys):
        assert self._run(collection_file, tmp_path, capsys) == (0, "converged")

    def test_extrapolated(self, tmp_path, capsys):
        path = _write(tmp_path, "family3.json", FAMILY3_COLLECTION)
        assert self._run(path, tmp_path, capsys) == (0, "extrapolated")

    def test_budget(self, tmp_path, capsys):
        path = _write(tmp_path, "stall.json", STALL_COLLECTION)
        assert self._run(path, tmp_path, capsys, "--max-iters", "1") == (2, "budget")


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

    def test_zero_denominator(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", {"sets": [{"points": [["1/0", "0"]]}]})
        assert "zero denominator" in self._compute(capsys, path)

    def test_boolean_coordinate(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", {"sets": [{"points": [[True, "0"]]}]})
        assert "expected a rational value, got bool" in self._compute(capsys, path)

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

    @pytest.mark.parametrize("command", ["simulate", "plot-data"])
    def test_no_diffusion_unknown_resource(self, command, scenario_file, tmp_path, capsys):
        out = tmp_path / "o"
        argv = [command, "--scenario", str(scenario_file), "--out", str(out),
                "--no-diffusion", "heater", "bogus"]
        line = self._fails(capsys, argv)
        assert line == "errdiff: error: --no-diffusion: unknown resources: bogus"
        assert not out.exists()


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


DATA = Path(__file__).resolve().parent / "data"


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
    ],
    ids=["simulate-seed1", "plot-data-seed1", "simulate-seed2"],
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


@pytest.mark.parametrize(
    "collection, expected",
    [(FAMILY3_COLLECTION, "63a4d3278055e1d5298b8567683b75f5579a0b22315ddec88064d715829b2159")],
    ids=["family3"],
)
def test_compute_invariant_outputs_are_pinned(collection, expected, tmp_path, capsys):
    """The --out document byte for byte: vertices, status, digests and vertex counts."""
    out = tmp_path / "result.json"
    path = _write(tmp_path, "collection.json", collection)
    main(["compute-invariant", "--collection", str(path), "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


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

    def test_perturbed_golden_fails(self, tmp_path, capsys):
        golden_dir = tmp_path / "golden"
        golden_dir.mkdir()
        packaged = json.loads(
            (importlib_resources.files("errdiff") / "golden" / "family3_invariant.json").read_text()
        )
        vx, vy = packaged["vertices"][0]
        packaged["vertices"][0] = [str(Fraction(vx) + Fraction(1, 1000)), vy]
        (golden_dir / "family3_invariant.json").write_text(json.dumps(packaged))
        code = main(["verify", "--only", "invariant-family3", "--golden-dir", str(golden_dir)])
        assert code == 1
        assert ",FAIL," in capsys.readouterr().out
