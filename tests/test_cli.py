import csv
import io
import json
from fractions import Fraction
from importlib import resources as importlib_resources

import pytest

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

    def test_no_rounding_and_epsilon_flags(self, collection_file):
        assert (
            main(
                [
                    "compute-invariant",
                    "--collection",
                    str(collection_file),
                    "--no-rounding",
                    "--epsilon",
                    "1/1000",
                ]
            )
            == 0
        )


STALL_COLLECTION = {
    "mode": "perfect",
    "sets": [
        {"points": [["-2", "-5"], ["-2", "1"]]},
        {"points": [["5", "0"]]},
        {"points": [["-5", "3"], ["1", "-3"], ["4", "1"]]},
    ],
}
CYCLE_COLLECTION = {"mode": "perfect", "sets": [{"points": [["-2", "-5"], ["-2", "-1"], ["0", "-4"]]}]}


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

    def test_rounding_stall(self, tmp_path, capsys):
        path = _write(tmp_path, "stall.json", STALL_COLLECTION)
        assert self._run(path, tmp_path, capsys, "--epsilon", "1/10") == (2, "rounding-stall")

    def test_cycle(self, tmp_path, capsys):
        # Rounding at 1/10 maps the second iterate to a third and back.
        path = _write(tmp_path, "cycle.json", CYCLE_COLLECTION)
        assert self._run(path, tmp_path, capsys, "--epsilon", "1/10") == (2, "cycle")

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

    def test_three_coordinate_seed(self, collection_file, capsys):
        assert "--q0" in self._compute(capsys, collection_file, "--q0", "1,2,3")

    def test_non_rational_epsilon(self, collection_file, capsys):
        assert "'abc'" in self._compute(capsys, collection_file, "--epsilon", "abc")

    def test_heater_without_a_temperature_per_room(self, tmp_path, capsys):
        scenario = json.loads(json.dumps(SCENARIO))
        scenario["resources"][0]["initial_temps"] = ["20", "21"]
        path = _write(tmp_path, "s.json", scenario)
        argv = ["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]
        assert "one initial state per room" in self._fails(capsys, argv)

    def test_missing_scenario_file(self, tmp_path, capsys):
        argv = ["simulate", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
        assert "No such file" in self._fails(capsys, argv)


class TestSimulate:
    def test_outputs_and_determinism(self, scenario_file, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out_a)]) == 0
        assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out_b)]) == 0
        metrics = json.loads((out_a / "metrics.json").read_text())
        assert metrics["resources"]["heater"]["bound_satisfied"] is True
        assert (out_a / "heater_trace.csv").read_bytes() == (out_b / "heater_trace.csv").read_bytes()
        rows = list(csv.DictReader((out_a / "heater_trace.csv").open()))
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
