"""The closed-loop file formats: scenario files in, and what ``simulate``
and ``plot-data`` write out.

A deferred module (see ``errdiff/__init__``): ``compute-invariant`` never
compiles or runs it.  ``serialize.load_scenario`` reads a scenario file and
hands its document to ``parse_scenario``, which checks it with the JSON
validators it shares with the collection reader in ``serialize``.  Readers
pass on only the optional keys a document gives (``_given``), so no default
is restated, and pass each rational on as the document writes it: the model
it builds converts and checks it, once.

The outputs are the per-resource trace CSVs with ``metrics.json`` that
``write_simulation`` writes and the plot series with ``manifest.json``
that ``emit_plot_data`` writes.  Rationals are written as in ``serialize``,
"p/q" (bare "p" when the denominator is 1).  Writers format points straight
from their integer triples: a coordinate X/W becomes its lowest-terms
string by one gcd and its float by the correctly rounded integer division
X / W, the value float(Fraction(X, W)) has, so no Fraction is built per
cell.  Traces repeat values, so each CSV file formats each distinct triple
once (``_Cells``), and equal steps share one ``StepRecord``, so the
per-step rows of the trace and setpoint files format each distinct
record's row after its index once (``_step_rows``); ``_csv`` joins a
file's lines in the csv module's excel dialect.  Running averages are
summed as triples.  A writer formats the text of every file before
``_write_files`` makes the output directory and writes them, so a float
beyond range leaves no directory and no file behind.  Each resource id
names its files, as its ``Scenario`` checked it.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from . import resources, simulate
from .geometry import ORIGIN, PointSet, Triple, _add, _norm, _rational, _text
from .operators import FeasibleSet
from .serialize import (
    PathLike,
    _given,
    _json_list,
    _json_string,
    _object,
    parse_point,
    point_to_json,
)

if TYPE_CHECKING:
    from .dynamics import ControllerTrace, StepRecord
    from .simulate import (
        Availability,
        CentralPolicy,
        HeaterSpec,
        PVSpec,
        ResourceMetrics,
        Scenario,
        ScenarioResult,
    )


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def _json_integer(value: Any, name: str) -> int:
    """value, checked to be a JSON integer: an int that is not a bool."""
    if type(value) is not int:
        raise ValueError(f"{name!r} must be a JSON integer, got {value!r}")
    return value


def _json_boolean(value: Any, name: str) -> bool:
    """value, checked to be a JSON boolean."""
    if type(value) is not bool:
        raise ValueError(f"{name!r} must be a JSON boolean, got {value!r}")
    return value


def _parse_cost(data: Any):
    kind = _object(data, "cost").get("kind")
    if kind == "quadratic":
        return simulate.QuadraticCost(parse_point(data["center"]), **_given(data, "curvature"))
    if kind == "maximize_p":
        return simulate.MaximizeActivePower()
    raise ValueError(f"unknown cost kind {kind!r}")


def _parse_policy(data: Any) -> CentralPolicy:
    _object(data, "policy")
    return simulate.CentralPolicy(_parse_cost(data["cost"]), **_given(data, "step_size"))


def _parse_availability(data: Any) -> Availability:
    kind = _object(data, "availability").get("kind")
    if kind == "square":
        period = _json_integer(data["period"], "period")
        return simulate.SquareWave(period, data["low"], data["high"])
    if kind == "constant":
        return simulate.ConstantWave(data["value"])
    if kind == "random":
        grid = _given(data, denominator=_json_integer)
        return simulate.RandomWave(data["low"], data["high"], **grid)
    raise ValueError(f"unknown availability kind {kind!r}")


def _resource_fields(data: dict) -> dict:
    """The fields every resource spec reads alike."""
    return {
        "resource_id": _json_string(data["id"], "id"),
        "policy": _parse_policy(data["policy"]),
        **_given(data, prediction=_json_string, diffusion=_json_boolean),
    }


def _parse_heater(data: Any) -> HeaterSpec:
    thermal = _object(data.get("thermal", {}), "thermal")
    params = resources.HeaterParams(
        powers=_json_list(data["powers"], "powers"),
        t_min=data["t_min"],
        t_max=data["t_max"],
        **_given(data, lock_steps=_json_integer),
        **_given(thermal, "leak", "gain", "t_out"),
    )
    temps = _json_list(data["initial_temps"], "initial_temps")
    on = _json_list(data.get("initial_on", [False] * len(temps)), "initial_on")
    initial = resources.HeaterState(
        on=[_json_boolean(v, "initial_on") for v in on],
        lock_remaining=(0,) * len(temps),
        temps=temps,
    )
    return simulate.HeaterSpec(params=params, initial=initial, **_resource_fields(data))


def _parse_pv(data: Any) -> PVSpec:
    params = resources.PVParams(p_max=data["p_max"], tan_phi=data["tan_phi"])
    return simulate.PVSpec(
        params=params,
        availability=_parse_availability(data["availability"]),
        **_resource_fields(data),
    )


def parse_scenario(data: Any) -> Scenario:
    _object(data, "scenario")
    specs = []
    for item in _json_list(data.get("resources", []), "resources"):
        kind = _object(item, "resource").get("kind")
        if kind == "heater":
            specs.append(_parse_heater(item))
        elif kind == "pv":
            specs.append(_parse_pv(item))
        else:
            raise ValueError(f"unknown resource kind {kind!r}")
    return simulate.Scenario(
        horizon=_json_integer(data["horizon"], "horizon"),
        resources=specs,
        **_given(data, seed=_json_integer, step_ms=_json_integer),
    )


# ---------------------------------------------------------------------------
# Closed-loop outputs
# ---------------------------------------------------------------------------


def metrics_to_json(metrics: ResourceMetrics) -> dict:
    """One resource's closed-loop metrics, as in ``metrics.json`` and the plot manifest."""
    return {
        "steps": metrics.steps,
        "max_error_norm": metrics.max_error_norm,
        "max_error_norm2": str(metrics.max_error_norm2),
        "final_error": point_to_json(metrics.final_error),
        "average_requested": point_to_json(metrics.average_requested),
        "average_implemented": point_to_json(metrics.average_implemented),
        "error_slope": metrics.error_slope,
        "stagnation_steps": metrics.stagnation_steps,
        "error_bound_sq": str(metrics.error_bound_sq),
        "bound_satisfied": metrics.bound_satisfied,
    }


def _columns(index: Sequence[str], names: Sequence[str]) -> list[str]:
    return [*index, *names, *(f"{name}_float" for name in names)]


class _Cells(dict):
    """The two cells of each distinct triple of one CSV file: its exact
    "x,y" and its float "xf,yf", formatted on first lookup.

    A coordinate X/W is written in lowest terms by one gcd, and as a float
    by the repr of the correctly rounded integer division X / W, which is
    float(Fraction(X, W)); one beyond the float range raises OverflowError.
    A row is its index columns, then each point's exact cell, then each
    point's float cell, joined by each writer in the order of its header.
    """

    def __missing__(self, t: Triple) -> tuple[str, str]:
        x, y, w = t
        cells = self[t] = (f"{_rational(x, w)},{_rational(y, w)}", f"{x / w!r},{y / w!r}")
        return cells


def _csv(header: Sequence[str], rows: Iterable[str]) -> str:
    """The header and the rows as CSV lines ended by CRLF.

    This is byte for byte what ``csv.writer`` writes in its default excel
    dialect: no field can hold a comma, a quote, CR or LF (they are ints,
    hex set ids, "n" or "n/d" rationals, float reprs and fixed column
    names), so none is quoted.
    """
    return "\r\n".join([",".join(header), *rows, ""])


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_files(out_dir: PathLike, files: dict[str, str]) -> list[Path]:
    """Make out_dir and write each named text into it as it is, with no
    newline translation; the paths written, in order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files.items():
        path = out / name
        path.write_text(text, newline="")
        paths.append(path)
    return paths


def _scenario_header(result: ScenarioResult) -> dict:
    scenario = result.scenario
    return {
        "horizon": scenario.horizon,
        "seed": scenario.seed,
        "step_ms": scenario.step_ms,
        "diffusion": result.diffusion,
    }


@lru_cache(maxsize=4096)
def feasible_set_id(feasible: FeasibleSet) -> str:
    """Short stable identifier of a feasible set's exact contents, hashed once per set."""
    text = ("ps:" if isinstance(feasible, PointSet) else "cp:") + _text(feasible._ts)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


def _step_rows(records: Sequence[StepRecord], tail: Callable[[StepRecord], str]) -> list[str]:
    """One "n,<tail>" row per step; equal steps share a record, so each
    distinct record's tail is formatted once."""
    tails = {r: tail(r) for r in dict.fromkeys(records)}
    return [f"{n},{t}" for n, t in enumerate(map(tails.__getitem__, records))]


def _trace_csv(trace: ControllerTrace) -> str:
    """Exact trace dump: one row per step, rational strings plus floats."""
    cells = _Cells()

    def tail(r: StepRecord) -> str:
        x, y, e = cells[r.requested._t], cells[r.implemented._t], cells[r.error._t]
        return f"{feasible_set_id(r.feasible)},{x[0]},{y[0]},{e[0]},{x[1]},{y[1]},{e[1]}"

    return _csv(
        _columns(["n", "set_id"], ["x_p", "x_q", "y_p", "y_q", "e_p", "e_q"]),
        _step_rows(trace.records, tail),
    )


def write_simulation(result: ScenarioResult, out_dir: PathLike) -> None:
    """Write one ``<id>_trace.csv`` per resource and the ``metrics.json`` summary."""
    files = {f"{rid}_trace.csv": _trace_csv(trace) for rid, trace in result.traces.items()}
    summary = _scenario_header(result)
    summary["resources"] = {
        rid: metrics_to_json(metrics) for rid, metrics in result.report.resources.items()
    }
    files["metrics.json"] = _json(summary)
    _write_files(out_dir, files)


def _running_averages(records: Sequence[StepRecord]) -> Iterable[str]:
    """Rows of the running means: the sums kept as triples, each mean written
    over W*k in the cells ``_Cells`` writes.  Nearly every mean is new, so
    the cells are formatted in the row, none kept for a later one."""
    requested = implemented = ORIGIN._t
    for k, r in enumerate(records, start=1):
        requested = _add(requested, r.requested._t)
        implemented = _add(implemented, r.implemented._t)
        (rx, ry, rw), (ix, iy, iw) = requested, implemented
        rw, iw = rw * k, iw * k
        yield (
            f"{k - 1},{_rational(rx, rw)},{_rational(ry, rw)},{_rational(ix, iw)},"
            f"{_rational(iy, iw)},{rx / rw!r},{ry / rw!r},{ix / iw!r},{iy / iw!r}"
        )


def emit_plot_data(result: ScenarioResult, out_dir: PathLike) -> list[Path]:
    """Write per-resource CSV series and a manifest describing them.

    Series per resource: requested vs implemented setpoints, accumulated
    error components, and running time averages.  Values are exact rational
    strings plus float renderings, so reruns are byte-identical.  Returns
    the paths written.
    """
    texts: dict[str, str] = {}
    files: list[dict] = []
    metrics: dict = {}
    for rid, trace in result.traces.items():
        records = trace.records
        errors = trace.errors() if records else []
        setpoint_cells, error_cells = _Cells(), _Cells()

        def setpoints(r: StepRecord) -> str:
            x, y = setpoint_cells[r.requested._t], setpoint_cells[r.implemented._t]
            return f"{x[0]},{y[0]},{x[1]},{y[1]}"

        series = (
            (
                "setpoints",
                "requested vs implemented setpoints per step",
                _columns(["n"], ["x_p", "x_q", "y_p", "y_q"]),
                _step_rows(records, setpoints),
            ),
            (
                "accumulated_error",
                "accumulated error e_n (components and norm)",
                _columns(["n"], ["e_p", "e_q"]) + ["e_norm_float"],
                (
                    f"{n},{','.join(error_cells[e._t])},{_norm(e._t)!r}"
                    for n, e in enumerate(errors)
                ),
            ),
            (
                "time_averaged",
                "running time-averages of requested and implemented setpoints",
                _columns(["n"], ["xbar_p", "xbar_q", "ybar_p", "ybar_q"]),
                _running_averages(records),
            ),
        )
        for name, description, header, rows in series:
            file_name = f"{rid}_{name}.csv"
            texts[file_name] = _csv(header, rows)
            files.append({"path": file_name, "resource": rid, "series": description})
        if records:
            metrics[rid] = metrics_to_json(result.report.resources[rid])
    scenario = _scenario_header(result)
    scenario["resources"] = [r.resource_id for r in result.scenario.resources]
    texts["manifest.json"] = _json({"scenario": scenario, "files": files, "metrics": metrics})
    return _write_files(out_dir, texts)
