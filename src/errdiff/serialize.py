"""Every file format errdiff reads or writes.

Rationals travel as strings "p/q" (bare "p" when the denominator is 1),
which is exactly what str(Fraction) produces; points and polygons are
ordered coordinate lists.  Scenario and collection files are plain JSON
documents whose schemas are documented in the README.  The closed-loop
outputs are the per-resource trace CSVs with ``metrics.json`` that
``write_simulation`` writes and the plot series with ``manifest.json``
that ``emit_plot_data`` writes; ``write_iteration_result`` writes the
invariant-set result.

Writers format points straight from their integer triples: a coordinate
X/W becomes its lowest-terms string by one gcd and its float by the
correctly rounded integer division X / W, the value float(Fraction(X, W))
has, so no Fraction is built per cell.  Traces repeat values, so each CSV
file formats each distinct triple once (``_RowFormatter``).  Running
averages are summed as triples.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Sequence, Union

from .dynamics import ControllerTrace, StepRecord
from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    PointSet,
    Triple,
    _add,
    as_fraction,
    convex_hull,
)
from .operators import Collection, FeasibleSet
from .resources import HeaterParams, HeaterState, PVParams
from .simulate import (
    Availability,
    CentralPolicy,
    HeaterSpec,
    MaximizeActivePower,
    PVSpec,
    QuadraticCost,
    ResourceMetrics,
    Scenario,
    ScenarioResult,
    constant_availability,
    random_availability,
    square_wave,
)

PathLike = Union[str, Path]


def _rational(x: int, w: int) -> str:
    """x/w for w > 0 in lowest terms, written as str(Fraction(x, w)) writes it."""
    g = math.gcd(x, w)
    return str(x // g) if g == w else f"{x // g}/{w // g}"


def point_to_json(p: Point2) -> list[str]:
    x, y, w = p._t
    return [_rational(x, w), _rational(y, w)]


def parse_point(data: Any) -> Point2:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"expected [x, y], got {data!r}")
    return Point2(*data)


def polygon_to_json(poly: ConvexPolygon) -> list[list[str]]:
    return [point_to_json(v) for v in poly.vertices]


def parse_polygon(data: Any) -> ConvexPolygon:
    return convex_hull(parse_point(item) for item in data)


def parse_point_set(data: Any) -> PointSet:
    return PointSet(tuple(parse_point(item) for item in data))


def parse_feasible(data: Any) -> FeasibleSet:
    if "points" in data:
        return parse_point_set(data["points"])
    if "polygon" in data:
        return parse_polygon(data["polygon"])
    raise ValueError("feasible set needs 'points' or 'polygon'")


# ---------------------------------------------------------------------------
# Collection files (compute-invariant input)
# ---------------------------------------------------------------------------


def parse_collection(data: Any) -> Collection:
    if "sets" not in data:
        raise ValueError("collection file needs a 'sets' list")
    mode = data.get("mode", "perfect")
    return Collection(tuple(parse_feasible(item) for item in data["sets"]), mode)


def load_collection(path: PathLike) -> Collection:
    return parse_collection(json.loads(Path(path).read_text()))


def iteration_result_to_json(result) -> dict:
    """The result as JSON: ``status`` is one of ``operators.StopStatus``, and
    ``converged`` is true for ``converged`` and ``extrapolated``."""
    return {
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "vertices": polygon_to_json(result.invariant_set),
        "history_hashes": result.history_hashes,
        "vertex_counts": result.vertex_counts,
    }


def write_iteration_result(path: PathLike, result) -> None:
    """The ``compute-invariant --out`` document."""
    Path(path).write_text(json.dumps(iteration_result_to_json(result), indent=2))


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
        "error_bound_sq": None if metrics.error_bound_sq is None else str(metrics.error_bound_sq),
        "bound_satisfied": metrics.bound_satisfied,
    }


# ---------------------------------------------------------------------------
# Closed-loop outputs
# ---------------------------------------------------------------------------


def _columns(index: Sequence[str], names: Sequence[str]) -> list[str]:
    return [*index, *names, *(f"{name}_float" for name in names)]


class _RowFormatter:
    """The rows of one CSV file: index columns, then each point's
    coordinates exactly, then each coordinate as a float.

    A coordinate X/W is written in lowest terms by one gcd, and as a float
    by the repr of the correctly rounded integer division X / W, which is
    float(Fraction(X, W)) as the csv writer renders it.  Each distinct
    triple is formatted once per file; one beyond the float range raises
    OverflowError.
    """

    def __init__(self) -> None:
        # triple -> ((exact x, exact y), (float x, float y))
        self._cells: dict[Triple, tuple[tuple[str, str], tuple[str, str]]] = {}

    def row(self, index: Sequence, triples: Iterable[Triple]) -> list:
        cells = self._cells
        exact, floats = list(index), []
        for t in triples:
            c = cells.get(t)
            if c is None:
                x, y, w = t
                c = cells[t] = ((_rational(x, w), _rational(y, w)), (repr(x / w), repr(y / w)))
            exact += c[0]
            floats += c[1]
        return exact + floats


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))


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
    if isinstance(feasible, PointSet):
        text = "ps:" + ";".join(",".join(point_to_json(p)) for p in feasible.points)
    else:
        text = "cp:" + ";".join(",".join(point_to_json(p)) for p in feasible.vertices)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


def write_trace_csv(path: PathLike, trace: ControllerTrace) -> None:
    """Exact trace dump: one row per step, rational strings plus floats."""
    row = _RowFormatter().row
    _write_csv(
        Path(path),
        _columns(["n", "set_id"], ["x_p", "x_q", "y_p", "y_q", "e_p", "e_q"]),
        (
            row(
                (r.step, feasible_set_id(r.feasible)),
                (r.requested._t, r.implemented._t, r.error._t),
            )
            for r in trace.records
        ),
    )


def write_simulation(result: ScenarioResult, out_dir: PathLike) -> None:
    """Write one ``<id>_trace.csv`` per resource and the ``metrics.json`` summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rid, trace in result.traces.items():
        write_trace_csv(out / f"{rid}_trace.csv", trace)
    summary = _scenario_header(result)
    summary["resources"] = {
        rid: metrics_to_json(metrics) for rid, metrics in result.report.resources.items()
    }
    _write_json(out / "metrics.json", summary)


def _running_averages(records: list[StepRecord]) -> Iterable[list]:
    """Rows of the running means: the sums kept as triples, each mean formatted over W*k."""
    row = _RowFormatter().row
    requested = implemented = ORIGIN._t
    for k, r in enumerate(records, start=1):
        requested = _add(requested, r.requested._t)
        implemented = _add(implemented, r.implemented._t)
        (rx, ry, rw), (ix, iy, iw) = requested, implemented
        yield row((k - 1,), ((rx, ry, rw * k), (ix, iy, iw * k)))


def _norm(e: Point2) -> float:
    """|e| as the square root of the correctly rounded float of |e|^2."""
    x, y, w = e._t
    return ((x * x + y * y) / (w * w)) ** 0.5


def emit_plot_data(result: ScenarioResult, out_dir: PathLike) -> list[Path]:
    """Write per-resource CSV series and a manifest describing them.

    Series per resource: requested vs implemented setpoints, accumulated
    error components, and running time averages.  Values are exact rational
    strings plus float renderings, so reruns are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    files: list[dict] = []
    metrics: dict = {}
    for rid, trace in result.traces.items():
        records = trace.records
        errors = trace.errors() if records else []
        setpoint_row, error_row = _RowFormatter().row, _RowFormatter().row
        series = (
            (
                "setpoints",
                "requested vs implemented setpoints per step",
                _columns(["n"], ["x_p", "x_q", "y_p", "y_q"]),
                (setpoint_row((r.step,), (r.requested._t, r.implemented._t)) for r in records),
            ),
            (
                "accumulated_error",
                "accumulated error e_n (components and norm)",
                _columns(["n"], ["e_p", "e_q"]) + ["e_norm_float"],
                (error_row((n,), (e._t,)) + [_norm(e)] for n, e in enumerate(errors)),
            ),
            (
                "time_averaged",
                "running time-averages of requested and implemented setpoints",
                _columns(["n"], ["xbar_p", "xbar_q", "ybar_p", "ybar_q"]),
                _running_averages(records),
            ),
        )
        for name, description, header, rows in series:
            path = out / f"{rid}_{name}.csv"
            _write_csv(path, header, rows)
            files.append({"path": path.name, "resource": rid, "series": description})
            written.append(path)
        if records:
            metrics[rid] = metrics_to_json(result.report.resources[rid])
    scenario = _scenario_header(result)
    scenario["resources"] = [r.resource_id for r in result.scenario.resources]
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, {"scenario": scenario, "files": files, "metrics": metrics})
    written.append(manifest_path)
    return written


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def _object(data: Any, what: str) -> dict:
    """data, checked to be a JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


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
        return QuadraticCost(
            center=parse_point(data["center"]),
            curvature=as_fraction(data.get("curvature", 1)),
        )
    if kind == "maximize_p":
        return MaximizeActivePower()
    raise ValueError(f"unknown cost kind {kind!r}")


def _parse_policy(data: Any) -> CentralPolicy:
    _object(data, "policy")
    return CentralPolicy(
        cost=_parse_cost(data["cost"]),
        step_size=as_fraction(data.get("step_size", "1/2")),
    )


def _parse_availability(data: Any) -> Availability:
    kind = _object(data, "availability").get("kind")
    if kind == "square":
        return square_wave(
            _json_integer(data["period"], "period"),
            as_fraction(data["low"]),
            as_fraction(data["high"]),
        )
    if kind == "constant":
        return constant_availability(as_fraction(data["value"]))
    if kind == "random":
        return random_availability(
            as_fraction(data["low"]),
            as_fraction(data["high"]),
            _json_integer(data.get("denominator", 64), "denominator"),
        )
    raise ValueError(f"unknown availability kind {kind!r}")


def _parse_heater(data: Any) -> HeaterSpec:
    thermal = _object(data.get("thermal", {}), "thermal")
    params = HeaterParams(
        powers=tuple(as_fraction(p) for p in data["powers"]),
        t_min=as_fraction(data["t_min"]),
        t_max=as_fraction(data["t_max"]),
        lock_steps=_json_integer(data.get("lock_steps", 0), "lock_steps"),
        leak=as_fraction(thermal.get("leak", "1/100")),
        gain=as_fraction(thermal.get("gain", 0)),
        t_out=as_fraction(thermal.get("t_out", 0)),
    )
    temps = [as_fraction(t) for t in data["initial_temps"]]
    on = [_json_boolean(v, "initial_on") for v in data.get("initial_on", [False] * len(temps))]
    initial = HeaterState(on=tuple(on), lock_remaining=(0,) * len(temps), temps=tuple(temps))
    return HeaterSpec(
        resource_id=data["id"],
        params=params,
        initial=initial,
        policy=_parse_policy(data["policy"]),
        prediction=data.get("prediction", "perfect"),
        diffusion=_json_boolean(data.get("diffusion", True), "diffusion"),
    )


def _parse_pv(data: Any) -> PVSpec:
    params = PVParams(p_max=as_fraction(data["p_max"]), tan_phi=as_fraction(data["tan_phi"]))
    return PVSpec(
        resource_id=data["id"],
        params=params,
        availability=_parse_availability(data["availability"]),
        policy=_parse_policy(data["policy"]),
        prediction=data.get("prediction", "persistent"),
        diffusion=_json_boolean(data.get("diffusion", True), "diffusion"),
    )


def parse_scenario(data: Any) -> Scenario:
    _object(data, "scenario")
    resources = []
    for item in data.get("resources", []):
        kind = _object(item, "resource").get("kind")
        if kind == "heater":
            resources.append(_parse_heater(item))
        elif kind == "pv":
            resources.append(_parse_pv(item))
        else:
            raise ValueError(f"unknown resource kind {kind!r}")
    return Scenario(
        horizon=_json_integer(data["horizon"], "horizon"),
        resources=resources,
        seed=_json_integer(data.get("seed", 0), "seed"),
        step_ms=_json_integer(data.get("step_ms", 100), "step_ms"),
    )


def load_scenario(path: PathLike) -> Scenario:
    return parse_scenario(json.loads(Path(path).read_text()))
