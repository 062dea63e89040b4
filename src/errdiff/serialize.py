"""The file formats ``compute-invariant`` reads and writes, and the checks
every JSON reader shares.

Rationals travel as strings "p/q" (bare "p" when the denominator is 1),
which is exactly what str(Fraction) produces; points and polygons are
ordered coordinate lists, written straight from their integer triples.
Collection files are plain JSON documents whose schema is documented in
the README; ``write_iteration_result`` writes the invariant-set result.
Readers pass on only the optional keys a document gives (``_given``), so
no default is restated, and pass each rational on as the document writes
it: the model it builds converts and checks it, once.

The closed-loop formats, scenario files and what ``simulate`` and
``plot-data`` write, live in the deferred ``scenario_io``, so
``compute-invariant`` never compiles them.  ``load_scenario`` stays here:
it reads the file and hands the document to ``scenario_io.parse_scenario``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Union

from . import scenario_io
from .geometry import ConvexPolygon, Point2, PointSet, _rational, convex_hull
from .operators import Collection, FeasibleSet

if TYPE_CHECKING:
    from .simulate import Scenario

PathLike = Union[str, Path]


def point_to_json(p: Point2) -> list[str]:
    x, y, w = p._t
    return [_rational(x, w), _rational(y, w)]


def parse_point(data: Any) -> Point2:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"expected [x, y], got {data!r}")
    return Point2(*data)


def polygon_to_json(poly: ConvexPolygon) -> list[list[str]]:
    return [[_rational(x, w), _rational(y, w)] for x, y, w in poly._ts]


def parse_polygon(data: Any) -> ConvexPolygon:
    return convex_hull(parse_point(item) for item in data)


def parse_point_set(data: Any) -> PointSet:
    return PointSet(tuple(parse_point(item) for item in data))


def parse_feasible(data: Any) -> FeasibleSet:
    points, polygon = "points" in _object(data, "feasible set"), "polygon" in data
    if points == polygon:
        raise ValueError("feasible set needs exactly one of 'points' and 'polygon'")
    if points:
        return parse_point_set(_json_list(data["points"], "points"))
    return parse_polygon(_json_list(data["polygon"], "polygon"))


# ---------------------------------------------------------------------------
# Collection files (compute-invariant input)
# ---------------------------------------------------------------------------


def parse_collection(data: Any) -> Collection:
    if "sets" not in _object(data, "collection"):
        raise ValueError("collection file needs a 'sets' list")
    sets = tuple(parse_feasible(item) for item in _json_list(data["sets"], "sets"))
    return Collection(sets, **_given(data, mode=_json_string))


def load_collection(path: PathLike) -> Collection:
    return parse_collection(json.loads(Path(path).read_text()))


def iteration_result_to_json(result) -> dict:
    """The result as JSON: ``status`` is one of ``operators.StopStatus``,
    ``converged`` is true for ``converged`` and ``extrapolated``, and
    ``gap`` is the exact ``IterationResult.gap`` as a string, or null."""
    return {
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "gap": None if result.gap is None else str(result.gap),
        "vertices": polygon_to_json(result.invariant_set),
        "history_hashes": result.history_hashes,
        "vertex_counts": result.vertex_counts,
    }


def write_iteration_result(path: PathLike, result) -> None:
    """The ``compute-invariant --out`` document."""
    Path(path).write_text(json.dumps(iteration_result_to_json(result), indent=2))


# ---------------------------------------------------------------------------
# Scenario files (simulate and plot-data input)
# ---------------------------------------------------------------------------


def load_scenario(path: PathLike) -> Scenario:
    return scenario_io.parse_scenario(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# JSON checks shared by the collection and scenario readers
# ---------------------------------------------------------------------------


def _object(data: Any, what: str) -> dict:
    """data, checked to be a JSON object."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _json_list(value: Any, name: str) -> list:
    """value, checked to be a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{name!r} must be a JSON list, got {type(value).__name__}")
    return value


def _json_string(value: Any, name: str) -> str:
    """value, checked to be a JSON string."""
    if type(value) is not str:
        raise ValueError(f"{name!r} must be a JSON string, got {value!r}")
    return value


def _given(data: dict, *keys: str, **read: Callable[[Any, str], Any]) -> dict:
    """The keyword arguments for the keys of data that ``keys`` or ``read``
    names: a value under one of ``keys`` as it is, for the model to convert
    and check, and one under ``read`` as ``read[key](value, key)`` reads it.
    A key the document leaves out is not passed on, so it takes the
    model's default."""
    given = {key: data[key] for key in keys if key in data}
    given.update((key, f(data[key], key)) for key, f in read.items() if key in data)
    return given
