"""The benchmark's tracer rebinds errdiff functions by name; keep them resolvable,
and keep the closed loop and the operator iteration calling them."""

import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import errdiff.cli
from errdiff.geometry import ORIGIN, ConvexPolygon, Point2, PointSet, convex_hull, segment
from errdiff.operators import MODES, Collection, IterationConfig, iterate_to_invariance

from conftest import BENCHMARK_COLLECTIONS, STALL_COLLECTION

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
SCENARIO = Path(__file__).resolve().parent / "data" / "closed_loop_seed1.json"

# The per-layer targets of the closed-loop workload.  A fast path that stops
# calling one of them by name would make its metrics read 0.
CLOSED_LOOP_TARGETS = (
    "resources.heater_step",
    "resources.heater_setpoints_2d",
    "resources.pv_feasible_set",
    "simulate.HeaterUnit.advance",
    "simulate.central_step",
    "dynamics.step_perfect",
)

# The per-layer targets of random-collections that a fast path in the
# operator step could stop calling by name.
OPERATOR_TARGETS = (
    "operators.cell_pieces",
    "operators.apply_collection",
    "geometry.minkowski_sum",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    for name, _keep in tracing.TARGETS:
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module(f"errdiff.{module_name}")
        if "." in attr:
            # methods are rebound on the class that defines them
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(method)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_every_trace_target_module_is_registered_by_the_cli_import():
    """The tracer looks each target's module up in sys.modules right after a
    fresh ``import errdiff.cli``, deferred modules included."""
    modules = sorted({f"errdiff.{name.split('.', 1)[0]}" for name, _keep in _load_tracing().TARGETS})
    code = "import sys, errdiff.cli; print(' '.join(m for m in sys.argv[1:] if m not in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(errdiff.cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, *modules], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.split() == []


def _counting(calls: Counter, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def _count_calls(monkeypatch, targets) -> Counter:
    """Counting wrappers rebound the way the tracer rebinds: a function in
    every errdiff module that holds it, a method on its class."""
    traced = {name for name, _keep in _load_tracing().TARGETS}
    assert set(targets) <= traced
    calls: Counter = Counter()
    modules = [m for n, m in sys.modules.items() if n == "errdiff" or n.startswith("errdiff.")]
    for name in targets:
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module(f"errdiff.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, method, _counting(calls, name, vars(cls)[method]))
            continue
        original = getattr(owner, attr)
        wrapper = _counting(calls, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def test_short_simulate_calls_every_closed_loop_target(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, CLOSED_LOOP_TARGETS)
    scenario = json.loads(SCENARIO.read_text())
    scenario["horizon"] = 12
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert errdiff.cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    assert {name: calls[name] for name in CLOSED_LOOP_TARGETS if calls[name] < 1} == {}


def test_short_iteration_calls_every_operator_target(monkeypatch):
    """Both modes, each on a point set with a point, a segment and a triangle."""
    calls = _count_calls(monkeypatch, OPERATOR_TARGETS)
    members = (
        PointSet.from_coords([(0, 0), (3, 0), (0, 2)]),
        ConvexPolygon((Point2(1, 1),)),
        segment(Point2(0, 0), Point2(2, 1)),
        convex_hull(Point2(x, y) for x, y in [(0, 0), (2, 0), (0, 2)]),
    )
    config = IterationConfig(max_iterations=3)
    for mode in MODES:
        iterate_to_invariance(Collection(members, mode), ConvexPolygon((ORIGIN,)), config)
    assert {name: calls[name] for name in OPERATOR_TARGETS if calls[name] < 1} == {}


def _tracer(tracing):
    return tracing.Tracer(SimpleNamespace(now=time.perf_counter))


def test_iteration_hook_reads_a_result_of_each_stop_status():
    """The hook counts an ``extrapolated`` run as converged, and never sees a cycle."""
    tracing = _load_tracing()
    origin = ConvexPolygon((ORIGIN,))
    runs = [
        (Collection((PointSet((ORIGIN,)),), "perfect"), IterationConfig()),
        (BENCHMARK_COLLECTIONS[19], IterationConfig(max_iterations=250, max_coordinate_bits=192)),
        (STALL_COLLECTION, IterationConfig(max_iterations=3)),
        (STALL_COLLECTION, IterationConfig(max_iterations=200, max_coordinate_bits=24)),
    ]
    results = [iterate_to_invariance(collection, origin, config) for collection, config in runs]
    assert [r.status for r in results] == ["converged", "extrapolated", "budget", "bits"]
    tracer = _tracer(tracing)
    for result in results:
        tracer._after_iterate(result, ())
    assert tracer.status == {"converged": 2, "budget": 1, "bits": 1}
    assert tracer.iterations == sum(r.iterations for r in results)
    assert tracer.rounding_events == 0
    assert tracer.final_bits == max(
        tracing.polygon_bits(r.invariant_set.vertices) for r in results
    )


def test_traced_simulate_fills_every_closed_loop_hook(monkeypatch, tmp_path):
    """One short simulate through ``instrument``: the hooks read each unit's
    ``resource_id`` and the result's ``report.resources``."""
    tracing = _load_tracing()
    # Counting wrappers on every target first, so that monkeypatch also
    # undoes what instrument rebinds.
    _count_calls(monkeypatch, [name for name, _keep in tracing.TARGETS])
    tracer = _tracer(tracing)
    tracing.instrument(tracer)
    scenario = json.loads(SCENARIO.read_text())
    scenario["horizon"] = 12
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    argv = ["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]
    assert tracer.run_op(lambda: errdiff.cli.main(argv)) == 0
    ids = sorted(r["id"] for r in scenario["resources"])
    assert {rid: len(steps) for rid, steps in tracer.step_s.items()} == {rid: 11 for rid in ids}
    assert sorted(tracer.error_bits) == sorted(tracer.bound_slack) == ids
    assert tracer.calls["simulate.run_scenario"] == tracer.calls["cli.main"] == 1
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 0, 0.0, 0.0)
    assert list(metrics) == [name for name, _unit, _better in tracing.layer_metric_specs()]
