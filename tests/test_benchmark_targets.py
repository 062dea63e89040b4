"""The benchmark's tracer rebinds errdiff functions by name; keep them resolvable,
and keep the closed loop and the operator iteration calling them."""

import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import errdiff.cli
from errdiff.geometry import ORIGIN, ConvexPolygon, Point2, PointSet, convex_hull, segment
from errdiff.operators import MODES, Collection, IterationConfig, iterate_to_invariance

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
