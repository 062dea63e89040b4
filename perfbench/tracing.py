"""Per-layer tracing of errdiff, done from outside the package.

``instrument`` wraps public functions of errdiff by rebinding each name in
every errdiff module that holds it (and methods on their classes), so calls
between modules and within a module both go through the wrapper.  A wrapper
counts calls and measures its span with the benchmark's clock; a layer's
self time is its span minus the spans of traced functions it called.

Hot functions (``orient``, ``clip`` ...) are only aggregated.  Coarse ones
also keep a span record (id, parent, operation, name, start, end) in
memory, written out as JSON lines when the run ends.

``layer_metrics`` turns the counters into the per-layer metrics of
BENCHMARK.json, each divided by the number of traced operations (a solve,
a batch of collections or a simulate run), so counts repeat exactly from
run to run.  Metrics of layers a workload does not reach read 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import weakref
from collections import defaultdict

# ("<errdiff module>.<function or Class.method>", span kept).  The name is
# also the metric prefix.
TARGETS = (
    ("geometry.clip", False),
    ("geometry.minkowski_sum", False),
    ("geometry.convex_hull", False),
    ("geometry.orient", False),
    ("geometry.ConvexPolygon.contains_point", False),
    ("geometry.project_convex_polygon", False),
    ("geometry.project_point_set", False),
    ("operators.apply_collection", True),
    ("operators.cell_pieces", False),
    ("operators.check_invariance", True),
    ("operators.iterate_to_invariance", True),
    ("dynamics.step_perfect", False),
    ("dynamics.step_persistent", False),
    ("dynamics.project_feasible", False),
    ("resources.heater_setpoints_2d", False),
    ("resources.heater_step", False),
    ("resources.pv_feasible_set", False),
    ("simulate.HeaterUnit.advance", False),
    ("simulate.PVUnit.advance", False),
    ("simulate.central_step", False),
    ("simulate.run_resource_loop", True),
    ("simulate.compute_metrics", True),
    ("simulate.run_scenario", True),
    ("serialize.load_collection", True),
    ("serialize.load_scenario", True),
    ("cli.main", True),
)

# Prefixes reported as .calls and .self_s, and those reported as .self_s only.
CALLS_AND_SELF = (
    "geometry.clip",
    "geometry.minkowski_sum",
    "geometry.convex_hull",
    "geometry.orient",
    "geometry.ConvexPolygon.contains_point",
    "geometry.project_convex_polygon",
    "geometry.project_point_set",
    "operators.apply_collection",
    "operators.cell_pieces",
    "operators.check_invariance",
    "dynamics.step_perfect",
    "dynamics.step_persistent",
    "dynamics.project_feasible",
    "resources.heater_setpoints_2d",
    "resources.heater_step",
    "resources.pv_feasible_set",
)
SELF_ONLY = (
    "simulate.central_step",
    "simulate.run_resource_loop",
    "simulate.compute_metrics",
    "serialize.load_collection",
    "serialize.load_scenario",
)
# Spans nested directly in cli.main that are not output writing.
_MAIN_WORK = (
    "serialize.load_collection",
    "serialize.load_scenario",
    "operators.iterate_to_invariance",
    "simulate.run_scenario",
)
STATUSES = ("converged", "bits", "budget", "cycle")
RESOURCES = ("heaters", "pv_square", "pv_random")


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for prefix in CALLS_AND_SELF:
        specs.append((f"{prefix}.calls", "calls/op", "lower"))
        specs.append((f"{prefix}.self_s", "s/op", "lower"))
    specs += [(f"{prefix}.self_s", "s/op", "lower") for prefix in SELF_ONLY]
    specs += [
        ("geometry.max_coord_bits", "bits", "lower"),
        ("operators.iterations", "iters/op", "lower"),
        ("operators.rounding_events", "events/op", "lower"),
        ("operators.final_bits", "bits", "lower"),
    ]
    specs += [
        (f"operators.status.{s}", "runs/op", "higher" if s == "converged" else "lower")
        for s in STATUSES
    ]
    for rid in RESOURCES:
        specs.append((f"dynamics.step_p50_us.{rid}", "us", "lower"))
        specs.append((f"dynamics.step_p99_us.{rid}", "us", "lower"))
    specs += [(f"simulate.error_bits_max.{rid}", "bits", "lower") for rid in RESOURCES]
    specs += [(f"simulate.bound_slack_min.{rid}", "sq-units", "higher") for rid in RESOURCES]
    specs += [
        ("cli.output_s", "s/op", "lower"),
        ("cli.output_bytes", "B/op", "lower"),
        ("trace.overhead_s", "s/op", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


def polygon_bits(vertices) -> int:
    return max(
        (max(q.numerator.bit_length(), q.denominator.bit_length())
         for v in vertices for q in (v.x, v.y)),
        default=0,
    )


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.op = 0
        self._stack: list[list[float]] = []  # child seconds of each open call
        self._open_spans: list[int] = []
        # Work counters filled by the hooks below.
        self.max_coord_bits = 0
        self.iterations = 0
        self.rounding_events = 0
        self.final_bits = 0
        self.status: dict[str, int] = defaultdict(int)
        self.step_s: dict[str, list[float]] = defaultdict(list)
        self.error_bits: dict[str, int] = {}
        self.bound_slack: dict[str, float] = {}
        self._last_advance: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, keep=False, after=None):
        clock, stack, spans, open_spans = self.clock, self._stack, self.spans, self._open_spans
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep:
                span_id = len(spans) + len(open_spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            children = [0.0]
            stack.append(children)
            start = clock.now()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = clock.now()
                stack.pop()
                took = end - start
                calls[name] += 1
                self_s[name] += took - children[0]
                if stack:
                    stack[-1][0] += took
                if keep:
                    open_spans.pop()
                    spans.append((span_id, parent, self.op, name, start, end))
            if after is not None:
                after(value, args)
            return value

        return traced

    def run_op(self, fn):
        """Run one workload operation as a root span; returns fn's value."""
        self.op += 1
        return self.wrap("op", fn, keep=True)()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")

    # -- hooks ---------------------------------------------------------------

    def _after_apply(self, grown, args) -> None:
        self.max_coord_bits = max(self.max_coord_bits, polygon_bits(grown.vertices))

    def _after_iterate(self, result, args) -> None:
        if result.converged:
            status = "converged"
        elif result.aborted:
            status = "bits"
        elif result.history_hashes[-1] in result.history_hashes[:-1]:
            status = "cycle"
        else:
            status = "budget"
        self.status[status] += 1
        self.iterations += result.iterations
        self.rounding_events += len(result.rounding_events)
        self.final_bits = max(self.final_bits, polygon_bits(result.invariant_set.vertices))

    def _after_advance(self, value, args) -> None:
        unit, now = args[0], self.clock.now()
        last = self._last_advance.get(unit)
        if last is not None:
            self.step_s[unit.resource_id].append(now - last)
        self._last_advance[unit] = now

    def _after_scenario(self, result, args) -> None:
        for rid, trace in result.traces.items():
            bits = max(polygon_bits(trace.errors()), self.error_bits.get(rid, 0))
            self.error_bits[rid] = bits
            metrics = result.report.resources[rid]
            slack = float(metrics.error_bound_sq - metrics.max_error_norm2)
            self.bound_slack[rid] = min(slack, self.bound_slack.get(rid, slack))


def instrument(tracer: Tracer) -> None:
    """Rebind every target in the loaded errdiff modules to a traced wrapper."""
    hooks = {
        "operators.apply_collection": tracer._after_apply,
        "operators.iterate_to_invariance": tracer._after_iterate,
        "simulate.HeaterUnit.advance": tracer._after_advance,
        "simulate.PVUnit.advance": tracer._after_advance,
        "simulate.run_scenario": tracer._after_scenario,
    }
    modules = [m for n, m in sys.modules.items() if n == "errdiff" or n.startswith("errdiff.")]
    for name, keep in TARGETS:
        module_name, attr = name.split(".", 1)
        owner = sys.modules[f"errdiff.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method], keep, hooks.get(name)))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, keep, hooks.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def layer_metrics(tracer: Tracer, ops: int, factor: float, output_bytes: float,
                  overhead_s: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer values per traced operation; seconds scaled by ``factor``."""
    values: dict[str, float] = {}
    for prefix in CALLS_AND_SELF:
        values[f"{prefix}.calls"] = tracer.calls[prefix] / ops
        values[f"{prefix}.self_s"] = tracer.self_s[prefix] * factor / ops
    for prefix in SELF_ONLY:
        values[f"{prefix}.self_s"] = tracer.self_s[prefix] * factor / ops
    values["geometry.max_coord_bits"] = tracer.max_coord_bits
    values["operators.iterations"] = tracer.iterations / ops
    values["operators.rounding_events"] = tracer.rounding_events / ops
    values["operators.final_bits"] = tracer.final_bits
    for status in STATUSES:
        values[f"operators.status.{status}"] = tracer.status[status] / ops
    for rid in RESOURCES:
        samples = tracer.step_s.get(rid, [])
        p50 = p99 = 0.0
        if len(samples) >= 2:
            p50 = statistics.median(samples) * factor * 1e6
            p99 = statistics.quantiles(samples, n=100)[98] * factor * 1e6
        values[f"dynamics.step_p50_us.{rid}"] = p50
        values[f"dynamics.step_p99_us.{rid}"] = p99
    for rid in RESOURCES:
        values[f"simulate.error_bits_max.{rid}"] = tracer.error_bits.get(rid, 0)
    for rid in RESOURCES:
        values[f"simulate.bound_slack_min.{rid}"] = tracer.bound_slack.get(rid, 0.0)
    values["cli.output_s"] = _main_output_seconds(tracer.spans) * factor / ops
    values["cli.output_bytes"] = output_bytes
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_pct"] = overhead_pct
    return values


def _main_output_seconds(spans) -> float:
    """Time in cli.main outside parsing and the computation it calls."""
    mains = {s[0]: s[5] - s[4] for s in spans if s[3] == "cli.main"}
    for span_id, parent, _op, name, start, end in spans:
        if parent in mains and name in _MAIN_WORK:
            mains[parent] -= end - start
    return sum(mains.values())
