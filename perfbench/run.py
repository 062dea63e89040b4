#!/usr/bin/env python3
"""The errdiff benchmark.

    python3 perfbench/run.py --workload family3 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports errdiff from ``src/``.

Workloads (BENCHMARK.json gives the reason for each):

* ``family3``: ``errdiff compute-invariant --max-iters 600`` on the paper's
  three-set family, through ``errdiff.cli.main``; the answer must equal
  ``src/errdiff/golden/family3_invariant.json`` and pass
  ``check_invariance``.
* ``random-collections``: ``iterate_to_invariance`` over a batch of 40
  collections mixing point sets with points, segments and triangles, half
  in perfect and half in persistent mode, under a 250-iteration and
  192-bit budget.  Every converged answer must pass ``check_invariance``.
* ``closed-loop``: ``errdiff simulate`` on a heater bank and two PV units,
  through ``errdiff.cli.main``.  Every resource must stay within its
  analytic error bound and every run of a seed must write the same bytes.

An operation is one solve, one batch or one simulate run.  The run sets up
``SETUP_REPEATS`` times (fresh import of errdiff, input generation and
parsing), then repeats operations until ``--seconds`` have passed, and
reports medians.  Times are reference-speed seconds from ``speed.py``.

With ``--trace 1`` the first third of the time runs untraced and the rest
traced (``tracing.py``); the per-layer metrics come from the traced part,
the tracing overhead from the difference.  Spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed operation
(an exception, a non-zero exit, a wrong answer, a violated bound or output
bytes that differ from the seed's first run) is counted, never dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import inputs
import tracing
from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One thread: numpy's BLAS would otherwise start a worker thread at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
SETUP_REPEATS = 5
BATCH = 40
HORIZON = 2000


class Modules:
    """The errdiff modules of the latest fresh import."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "errdiff" or n.startswith("errdiff.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("errdiff.cli")
        self.geometry = sys.modules["errdiff.geometry"]
        self.operators = sys.modules["errdiff.operators"]
        self.serialize = sys.modules["errdiff.serialize"]


class Workload:
    """Shared counters; subclasses define setup(), op() and info()."""

    def __init__(self, seed: int, work: Path, quick: bool) -> None:
        self.seed, self.work, self.quick = seed, work, quick
        self.attempted = self.failed = 0
        self.certified = self.certifiable = 0
        self.output_bytes = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED {self.__class__.__name__} seed {self.seed}: {why}", file=sys.stderr)


class Family3(Workload):
    def setup(self, mods: Modules) -> None:
        doc, swap = inputs.family3_document(self.seed)
        self.path = self.work / "family3.json"
        self.path.write_text(json.dumps(doc))
        self.collection = mods.serialize.load_collection(self.path)
        golden = json.loads((SRC / "errdiff" / "golden" / "family3_invariant.json").read_text())
        points = {(Fraction(x), Fraction(y)) for x, y in golden["vertices"]}
        self.expected = {(y, x) for x, y in points} if swap else points

    def op(self, mods: Modules, clock: SpeedClock) -> tuple[float, float]:
        out = self.work / "family3-out.json"
        out.unlink(missing_ok=True)
        argv = ["compute-invariant", "--collection", str(self.path), "--max-iters", "600",
                "--out", str(out)]
        self.attempted += 1
        self.certifiable += 1
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock.now()
            code = mods.cli.main(argv)
            end = clock.now()
        result = json.loads(out.read_text())
        self.output_bytes += out.stat().st_size
        got = {(Fraction(x), Fraction(y)) for x, y in result["vertices"]}
        polygon = mods.serialize.parse_polygon(result["vertices"])
        if code != 0 or not result["converged"]:
            self.fail(f"exit {code}, converged={result['converged']}")
        elif got != self.expected:
            self.fail(f"answer {sorted(got)} differs from the golden polygon")
        elif not mods.operators.check_invariance(self.collection, polygon):
            self.fail("golden answer fails check_invariance")
        else:
            self.certified += 1
        return start, end

    def info(self, op_seconds: float) -> str:
        return f"solve_s={op_seconds:.4f}"


class RandomCollections(Workload):
    def setup(self, mods: Modules) -> None:
        size = 6 if self.quick else BATCH
        path = self.work / "collections.json"
        path.write_text(json.dumps(inputs.random_collection_documents(self.seed, size)))
        self.collections = [mods.serialize.parse_collection(d)
                            for d in json.loads(path.read_text())]
        self.config = mods.operators.IterationConfig(max_iterations=250, max_coordinate_bits=192)
        self.origin = mods.geometry.ConvexPolygon((mods.geometry.ORIGIN,))
        self.first_batch: list | None = None
        self.not_invariant = 0

    def op(self, mods: Modules, clock: SpeedClock) -> tuple[float, float]:
        iterate = mods.operators.iterate_to_invariance
        results = []
        start = clock.now()
        for collection in self.collections:
            try:
                results.append(iterate(collection, self.origin, self.config))
            except Exception:
                traceback.print_exc()
                results.append(None)
        end = clock.now()
        first = self.first_batch
        self.first_batch = first or results
        for idx, (collection, result) in enumerate(zip(self.collections, results)):
            self.attempted += 1
            self.certifiable += 1
            if result is None:
                self.fail(f"collection {idx} raised")
            elif first and (first[idx] is None or _outcome(result) != _outcome(first[idx])):
                self.fail(f"collection {idx} ended differently from this seed's first batch")
            elif not result.converged:
                continue
            elif mods.operators.check_invariance(collection, result.invariant_set):
                self.certified += 1
            else:
                self.not_invariant += 1
                self.fail(f"collection {idx} converged to a set that is not invariant")
        return start, end

    def info(self, op_seconds: float) -> str:
        n = len(self.collections)
        batches = self.attempted // n
        return (f"collections_per_s={n / op_seconds:.4f} "
                f"certified={self.certified // batches}/{n} "
                f"converged_not_invariant={self.not_invariant // batches}/{n}")


def _outcome(result) -> tuple:
    return (result.converged, result.iterations, result.invariant_set)


class ClosedLoop(Workload):
    def setup(self, mods: Modules) -> None:
        self.horizon = 200 if self.quick else HORIZON
        doc = inputs.scenario_document(self.seed, self.horizon)
        self.resources = sorted(r["id"] for r in doc["resources"])
        self.path = self.work / "scenario.json"
        self.path.write_text(json.dumps(doc))
        mods.serialize.load_scenario(self.path)
        self.digest = None

    def op(self, mods: Modules, clock: SpeedClock) -> tuple[float, float]:
        out = self.work / "simulate-out"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.certifiable += len(self.resources)
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock.now()
            code = mods.cli.main(["simulate", "--scenario", str(self.path), "--out", str(out)])
            end = clock.now()
        summary = json.loads((out / "metrics.json").read_text())["resources"]
        within = [rid for rid, m in summary.items() if m["bound_satisfied"] is True]
        self.certified += len(within)
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            self.output_bytes += len(data)
            digest.update(path.name.encode() + b"\0" + data)
        digest = digest.hexdigest()
        if code != 0:
            self.fail(f"exit {code}")
        elif sorted(summary) != self.resources or len(within) != len(self.resources):
            self.fail(f"bound violated: only {sorted(within)} within their bounds")
        elif self.digest is not None and digest != self.digest:
            self.fail("output bytes differ from this seed's first run")
        self.digest = self.digest or digest
        return start, end

    def info(self, op_seconds: float) -> str:
        return (f"steps_per_s={len(self.resources) * self.horizon / op_seconds:.1f} "
                f"digest={self.digest}")


WORKLOADS = {"family3": Family3, "random-collections": RandomCollections,
             "closed-loop": ClosedLoop}


def _call(fn):
    return fn()


def run_ops(workload: Workload, mods: Modules, clock: SpeedClock, until: float,
            wrap=None) -> list[tuple[float, float]]:
    """Repeat operations until clock.now() passes ``until``; their intervals."""
    intervals = []
    while not intervals or clock.now() < until:
        start = clock.now()
        try:
            start, end = (wrap or _call)(lambda: workload.op(mods, clock))
        except Exception:
            traceback.print_exc()
            workload.fail("the operation raised")
            end = clock.now()
        intervals.append((start, end))
    return intervals


def median_scaled(clock: SpeedClock, intervals: list[tuple[float, float]]) -> float:
    return statistics.median(clock.scaled(a, b) for a, b in intervals)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest inputs (self-test only; not a measurement)")
    args = parser.parse_args(argv)

    if not (SRC / "errdiff" / "__init__.py").is_file():
        print(f"errdiff sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    units = declared("per_layer" if args.trace else "end_to_end")
    sys.path.insert(0, str(SRC))
    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    clock = SpeedClock()
    clock.start()
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.quick)
        setups = []
        for _ in range(2 if args.quick else SETUP_REPEATS):
            begin = clock.now()
            mods = Modules()
            workload.setup(mods)
            setups.append((begin, clock.now()))
        begin = clock.now()
        if not args.trace:
            timed = run_ops(workload, mods, clock, begin + args.seconds)
            op_s = median_scaled(clock, timed)
            values = {
                "setup_s": median_scaled(clock, setups),
                "op_s": op_s,
                "certified_ratio": workload.certified / workload.certifiable,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            plain = run_ops(workload, mods, clock, begin + args.seconds / 3)
            tracer = tracing.Tracer(clock)
            tracing.instrument(tracer)
            bytes_before = workload.output_bytes
            traced_begin = clock.now()
            traced = run_ops(workload, mods, clock, begin + args.seconds, tracer.run_op)
            factor = clock.factor(traced_begin, clock.now())
            op_s, plain_s = median_scaled(clock, traced), median_scaled(clock, plain)
            timed = traced
            values = tracing.layer_metrics(
                tracer, len(traced), factor,
                (workload.output_bytes - bytes_before) / len(traced),
                op_s - plain_s, 100 * (op_s - plain_s) / plain_s,
            )
            tracer.write_spans(state / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={workload.attempted} op_s={op_s:.4f} "
          f"wall_op_s={statistics.median(b - a for a, b in timed):.4f} {workload.info(op_s)}")
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
