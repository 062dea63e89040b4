"""Command-line entry point.

Subcommands:
  compute-invariant  iterate a collection file to its minimal invariant set
  simulate           run a scenario file and dump traces plus metrics
  plot-data          run a scenario and emit figure-ready CSV series
  verify             run the named regression checks (CSV report, exit status)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .geometry import ConvexPolygon, Point2, as_fraction
from .operators import iterate_to_invariance
from .serialize import (
    iteration_result_to_json,
    load_collection,
    load_scenario,
    metrics_to_json,
    parse_iteration_config,
)
from .simulate import emit_plot_data, run_scenario
from .verify import CHECKS, run_checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errdiff",
        description="Minimal invariant error sets and setpoint-tracking simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("compute-invariant", help="iterate a collection to invariance")
    ci.add_argument("--collection", required=True, help="JSON collection file")
    ci.add_argument("--mode", choices=("perfect", "persistent"), help="override file mode")
    ci.add_argument("--q0", default="0,0", help="seed point 'x,y' (rational), default origin")
    ci.add_argument("--epsilon", help="rounding tolerance (rational, e.g. 1/100000000)")
    ci.add_argument("--max-iters", type=int, help="iteration budget")
    ci.add_argument("--no-rounding", action="store_true", help="disable conditional rounding")
    ci.add_argument("--out", help="write the result as JSON here")

    sim = sub.add_parser("simulate", help="run a scenario and dump traces")
    sim.add_argument("--scenario", required=True, help="JSON scenario file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument(
        "--no-diffusion",
        nargs="*",
        default=[],
        metavar="RESOURCE",
        help="disable error diffusion for these resource ids",
    )

    plot = sub.add_parser("plot-data", help="run a scenario and emit figure CSV series")
    plot.add_argument("--scenario", required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--seed", type=int)
    plot.add_argument("--no-diffusion", nargs="*", default=[], metavar="RESOURCE")

    ver = sub.add_parser("verify", help="run the regression checks")
    ver.add_argument("--only", nargs="*", metavar="CHECK", help=f"subset of: {', '.join(CHECKS)}")
    ver.add_argument("--golden-dir", help="directory overriding packaged golden files")
    ver.add_argument("--list", action="store_true", help="list available checks and exit")
    return parser


def _cmd_compute_invariant(args: argparse.Namespace) -> int:
    collection = load_collection(args.collection)
    if args.mode:
        from .operators import Collection

        collection = Collection(collection.sets, args.mode)
    x_text, y_text = args.q0.split(",")
    seed = ConvexPolygon((Point2(as_fraction(x_text.strip()), as_fraction(y_text.strip())),))
    config = parse_iteration_config(args)
    result = iterate_to_invariance(collection, seed, config)
    events_by_iteration: dict[int, int] = {}
    for ev in result.rounding_events:
        events_by_iteration[ev.iteration] = events_by_iteration.get(ev.iteration, 0) + 1
    for idx, count in enumerate(result.vertex_counts):
        print(f"iteration {idx}: vertices={count} rounding_events={events_by_iteration.get(idx, 0)}")
    print(f"converged: {result.converged}")
    print(f"iterations: {result.iterations}")
    print("invariant set vertices (exact):")
    for v in result.invariant_set.vertices:
        print(f"  {v.x} {v.y}")
    if args.out:
        Path(args.out).write_text(json.dumps(iteration_result_to_json(result), indent=2))
    return 0 if result.converged else 2


def _run_scenario_from_args(args: argparse.Namespace):
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    overrides = {rid: False for rid in args.no_diffusion}
    return run_scenario(scenario, diffusion_overrides=overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = _run_scenario_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for rid, trace in result.traces.items():
        with (out / f"{rid}_trace.csv").open("w", newline="") as fh:
            trace.write_csv(fh)
    summary = {
        "horizon": result.scenario.horizon,
        "seed": result.scenario.seed,
        "step_ms": result.scenario.step_ms,
        "diffusion": result.diffusion,
        "resources": {},
    }
    for rid, metrics in result.report.resources.items():
        summary["resources"][rid] = metrics_to_json(metrics)
        status = "" if metrics.bound_satisfied is None else f" bound_ok={metrics.bound_satisfied}"
        print(f"{rid}: max|e|={metrics.max_error_norm:.6g} slope={metrics.error_slope:.3g}{status}")
    (out / "metrics.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    result = _run_scenario_from_args(args)
    files = emit_plot_data(result, args.out)
    for path in files:
        print(path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for name in CHECKS:
            print(name)
        return 0
    golden = Path(args.golden_dir) if args.golden_dir else None
    results = run_checks(args.only or None, golden_dir=golden)
    print("check,expected,got,status,seconds")
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        expected = r.expected.replace('"', "'")
        got = r.got.replace('"', "'")
        print(f'{r.name},"{expected}","{got}",{status},{r.seconds:.2f}')
        failed = failed or not r.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compute-invariant": _cmd_compute_invariant,
        "simulate": _cmd_simulate,
        "plot-data": _cmd_plot_data,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
