"""Command-line entry point.

Subcommands:
  compute-invariant  iterate a collection file to its minimal invariant set
  simulate           run a scenario file and dump traces plus metrics
  plot-data          run a scenario and emit figure-ready CSV series
  verify             run the named regression checks (CSV report, exit status)

``compute-invariant`` exits 0 when the run stops on ``converged`` or
``extrapolated`` (a verified fixed point), and 2 when it stops on
``budget`` or ``bits``.  A missing or malformed input file or option, or
an ``--out`` path that cannot be written, ends the run with one line,
``errdiff: error: <message>``, on standard error and exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .geometry import ConvexPolygon, Point2
from .operators import Collection, IterationConfig, iterate_to_invariance
from .serialize import (
    emit_plot_data,
    load_collection,
    load_scenario,
    write_iteration_result,
    write_simulation,
)
from .simulate import run_scenario
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
    ci.add_argument(
        "--max-iters",
        type=int,
        default=IterationConfig.max_iterations,
        help="iteration budget (default %(default)s)",
    )
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


# Errors that reading or validating an input file or option can raise;
# json.JSONDecodeError is a ValueError.
_INPUT_ERRORS = (OSError, ValueError, ZeroDivisionError, KeyError, TypeError)


class InputError(Exception):
    """An input file or option could not be read or is malformed."""


@contextlib.contextmanager
def _reporting(what: str, errors: tuple = _INPUT_ERRORS):
    """Turn one of ``errors`` raised while reading or writing ``what`` into an InputError."""
    try:
        yield
    except errors as exc:
        if isinstance(exc, KeyError):
            detail = f"missing key {exc.args[0]!r}"
        elif isinstance(exc, ZeroDivisionError):
            detail = f"zero denominator in {exc}"
        else:
            detail = str(exc)
        raise InputError(f"{what}: {detail}") from exc


def _parse_xy(text: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return Point2(*parts)


def _cmd_compute_invariant(args: argparse.Namespace) -> int:
    with _reporting(f"--collection {args.collection}"):
        collection = load_collection(args.collection)
        if args.mode:
            collection = Collection(collection.sets, args.mode)
    with _reporting("--q0"):
        seed = ConvexPolygon((_parse_xy(args.q0),))
    with _reporting("iteration options"):
        config = IterationConfig(max_iterations=args.max_iters)
    result = iterate_to_invariance(collection, seed, config)
    if args.out:
        with _reporting(f"--out {args.out}", OSError):
            write_iteration_result(args.out, result)
    for idx, count in enumerate(result.vertex_counts):
        print(f"iteration {idx}: vertices={count}")
    print(f"converged: {result.converged}")
    print(f"status: {result.status}")
    print(f"iterations: {result.iterations}")
    print("invariant set vertices (exact):")
    for v in result.invariant_set.vertices:
        print(f"  {v.x} {v.y}")
    return 0 if result.converged else 2


def _run_scenario_from_args(args: argparse.Namespace):
    with _reporting(f"--scenario {args.scenario}"):
        scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    with _reporting("--no-diffusion"):
        unknown = set(args.no_diffusion) - {r.resource_id for r in scenario.resources}
        if unknown:
            raise ValueError(f"unknown resources: {', '.join(sorted(unknown))}")
    overrides = {rid: False for rid in args.no_diffusion}
    return run_scenario(scenario, diffusion_overrides=overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = _run_scenario_from_args(args)
    with _reporting(f"--out {args.out}", OSError):
        write_simulation(result, args.out)
    for rid, metrics in result.report.resources.items():
        status = "" if metrics.bound_satisfied is None else f" bound_ok={metrics.bound_satisfied}"
        print(f"{rid}: max|e|={metrics.max_error_norm:.6g} slope={metrics.error_slope:.3g}{status}")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    result = _run_scenario_from_args(args)
    with _reporting(f"--out {args.out}", OSError):
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
    # run_checks turns a failing check into a FAIL row, so only its check of
    # the names can raise here.
    with _reporting("--only"):
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
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"errdiff: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
