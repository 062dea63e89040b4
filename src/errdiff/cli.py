"""Command-line entry point.

Subcommands:
  compute-invariant  iterate a collection file to its minimal invariant set
  simulate           run a scenario file and dump traces plus metrics
  plot-data          run a scenario and emit figure-ready CSV series
  verify             run the named regression checks (CSV report, exit status)

``compute-invariant`` exits 0 when the run stops on ``converged`` or
``extrapolated`` (a verified fixed point), and 2 when it stops on
``budget`` or ``bits``; it prints the answer's exact ``gap`` to the last
exact iterate, ``None`` on ``budget`` and ``bits``.  A missing or
malformed input file, option or subcommand (argparse's own errors
included), an ``--out`` path that cannot be written, or a scenario value
too large for the float columns, norms and metrics that ``simulate`` and
``plot-data`` write, ends the run with one line, ``errdiff: error:
<message>``, on standard error and exit status 1.  ``simulate`` and
``plot-data`` format every output file before they make ``--out``, so a
value beyond the float range leaves no ``--out`` behind.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import replace

from . import simulate, verify
from .geometry import ConvexPolygon, _rational
from .operators import MODES, Collection, IterationConfig, iterate_to_invariance
from .serialize import (
    emit_plot_data,
    load_collection,
    load_scenario,
    parse_point,
    write_iteration_result,
    write_simulation,
)


# Errors that reading or validating an input file or option can raise;
# json.JSONDecodeError is a ValueError.
_INPUT_ERRORS = (OSError, ValueError, ZeroDivisionError, KeyError, TypeError)


class InputError(Exception):
    """An input file or option could not be read or is malformed."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors end the run like any other bad option."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The errdiff parser, built once per process.  It does not name
    ``verify.CHECKS``, which would load ``errdiff.verify`` for every command."""
    parser = _Parser(
        prog="errdiff",
        description="Minimal invariant error sets and setpoint-tracking simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("compute-invariant", help="iterate a collection to invariance")
    ci.add_argument("--collection", required=True, help="JSON collection file")
    ci.add_argument("--mode", choices=MODES, help="override file mode")
    ci.add_argument("--q0", default="0,0", help="seed point 'x,y' (rational), default origin")
    ci.add_argument(
        "--max-iters",
        type=int,
        default=IterationConfig.max_iterations,
        help="iteration budget (default %(default)s)",
    )
    ci.add_argument("--out", help="write the result as JSON here")
    ci.set_defaults(run=_cmd_compute_invariant)

    for name, help_text, run in (
        ("simulate", "run a scenario and dump traces", _cmd_simulate),
        ("plot-data", "run a scenario and emit figure CSV series", _cmd_plot_data),
    ):
        scenario = sub.add_parser(name, help=help_text)
        scenario.add_argument("--scenario", required=True, help="JSON scenario file")
        scenario.add_argument("--out", required=True, help="output directory")
        scenario.add_argument("--seed", type=int, help="override the scenario seed")
        scenario.add_argument(
            "--no-diffusion",
            nargs="*",
            default=(),
            metavar="RESOURCE",
            help="disable error diffusion for these resource ids",
        )
        scenario.set_defaults(run=run)

    ver = sub.add_parser("verify", help="run the regression checks")
    ver.add_argument("--only", nargs="*", metavar="CHECK", help="subset of the checks (see --list)")
    ver.add_argument("--list", action="store_true", help="list available checks and exit")
    ver.set_defaults(run=_cmd_verify)
    return parser


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


def _cmd_compute_invariant(args: argparse.Namespace) -> int:
    with _reporting(f"--collection {args.collection}"):
        collection = load_collection(args.collection)
        if args.mode:
            collection = Collection(collection.sets, args.mode)
    with _reporting("--q0"):
        seed = ConvexPolygon((parse_point(args.q0.split(",")),))
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
    print(f"gap: {result.gap}")
    print("invariant set vertices (exact):")
    for x, y, w in result.invariant_set._ts:
        print(f"  {_rational(x, w)} {_rational(y, w)}")
    return 0 if result.converged else 2


def _run_scenario_from_args(args: argparse.Namespace):
    """Run the scenario file as the options change it: the loaded scenario
    is frozen, so ``--seed`` and ``--no-diffusion`` build a variant."""
    with _reporting(f"--scenario {args.scenario}"):
        scenario = load_scenario(args.scenario)
    with _reporting("--no-diffusion"):
        unknown = set(args.no_diffusion) - {r.resource_id for r in scenario.resources}
        if unknown:
            raise ValueError(f"unknown resources: {', '.join(sorted(unknown))}")
    specs = tuple(
        replace(spec, diffusion=False) if spec.resource_id in args.no_diffusion else spec
        for spec in scenario.resources
    )
    seed = scenario.seed if args.seed is None else args.seed
    return simulate.run_scenario(replace(scenario, seed=seed, resources=specs))


# OverflowError comes where a float column, norm or metric is made, before any output line.
_beyond_float_range = _reporting("a scenario value is beyond the float range", (OverflowError,))


@_beyond_float_range
def _cmd_simulate(args: argparse.Namespace) -> int:
    result = _run_scenario_from_args(args)
    with _reporting(f"--out {args.out}", OSError):
        write_simulation(result, args.out)
    for rid, metrics in result.report.resources.items():
        print(
            f"{rid}: max|e|={metrics.max_error_norm:.6g} slope={metrics.error_slope:.3g}"
            f" bound_ok={metrics.bound_satisfied}"
        )
    return 0


@_beyond_float_range
def _cmd_plot_data(args: argparse.Namespace) -> int:
    result = _run_scenario_from_args(args)
    with _reporting(f"--out {args.out}", OSError):
        files = emit_plot_data(result, args.out)
    for path in files:
        print(path)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for name in verify.CHECKS:
            print(name)
        return 0
    # run_checks turns a failing check into a FAIL row, so only its check of
    # the names can raise here.
    with _reporting("--only"):
        results = verify.run_checks(args.only or None)
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
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except InputError as exc:
        print(f"errdiff: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
