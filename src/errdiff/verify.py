"""Named regression checks covering every analytic guarantee the package makes.

Each check compares a computed result against an independently stated
expectation (a transcribed golden polygon, a closed-form bound, or an exact
property) and reports expected/got strings for machine-readable output.
The command line's ``verify`` subcommand runs these; the acceptance test
suite maps onto the same functions.  Every check that finds or states an
invariant set also requires the independent ``certificate.certify_invariant``
to accept it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

from .certificate import certify_invariant
from .dynamics import fixed_request, run_trace, uniform_request
from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    PointSet,
    clip_to_cell,
    convex_hull,
)
from .intervals import IntervalUnion
from .operators import (
    Collection,
    IterationConfig,
    apply_g_interval,
    apply_collection,
    check_invariance,
    iterate_1d,
    iterate_to_invariance,
)
from .resources import (
    HeaterParams,
    HeaterState,
    PVParams,
    heater_error_bound,
    max_step_size,
    pv_error_bound_sq,
    pv_triangle,
    pv_triangle_family,
)
from .simulate import (
    CentralPolicy,
    GradientRequests,
    HeaterUnit,
    MaximizeActivePower,
    PVUnit,
    random_availability,
    run_resource_loop,
    square_wave,
)


@dataclass
class CheckResult:
    name: str
    expected: str
    got: str
    passed: bool
    seconds: float = 0.0


CheckFn = Callable[[Optional[Path]], CheckResult]


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


def grid8_collection() -> Collection:
    grid = PointSet.from_coords([(x, y) for x in (-1, 1, 3, 5) for y in (-1, 1)])
    return Collection((grid,), "perfect")


def three_set_family() -> Collection:
    ring = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)]
    s1 = PointSet.from_coords(ring)
    s2 = PointSet.from_coords([c for c in ring if c != (0, -1)])
    s3 = PointSet.from_coords([c for c in ring if c not in ((0, -1), (-1, -1))])
    return Collection((s1, s2, s3), "perfect")


def interior_point_set(p_y: int) -> PointSet:
    return PointSet.from_coords([(-10, -10), (10, -10), (10, 10), (-10, 10), (0, p_y)])


def load_golden_polygon(golden_dir: Optional[Path]) -> ConvexPolygon:
    if golden_dir is not None:
        text = (Path(golden_dir) / "family3_invariant.json").read_text()
    else:
        text = (resources.files("errdiff") / "golden" / "family3_invariant.json").read_text()
    data = json.loads(text)
    return convex_hull(Point2(x, y) for x, y in data["vertices"])


def _polygon_text(poly: ConvexPolygon) -> str:
    return " ".join(f"({v.x},{v.y})" for v in poly.vertices)


ORIGIN_SEED = ConvexPolygon((ORIGIN,))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_family3(golden_dir: Optional[Path] = None) -> CheckResult:
    golden = load_golden_polygon(golden_dir)
    family = three_set_family()
    result = iterate_to_invariance(family, ORIGIN_SEED, IterationConfig(max_iterations=600))
    got = result.invariant_set
    passed = result.converged and got == golden and certify_invariant(family, got)
    return CheckResult(
        name="invariant-family3",
        expected=_polygon_text(golden),
        got=f"{_polygon_text(got)} (converged={result.converged}, iterations={result.iterations})",
        passed=passed,
    )


def check_grid8(golden_dir: Optional[Path] = None) -> CheckResult:
    grid = grid8_collection()
    result = iterate_to_invariance(grid, ORIGIN_SEED, IterationConfig())
    passed = (
        result.converged
        and result.iterations == 1
        and certify_invariant(grid, result.invariant_set)
    )
    return CheckResult(
        name="grid8-one-iteration",
        expected="converged after exactly 1 growing iteration",
        got=f"converged={result.converged}, iterations={result.iterations}",
        passed=passed,
    )


def _random_1d_collections(count: int, seed: int) -> list[list[tuple[Fraction, ...]]]:
    rng = random.Random(seed)
    collections = []
    for _ in range(count):
        sets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, 8)
            values = {Fraction(rng.randint(-100, 100), 10) for _ in range(size)}
            sets.append(tuple(sorted(values)))
        collections.append(sets)
    return collections


def check_interval_oracle(golden_dir: Optional[Path] = None) -> CheckResult:
    collections = _random_1d_collections(200, seed=1301)
    failures = 0
    for sets in collections:
        delta = max_step_size(sets)
        fixed = iterate_1d(sets, IntervalUnion.singleton(0))
        if fixed != IntervalUnion.closed(-delta / 2, delta / 2):
            failures += 1
    return CheckResult(
        name="interval-oracle",
        expected="fixed point equals [-gap/2, gap/2] for 200 random 1D collections",
        got=f"{200 - failures}/200 matched",
        passed=failures == 0,
    )


def _embedded_1d(sets: Sequence[tuple[Fraction, ...]]) -> list[PointSet]:
    return [PointSet(tuple(Point2(v, Fraction(0)) for v in values)) for values in sets]


def check_interval_sim_bound(golden_dir: Optional[Path] = None) -> CheckResult:
    collections = _random_1d_collections(200, seed=1301)
    sampled = collections[::17]  # every 17th: full-horizon runs stay within budget
    horizon = 10**4
    violations = 0
    for idx, sets in enumerate(sampled):
        embedded = _embedded_1d(sets)
        delta = max_step_size(sets)
        bound_sq = (delta / 2) ** 2
        rng = random.Random(9000 + idx)
        trace = run_trace(
            "perfect",
            lambda n: embedded[rng.randrange(len(embedded))],
            uniform_request(denominator=360),
            horizon,
            seed=idx,
        )
        if trace.max_error_norm2() > bound_sq:
            violations += 1
    return CheckResult(
        name="interval-sim-bound",
        expected=f"max |e_n| <= gap/2 over {len(sampled)} runs of {horizon} random-request steps",
        got=f"{len(sampled) - violations}/{len(sampled)} runs within bound",
        passed=violations == 0,
    )


PV_CASES = (
    (Fraction(1), Fraction(1)),
    (Fraction(4), Fraction(1, 4)),
    (Fraction(1), Fraction(0)),
)


def check_pv_invariance(golden_dir: Optional[Path] = None) -> CheckResult:
    failures = []
    for p_max, tan_phi in PV_CASES:
        params = PVParams(p_max=p_max, tan_phi=tan_phi)
        full = pv_triangle(params, params.p_max)
        for m in (1, 4, 16):
            family = Collection(tuple(pv_triangle_family(params, m)), "persistent")
            if not (check_invariance(family, full) and certify_invariant(family, full)):
                failures.append((str(p_max), str(tan_phi), m))
    return CheckResult(
        name="pv-invariance",
        expected="full triangle invariant for cap families m in {1,4,16}, three parameter pairs",
        got="all invariant" if not failures else f"failures: {failures}",
        passed=not failures,
    )


def check_pv_sim_bound(golden_dir: Optional[Path] = None) -> CheckResult:
    horizon = 10**4
    failures = []
    for p_max, tan_phi in PV_CASES:
        params = PVParams(p_max=p_max, tan_phi=tan_phi)
        bound_sq = pv_error_bound_sq(params)
        runs = {
            "square+gradient": (
                square_wave(6, Fraction(0), p_max),
                GradientRequests(CentralPolicy(MaximizeActivePower(), Fraction(1, 4))),
            ),
            "random+uniform": (
                random_availability(Fraction(0), p_max, denominator=32),
                uniform_request(denominator=128),
            ),
        }
        for label, (wave, requests) in runs.items():
            rng = random.Random(f"pv:{p_max}:{tan_phi}:{label}")
            unit = PVUnit("pv", params, wave, "persistent", rng)
            trace = run_resource_loop(unit, requests, horizon, rng)
            if trace.max_error_norm2() > bound_sq:
                failures.append((str(p_max), str(tan_phi), label))
    return CheckResult(
        name="pv-sim-bound",
        expected=f"|e_n|^2 <= squared triangle diameter over {horizon}-step persistent runs",
        got="all within bound" if not failures else f"failures: {failures}",
        passed=not failures,
    )


def _heater_unit(powers, temps, lock_steps=10) -> HeaterUnit:
    params = HeaterParams(
        powers=tuple(Fraction(p) for p in powers),
        t_min=Fraction(19),
        t_max=Fraction(22),
        lock_steps=lock_steps,
        leak=Fraction(1, 100),
        gain=Fraction(1, 2) / max(Fraction(p) for p in powers),
        t_out=Fraction(8),
    )
    state = HeaterState.initial([Fraction(t) for t in temps])
    return HeaterUnit("heater", params, state)


def check_heater_single_bound(golden_dir: Optional[Path] = None) -> CheckResult:
    horizon = 10**4
    unit = _heater_unit([15000], ["20"])
    bound = heater_error_bound(unit.params.powers)
    rng = random.Random("heater-single")
    trace = run_resource_loop(unit, uniform_request(denominator=256), horizon, rng)
    max_sq = trace.max_error_norm2()
    passed = max_sq <= bound * bound
    return CheckResult(
        name="heater-single-bound",
        expected=f"max |e_n| <= {bound} over {horizon} random-request steps",
        got=f"max |e_n|^2 = {max_sq}",
        passed=passed,
    )


def check_heater_multi_bound(golden_dir: Optional[Path] = None) -> CheckResult:
    horizon = 10**4
    unit = _heater_unit([1, 2, 3], ["20", "41/2", "21"], lock_steps=5)
    bound = heater_error_bound(unit.params.powers)
    rng = random.Random("heater-multi")
    trace = run_resource_loop(unit, uniform_request(denominator=256), horizon, rng)
    max_sq = trace.max_error_norm2()
    passed = bound == Fraction(3, 2) and max_sq <= bound * bound
    return CheckResult(
        name="heater-multi-bound",
        expected=f"max |e_n| <= 3/2 over {horizon} random-request steps",
        got=f"bound={bound}, max |e_n|^2 = {max_sq}",
        passed=passed,
    )


def check_diffusion_contrast(golden_dir: Optional[Path] = None) -> CheckResult:
    horizon = 10**3
    p_heat = Fraction(15000)
    params = HeaterParams(
        powers=(p_heat,),
        t_min=Fraction(19),
        t_max=Fraction(22),
        lock_steps=0,
        leak=Fraction(0),
        gain=Fraction(0),
        t_out=Fraction(20),
    )
    request = fixed_request(Point2(-p_heat / 2, Fraction(0)))

    def run(diffusion: bool):
        unit = HeaterUnit("heater", params, HeaterState.initial([Fraction(20)]))
        return run_resource_loop(
            unit, request, horizon, random.Random(0), diffusion=diffusion
        )

    off_trace = run(False)
    on_trace = run(True)
    off_ok = all(
        e.norm2() >= (Fraction(n) * p_heat / 4) ** 2
        for n, e in enumerate(off_trace.errors())
        if n >= 2
    )
    on_ok = all(e.norm2() <= (p_heat / 2) ** 2 for e in on_trace.errors())
    return CheckResult(
        name="diffusion-contrast",
        expected="without diffusion |e_n| >= n*P/4 for n >= 2; with diffusion |e_n| <= P/2",
        got=f"linear-growth holds: {off_ok}; bounded holds: {on_ok}",
        passed=off_ok and on_ok,
    )


def bounded_voronoi_polygon(sites: PointSet, center: Point2, box: int = 10**6) -> ConvexPolygon:
    """The (bounded) Voronoi cell of an interior site as an explicit polygon."""
    big = convex_hull(Point2(sx * box, sy * box) for sx in (-1, 1) for sy in (-1, 1))
    return clip_to_cell(big, sites, center)


def check_voronoi_coverage(golden_dir: Optional[Path] = None) -> CheckResult:
    failures = []
    for p_y in (0, 5, 9):
        sites = interior_point_set(p_y)
        center = Point2(0, p_y)
        collection = Collection((sites,), "perfect")
        result = iterate_to_invariance(
            collection, ORIGIN_SEED, IterationConfig(max_iterations=2000)
        )
        cell = bounded_voronoi_polygon(sites, center).translate(-center)
        if not (
            result.converged
            and result.invariant_set.contains_polygon(cell)
            and certify_invariant(collection, result.invariant_set)
        ):
            failures.append(p_y)
    return CheckResult(
        name="voronoi-coverage",
        expected="minimal invariant set contains the shifted bounded cell for p_y in {0,5,9}",
        got="covered in all cases" if not failures else f"failed for p_y = {failures}",
        passed=not failures,
    )


def _random_point(rng: random.Random) -> Point2:
    return Point2(rng.randint(-6, 6), rng.randint(-6, 6))


def _random_collection(rng: random.Random) -> Collection:
    sets = []
    for _ in range(rng.randint(1, 3)):
        pts = tuple(_random_point(rng) for _ in range(rng.randint(1, 6)))
        sets.append(PointSet(pts))
    return Collection(tuple(sets), "perfect")


# Tight budgets: arbitrary instances either settle quickly or drift with
# compounding representations, and the drift should fail fast.  The
# invariance and containment properties are conditional on convergence.
_PROPERTY_CONFIG = IterationConfig(max_iterations=250, max_coordinate_bits=192)


def check_operator_properties(golden_dir: Optional[Path] = None) -> CheckResult:
    seed = 777
    rng = random.Random(seed)
    n_collections = 100
    sim_steps = 250
    problems: list[str] = []
    unconverged = 0
    for idx in range(n_collections):
        collection = _random_collection(rng)
        seed_poly = convex_hull(_random_point(rng) for _ in range(3))
        # extensivity: any region is contained in its image
        grown = apply_collection(collection, seed_poly)
        if not grown.contains_polygon(seed_poly):
            problems.append(f"{idx}: extensivity")
        # monotonicity: a larger region has a larger image
        bigger = convex_hull(tuple(seed_poly.vertices) + (_random_point(rng),))
        if not apply_collection(collection, bigger).contains_polygon(grown):
            problems.append(f"{idx}: monotonicity")
        result = iterate_to_invariance(collection, ORIGIN_SEED, _PROPERTY_CONFIG)
        if not result.converged:
            # Arbitrary instances may drift toward limits extrapolation never
            # finds; the checks below are conditional on convergence, so
            # count and move on.
            unconverged += 1
            continue
        invariant = result.invariant_set
        if not check_invariance(collection, invariant):
            problems.append(f"{idx}: fixed point not invariant")
            continue
        if not certify_invariant(collection, invariant):
            problems.append(f"{idx}: certificate rejects the fixed point")
        # The schedule has its own stream, so the collections drawn after
        # this one do not depend on which earlier ones converged.
        schedule = random.Random(f"{seed}:schedule:{idx}")
        trace = run_trace(
            "perfect",
            lambda n: collection.sets[schedule.randrange(len(collection.sets))],
            uniform_request(denominator=64),
            sim_steps,
            seed=idx,
        )
        if not all(invariant.contains_point(e) for e in trace.errors()):
            problems.append(f"{idx}: trajectory left the invariant set")
    # 1D additivity on random interval unions
    add_rng = random.Random(778)
    for idx in range(50):
        values = sorted({Fraction(add_rng.randint(-20, 20), 2) for _ in range(add_rng.randint(1, 6))})

        def rand_union():
            return IntervalUnion(
                tuple(
                    (lo, lo + Fraction(add_rng.randint(0, 8), 2))
                    for lo in (Fraction(add_rng.randint(-20, 20), 2) for _ in range(add_rng.randint(1, 3)))
                )
            )

        a, b = rand_union(), rand_union()
        if apply_g_interval(values, a.union(b)) != apply_g_interval(values, a).union(
            apply_g_interval(values, b)
        ):
            problems.append(f"1d-additivity {idx}")
    passed = not problems and (n_collections - unconverged) >= 30
    got = f"{n_collections - unconverged}/{n_collections} converged; "
    got += "all properties hold" if not problems else f"problems={problems[:5]}"
    return CheckResult(
        name="operator-properties",
        expected=(
            f"extensivity, monotonicity on {n_collections} random collections; invariance "
            "and trajectory containment wherever the iteration converges (at least 30); "
            "1D additivity on 50 interval instances"
        ),
        got=got,
        passed=passed,
    )


CHECKS: dict[str, CheckFn] = {
    "invariant-family3": check_family3,
    "grid8-one-iteration": check_grid8,
    "interval-oracle": check_interval_oracle,
    "interval-sim-bound": check_interval_sim_bound,
    "pv-invariance": check_pv_invariance,
    "pv-sim-bound": check_pv_sim_bound,
    "heater-single-bound": check_heater_single_bound,
    "heater-multi-bound": check_heater_multi_bound,
    "diffusion-contrast": check_diffusion_contrast,
    "voronoi-coverage": check_voronoi_coverage,
    "operator-properties": check_operator_properties,
}


def run_checks(
    names: Optional[Sequence[str]] = None, golden_dir: Optional[Path] = None
) -> list[CheckResult]:
    selected = list(CHECKS) if not names else list(names)
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            result = CHECKS[name](golden_dir)
        except Exception as exc:  # a broken check fails; it must not stop the run
            result = CheckResult(name=name, expected="check to run", got=f"error: {exc}", passed=False)
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
