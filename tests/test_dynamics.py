import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from errdiff.dynamics import (
    InfeasibleRequestError,
    fixed_request,
    project_feasible,
    run_resource_loop,
    run_trace,
    step_perfect,
    step_persistent,
    uniform_request,
)
from errdiff.geometry import ORIGIN, PointSet, convex_hull, project_convex_polygon
from errdiff.operators import feasible_hull
from errdiff.resources import PVParams, pv_triangle
from errdiff.simulate import (
    CentralPolicy,
    GradientRequests,
    PVUnit,
    QuadraticCost,
    RandomWave,
    central_step,
    compute_metrics,
)

from conftest import poly, pt
import fraction_kernel as oracle
from fraction_kernel import diameter_sq, dist2


HEATER = PointSet((pt(-15, 0), pt(0, 0)))  # consumption setpoints, embedded at Q=0

coords = st.fractions(min_value=-3, max_value=3, max_denominator=2)
points = st.builds(pt, coords, coords)
# Finite sets, and the convex members: a point, a segment or a triangle.
feasible_sets = st.one_of(
    st.lists(points, min_size=1, max_size=4).map(lambda ps: PointSet(tuple(ps))),
    st.lists(points, min_size=1, max_size=3).map(convex_hull),
)
schedules = st.lists(feasible_sets, min_size=1, max_size=8)


class TestStepPerfect:
    def test_implementable_request_leaves_no_error(self):
        y, error = step_perfect(ORIGIN, pt(-15, 0), HEATER, {})
        assert y == pt(-15, 0)
        assert error == ORIGIN

    def test_midpoint_request_ties_to_lexicographic_smaller(self):
        y, error = step_perfect(ORIGIN, pt("-15/2", 0), HEATER, {})
        assert y == pt(-15, 0)
        assert error == pt("15/2", 0)

    def test_repeating_midpoint_duty_cycles(self):
        error = ORIGIN
        seen = []
        for _ in range(6):
            y, error = step_perfect(error, pt("-15/2", 0), HEATER, {})
            seen.append(y)
        assert seen == [pt(-15, 0), pt(0, 0)] * 3
        assert error == ORIGIN

    def test_greedy_optimality_over_finite_set(self):
        rng = random.Random(2)
        sites = PointSet((pt(0, 0), pt(2, 1), pt(-1, 3), pt(4, -2)))
        error = ORIGIN
        advert = sites.hull()
        draw = uniform_request(rng, 32)
        for k in range(60):
            request = draw(advert)
            target = error + request
            y, error = step_perfect(error, request, sites, {})
            assert all(error.norm2() <= dist2(target, s) for s in sites.points)


    def test_memo_hit_inside_the_set_returns_the_target_itself(self):
        square = poly((0, 0), (2, 0), (2, 2), (0, 2))
        projections = {}
        for _ in range(2):
            request = pt(1, 1)  # a new object each time, equal to the last
            y, error = step_perfect(ORIGIN, request, square, projections)
            assert y is request
            assert error is ORIGIN
        assert len(projections) == 1

    def test_memo_hit_outside_the_set_returns_the_projection(self):
        projections = {}
        first = step_perfect(pt(1, 0), pt(-1, 0), HEATER, projections)
        assert step_perfect(pt(1, 0), pt(-1, 0), HEATER, projections) == first
        assert first == step_perfect(pt(1, 0), pt(-1, 0), HEATER, {})


class TestStepPersistent:
    def test_request_at_carried_point_clears_error(self):
        sites = PointSet((pt(2, 1), pt(0, 0)))
        y, z = step_persistent(pt(2, 1), pt(0, 0), sites)  # z[0] = x[0] = (2, 1)
        assert y == pt(2, 1)
        assert z == pt(0, 0)  # z[1] = x[1]: no error carried

    def test_pv_shrink_absorbs_error_into_carried_request(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        wide = pv_triangle(params, 1)
        shrunk = pv_triangle(params, 0)  # irradiance vanished: only the origin
        x0 = pt(1, 0)
        y0, z = step_persistent(x0, x0, wide)  # advertise wide again, x1 = x0
        assert y0 == x0 and z - x0 == ORIGIN
        # next step the set collapses; the only admissible request is origin
        y1, z = step_persistent(z, pt(0, 0), shrunk)
        assert y1 == pt(0, 0)
        assert z - pt(0, 0) == x0  # the miss is carried exactly

    def test_constant_sets_match_perfect_mode(self):
        sites = PointSet((pt(0, 0), pt(3, 0), pt(0, 3)))
        requests = [pt("3/2", 0), pt(1, 1), pt(0, 3), pt("1/2", "1/2"), pt(2, 0)]
        seq = iter(requests + [pt(0, 0)])

        def replay(advert):
            return next(seq)

        persistent = run_trace("persistent", lambda n: sites, replay, len(requests))
        seq = iter(requests)
        perfect = run_trace("perfect", lambda n: sites, replay, len(requests))
        for a, b in zip(persistent.records, perfect.records):
            assert (a.requested, a.implemented, a.error) == (b.requested, b.implemented, b.error)


class TestRunTrace:
    def test_zero_horizon(self):
        trace = run_trace("perfect", lambda n: HEATER, fixed_request(pt(0, 0)), 0)
        assert trace.records == ()
        assert trace.final_error == ORIGIN

    def test_exact_recursion_identity(self):
        rng_sets = random.Random(4)
        pool = [
            PointSet((pt(0, 0), pt(2, 0), pt(0, 2))),
            PointSet((pt(1, 1),)),
            PointSet((pt(-2, 0), pt(2, 0))),
        ]
        trace = run_trace(
            "perfect",
            lambda n: pool[rng_sets.randrange(3)],
            uniform_request(random.Random(8), 16),
            300,
        )
        errors = trace.errors()
        for k, r in enumerate(trace.records):
            assert errors[k + 1] == r.error + r.requested - r.implemented

    def test_recursion_identity_persistent(self):
        pool = [
            PointSet((pt(0, 0), pt(2, 0), pt(0, 2))),
            PointSet((pt(0, 0),)),
        ]
        rng_sets = random.Random(9)
        trace = run_trace(
            "persistent",
            lambda n: pool[rng_sets.randrange(2)],
            uniform_request(random.Random(8), 16),
            300,
        )
        errors = trace.errors()
        for k, r in enumerate(trace.records):
            assert errors[k + 1] == r.error + r.requested - r.implemented
            assert r.advertised.contains_point(r.requested)

    def test_average_error_identity(self):
        trace = run_trace("perfect", lambda n: HEATER, fixed_request(pt("-15/2", 0)), 101)
        n = len(trace.records)
        metrics = compute_metrics(trace, Fraction(225, 4))
        assert metrics.average_requested == pt("-15/2", 0)
        avg_gap = metrics.average_implemented - metrics.average_requested
        assert avg_gap == (trace.errors()[0] - trace.final_error) * Fraction(1, n)

    def test_no_diffusion_baseline_grows_linearly(self):
        horizon = 50
        biased = run_trace(
            "perfect",
            lambda n: HEATER,
            fixed_request(pt("-15/2", 0)),
            horizon,
            diffusion=False,
        )
        for n, e in enumerate(biased.errors()):
            assert e == pt(Fraction(15, 2) * n, 0)

    def test_callable_and_sequence_sources_agree(self):
        pool = [HEATER, PointSet((pt(0, 0),))]
        seq_trace = run_trace("perfect", pool * 5, fixed_request(pt(0, 0)), 10)
        fn_trace = run_trace("perfect", lambda n: pool[n % 2], fixed_request(pt(0, 0)), 10)
        assert [r.implemented for r in seq_trace.records] == [
            r.implemented for r in fn_trace.records
        ]

    def test_mixed_finite_and_continuous_sets_per_step(self):
        from errdiff.geometry import convex_hull

        triangle = convex_hull((pt(0, 0), pt(2, 0), pt(0, 2)))
        pool = [HEATER, triangle]
        trace = run_trace(
            "perfect", lambda n: pool[n % 2], uniform_request(random.Random(6), 32), 40
        )
        errors = trace.errors()
        for k, r in enumerate(trace.records):
            assert errors[k + 1] == r.error + r.requested - r.implemented
        # continuous steps project onto the polygon, finite steps onto the set
        assert any(r.implemented not in HEATER.points for r in trace.records[1::2])

    def test_persistent_error_bounded_by_invariant_domain_diameter(self):
        """With an invariant domain containing every feasible set and the
        carried request starting inside it, the error never exceeds the
        domain's diameter."""
        from errdiff.operators import (
            Collection,
            IterationConfig,
            check_invariance,
            iterate_to_invariance,
        )

        rng = random.Random(21)
        exercised = 0
        for trial in range(12):
            pool = [
                PointSet(
                    tuple(
                        pt(rng.randint(0, 6), rng.randint(0, 6))
                        for _ in range(rng.randint(1, 5))
                    )
                )
                for _ in range(rng.randint(1, 3))
            ]
            col = Collection(tuple(pool), "persistent")
            seed_domain = convex_hull(p for s in pool for p in s.points)
            result = iterate_to_invariance(
                col, seed_domain, IterationConfig(max_iterations=200, max_coordinate_bits=192)
            )
            if not result.converged:
                continue
            domain = result.invariant_set
            assert check_invariance(col, domain)
            bound_sq = diameter_sq(domain)
            picker = random.Random(trial)
            trace = run_trace(
                "persistent",
                lambda n: pool[picker.randrange(len(pool))],
                uniform_request(random.Random(trial), 64),
                400,
            )
            assert compute_metrics(trace, bound_sq).bound_satisfied
            exercised += 1
        assert exercised >= 4


class TestControllerLoop:
    def test_infeasible_request_raises(self):
        with pytest.raises(InfeasibleRequestError):
            run_trace("perfect", [HEATER], fixed_request(pt(1, 0)), 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_trace("clairvoyant", [HEATER], fixed_request(pt(0, 0)), 1)

    def test_persistent_reads_each_set_once(self):
        reads = []

        def sets(n):
            reads.append(n)
            return HEATER

        run_trace("persistent", sets, fixed_request(pt(0, 0)), 7)
        assert reads == list(range(7))

    def test_persistent_first_request_is_checked(self):
        replay = iter([pt(1, 0)] + [pt(0, 0)] * 5)
        with pytest.raises(InfeasibleRequestError):
            run_trace("persistent", [HEATER] * 5, lambda advertised: next(replay), 5)

    def test_persistent_requests_checked_without_diffusion(self):
        # x[2] is drawn from the hull of S[1] = {0}, which excludes (1, 0)
        sets = [PointSet((pt(1, 0),)), PointSet((pt(0, 0),)), PointSet((pt(0, 0),))]
        with pytest.raises(InfeasibleRequestError):
            run_trace("persistent", sets, fixed_request(pt(1, 0)), 3, diffusion=False)

    def test_persistent_loop_matches_z_recursion(self):
        params = PVParams(p_max=Fraction(4), tan_phi=Fraction(1, 2))
        caps = [Fraction(4 * (40 - n), 40) for n in range(41)]
        sets = [pv_triangle(params, cap) for cap in caps]
        trace = run_trace("persistent", sets, uniform_request(random.Random(3), 32), len(sets))
        records = trace.records
        z = records[0].requested
        for now, nxt in zip(records, records[1:]):
            assert nxt.advertised == feasible_hull(now.feasible)
            y, z = step_persistent(z, nxt.requested, now.feasible)
            assert y == now.implemented
            assert z - nxt.requested == nxt.error
        assert any(r.error != ORIGIN for r in records)


class TestUniformRequest:
    @pytest.mark.parametrize("denominator", [0, -3])
    def test_denominator_below_one_is_refused_when_built(self, denominator):
        rng = random.Random(0)
        with pytest.raises(ValueError, match=f"denominator must be at least 1, got {denominator}"):
            uniform_request(rng, denominator)
        assert rng.getstate() == random.Random(0).getstate()

    def test_draws_from_the_stream_it_is_given(self):
        """On the segment from (0, 0) to (16, 0) with denominator 16, each
        request is (k, 0) for the stream's next randrange(17)."""
        draw = uniform_request(random.Random(3), 16)
        replay = random.Random(3)
        along = convex_hull((pt(0, 0), pt(16, 0)))
        assert [draw(along) for _ in range(8)] == [pt(replay.randrange(17), 0) for _ in range(8)]


class TestLoopMatchesSteps:
    """The loop's e-form against the step functions iterated by hand."""

    @settings(max_examples=60, deadline=None)
    @given(schedules, st.integers(0, 2**16))
    def test_persistent_loop_is_the_z_recursion(self, sets, seed):
        requests = uniform_request(random.Random(seed), 8)
        trace = run_trace("persistent", sets, requests, len(sets))
        records = trace.records
        z = records[0].requested  # z[0] = e[0] + x[0] with e[0] = 0
        for now, nxt in zip(records, records[1:]):
            y, z = step_persistent(z, nxt.requested, now.feasible)
            assert y == now.implemented
            assert z - nxt.requested == nxt.error
        last = records[-1]
        assert project_feasible(last.feasible, z) == last.implemented
        assert trace.final_error == z - last.implemented

    @settings(max_examples=60, deadline=None)
    @given(schedules, st.integers(0, 2**16), st.booleans())
    def test_perfect_loop_iterates_step_perfect(self, sets, seed, diffusion):
        requests = uniform_request(random.Random(seed), 8)
        trace = run_trace("perfect", sets, requests, len(sets), diffusion=diffusion)
        error = ORIGIN
        for r in trace.records:
            assert r.error == error
            if diffusion:
                y, error = step_perfect(error, r.requested, r.feasible, {})
            else:
                # the bare request is projected; the miss still accumulates
                y = project_feasible(r.feasible, r.requested)
                error = error + r.requested - y
            assert y == r.implemented
        assert trace.final_error == error


class _Replay:
    """A fixed list of sets as a set source, for the loop and its oracle alike."""

    def __init__(self, prediction, sets):
        self.prediction, self.sets, self.n = prediction, sets, 0

    def feasible_set(self):
        return self.sets[self.n]

    def advance(self, implemented):
        self.n += 1


@st.composite
def recurring_runs(draw):
    """A schedule cycling through one to three sets, in either mode, with or
    without diffusion, under a request policy whose draws recur: grid points
    of the advertisement with denominator 1 or 2, projected gradient steps,
    or the origin, which every set then holds, so that steps differ only in
    their set and advertisement."""
    pool = draw(st.lists(feasible_sets, min_size=1, max_size=3))
    kind = draw(st.sampled_from(["grid", "gradient", "origin"]))
    if kind == "grid":
        denominator = draw(st.sampled_from([1, 2]))
        requests = lambda rng: uniform_request(rng, denominator)  # noqa: E731
    elif kind == "gradient":
        policy = CentralPolicy(QuadraticCost(draw(points)), draw(st.sampled_from(["1/2", "1/4"])))
        requests = lambda rng: GradientRequests(policy)  # noqa: E731
    else:
        pool = [
            PointSet((*s.points, ORIGIN))
            if isinstance(s, PointSet)
            else convex_hull((*s.vertices, ORIGIN))
            for s in pool
        ]
        requests = lambda rng: fixed_request(ORIGIN)  # noqa: E731
    picks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=30))
    sets = [pool[k % len(pool)] for k in picks]
    return draw(st.sampled_from(["perfect", "persistent"])), sets, requests, draw(st.booleans())


def _step_fields(r):
    return (r.feasible, r.advertised, r.requested, r.implemented, r.error)


class TestLoopMemo:
    """The loop computes each distinct step once per run, and the answers are the same."""

    @settings(max_examples=200, deadline=None)
    @given(recurring_runs(), st.integers(0, 2**16))
    # Steps 0 and 1 differ only in their error.
    @example(("perfect", [HEATER] * 3, lambda rng: fixed_request(pt("-15/2", 0)), True), 0)
    # Steps 1 and 3 differ only in their advertisement, the hull of the set
    # before: the segment from the origin to (1, 0), then to (0, 1).
    @example(
        (
            "persistent",
            [PointSet((ORIGIN, p)) for p in (pt(1, 0), ORIGIN, pt(0, 1), ORIGIN)],
            lambda rng: fixed_request(ORIGIN),
            True,
        ),
        0,
    )
    def test_step_table_equals_table_free_oracle(self, run, seed):
        """Every record and the final error equal the oracle's, which runs each
        step afresh; steps with equal (set, advertisement, request, error)
        share one record, and steps that differ in any of them do not."""
        mode, sets, requests, diffusion = run
        got = run_resource_loop(
            _Replay(mode, sets), requests(random.Random(seed)), len(sets), diffusion=diffusion
        )
        want = oracle.run_resource_loop(
            _Replay(mode, sets), requests(random.Random(seed)), len(sets), diffusion=diffusion
        )
        assert [_step_fields(r) for r in got.records] == [_step_fields(r) for r in want.records]
        assert got.final_error == want.final_error
        shared = {}
        for g, w in zip(got.records, want.records):
            assert shared.setdefault((w.feasible, w.advertised, w.requested, w.error), g) is g
        assert len(set(map(id, got.records))) == len(shared)

    def test_request_checked_against_each_advertisement(self):
        # The same request under two advertisements: only the first holds it,
        # so a check remembered by request alone would let step 2 through.
        wide, narrow = PointSet((pt(0, 0), pt(2, 0))), PointSet((pt(0, 0),))
        drawn = []

        def request(advertised):
            drawn.append(advertised)
            return pt(1, 0)

        with pytest.raises(InfeasibleRequestError):
            run_trace("perfect", [wide, narrow], request, 2)
        assert drawn == [wide.hull(), narrow.hull()]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(feasible_sets, min_size=1, max_size=3),
        st.lists(st.integers(0, 2), min_size=1, max_size=30),
        points,
        st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]),
        st.booleans(),
    )
    def test_repeating_schedule_equals_iterated_steps(self, pool, picks, center, step, diffusion):
        sets = [pool[k % len(pool)] for k in picks]
        policy = CentralPolicy(QuadraticCost(center), step)
        trace = run_trace("perfect", sets, GradientRequests(policy), len(sets), diffusion=diffusion)
        error = ORIGIN
        request = None
        for feasible, r in zip(sets, trace.records):
            advertised = feasible_hull(feasible)
            if request is None:
                request = project_convex_polygon(advertised, ORIGIN)
            request = central_step(policy, advertised, request)
            assert (r.requested, r.error) == (request, error)
            if diffusion:
                y, error = step_perfect(error, request, feasible, {})
            else:
                y = project_feasible(feasible, request)
                error = error + request - y
            assert y == r.implemented
        assert trace.final_error == error

    def test_fine_availability_grid_is_drawn_lazily(self):
        params = PVParams(p_max=Fraction(4), tan_phi=Fraction(1, 2))
        grid = 10**12
        wave = RandomWave(Fraction(1), Fraction(4), denominator=grid)
        draws = random.Random(5)
        expected = [1 + 3 * Fraction(draws.randrange(grid + 1), grid) for _ in range(6)]
        rng = random.Random(5)
        unit = PVUnit("pv", params, wave, rng=rng)
        policy = CentralPolicy(QuadraticCost(pt(4, 0)))
        trace = run_resource_loop(unit, GradientRequests(policy), 6)
        assert [r.feasible for r in trace.records] == [pv_triangle(params, c) for c in expected]
