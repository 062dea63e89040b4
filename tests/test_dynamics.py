import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errdiff.dynamics import (
    InfeasibleRequestError,
    fixed_request,
    project_feasible,
    run_trace,
    step_perfect,
    step_persistent,
    uniform_request,
)
from errdiff.geometry import ORIGIN, PointSet, convex_hull
from errdiff.operators import feasible_hull
from errdiff.resources import PVParams, pv_triangle
from errdiff.simulate import compute_metrics

from conftest import poly, pt
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
        y, error = step_perfect(ORIGIN, pt(-15, 0), HEATER)
        assert y == pt(-15, 0)
        assert error == ORIGIN

    def test_midpoint_request_ties_to_lexicographic_smaller(self):
        y, error = step_perfect(ORIGIN, pt("-15/2", 0), HEATER)
        assert y == pt(-15, 0)
        assert error == pt("15/2", 0)

    def test_repeating_midpoint_duty_cycles(self):
        error = ORIGIN
        seen = []
        for _ in range(6):
            y, error = step_perfect(error, pt("-15/2", 0), HEATER)
            seen.append(y)
        assert seen == [pt(-15, 0), pt(0, 0)] * 3
        assert error == ORIGIN

    def test_greedy_optimality_over_finite_set(self):
        rng = random.Random(2)
        sites = PointSet((pt(0, 0), pt(2, 1), pt(-1, 3), pt(4, -2)))
        error = ORIGIN
        advert = sites.hull()
        for k in range(60):
            request = uniform_request(denominator=32)(advert, error, rng)
            target = error + request
            y, error = step_perfect(error, request, sites)
            assert all(error.norm2() <= dist2(target, s) for s in sites.points)


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

        def replay(advert, error, rng):
            return next(seq)

        persistent = run_trace("persistent", lambda n: sites, replay, len(requests), seed=0)
        seq = iter(requests)
        perfect = run_trace("perfect", lambda n: sites, replay, len(requests), seed=0)
        for a, b in zip(persistent.records, perfect.records):
            assert (a.requested, a.implemented, a.error) == (b.requested, b.implemented, b.error)


class TestRunTrace:
    def test_zero_horizon(self):
        trace = run_trace("perfect", lambda n: HEATER, fixed_request(pt(0, 0)), 0)
        assert trace.records == []
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
            uniform_request(denominator=16),
            300,
            seed=8,
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
            uniform_request(denominator=16),
            300,
            seed=8,
        )
        errors = trace.errors()
        for k, r in enumerate(trace.records):
            assert errors[k + 1] == r.error + r.requested - r.implemented
            assert r.advertised.contains_point(r.requested)

    def test_average_error_identity(self):
        trace = run_trace(
            "perfect", lambda n: HEATER, fixed_request(pt("-15/2", 0)), 101, seed=0
        )
        n = len(trace.records)
        metrics = compute_metrics(trace, None)
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
            "perfect", lambda n: pool[n % 2], uniform_request(denominator=32), 40, seed=6
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
                uniform_request(denominator=64),
                400,
                seed=trial,
            )
            assert trace.max_error_norm2() <= bound_sq
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
            run_trace("persistent", [HEATER] * 5, lambda a, e, r: next(replay), 5)

    def test_persistent_requests_checked_without_diffusion(self):
        # x[2] is drawn from the hull of S[1] = {0}, which excludes (1, 0)
        sets = [PointSet((pt(1, 0),)), PointSet((pt(0, 0),)), PointSet((pt(0, 0),))]
        with pytest.raises(InfeasibleRequestError):
            run_trace("persistent", sets, fixed_request(pt(1, 0)), 3, diffusion=False)

    def test_persistent_loop_matches_z_recursion(self):
        params = PVParams(p_max=Fraction(4), tan_phi=Fraction(1, 2))
        caps = [Fraction(4 * (40 - n), 40) for n in range(41)]
        sets = [pv_triangle(params, cap) for cap in caps]
        trace = run_trace("persistent", sets, uniform_request(denominator=32), len(sets), seed=3)
        records = trace.records
        z = records[0].requested
        for now, nxt in zip(records, records[1:]):
            assert nxt.advertised == feasible_hull(now.feasible)
            y, z = step_persistent(z, nxt.requested, now.feasible)
            assert y == now.implemented
            assert z - nxt.requested == nxt.error
        assert any(r.error != ORIGIN for r in records)


class TestLoopMatchesSteps:
    """The loop's e-form against the step functions iterated by hand."""

    @settings(max_examples=60, deadline=None)
    @given(schedules, st.integers(0, 2**16))
    def test_persistent_loop_is_the_z_recursion(self, sets, seed):
        trace = run_trace("persistent", sets, uniform_request(denominator=8), len(sets), seed=seed)
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
        trace = run_trace(
            "perfect", sets, uniform_request(denominator=8), len(sets), seed=seed, diffusion=diffusion
        )
        error = ORIGIN
        for r in trace.records:
            assert r.error == error
            if diffusion:
                y, error = step_perfect(error, r.requested, r.feasible)
            else:
                # the bare request is projected; the miss still accumulates
                y = project_feasible(r.feasible, r.requested)
                error = error + r.requested - y
            assert y == r.implemented
        assert trace.final_error == error
