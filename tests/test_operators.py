import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errdiff.geometry import (
    ORIGIN,
    ConvexPolygon,
    Point2,
    PointSet,
    convex_hull,
    project_convex_polygon,
)
from errdiff import geometry, operators
from errdiff.intervals import IntervalUnion, apply_g_interval, iterate_1d, max_step_size
from errdiff.operators import (
    Collection,
    IterationConfig,
    MonotoneFamilyReport,
    apply_collection,
    apply_member,
    check_invariance,
    iterate_to_invariance,
    verify_monotone_family,
)
from errdiff.resources import PVParams, pv_triangle, pv_triangle_family

from conftest import STALL_COLLECTION, poly, pt
from fraction_kernel import bisectors, clip_all, dist2, interval_contains, minkowski_sum

ORIGIN_POLY = ConvexPolygon((ORIGIN,))

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)
points = st.builds(Point2, rationals, rationals)
point_sets = st.lists(points, min_size=1, max_size=5).map(lambda ps: PointSet(tuple(ps)))
regions = st.lists(points, min_size=1, max_size=5).map(convex_hull)


def brute_g_single(sites: PointSet, region: ConvexPolygon, probes):
    """Definitional oracle for membership in the convexified error-set image:
    collect (shifted ∩ cell) - c sample points and hull them."""
    shifted = minkowski_sum(sites.hull(), region)
    pts = []
    for c in sites.points:
        piece = clip_all(shifted, bisectors(sites, c))
        pts.extend(v - c for v in piece.vertices)
    return convex_hull(pts)


class TestApplyGSingle:
    def test_singleton_site_returns_region(self):
        s = PointSet((pt(5, -2),))
        region = poly((0, 0), (1, 0), (0, 1))
        assert apply_member(s, region, "perfect") == region

    def test_two_point_set_halves_into_segment(self):
        s = PointSet((pt(-1, 0), pt(1, 0)))
        got = apply_member(s, ORIGIN_POLY, "perfect")
        # hand evaluation: both cell pieces recenter to [0,1] and [-1,0]
        assert got == poly((-1, 0), (1, 0))
        # cross-check with the exact 1D engine
        fixed = iterate_1d([( -1, 1)], IntervalUnion.singleton(0))
        lo, hi = fixed.bounds()
        assert (lo, hi) == (Fraction(-1), Fraction(1))

    def test_grid8_fixed_after_one_application(self, grid8):
        first = apply_member(grid8, ORIGIN_POLY, "perfect")
        second = apply_member(grid8, first, "perfect")
        assert first == second

    def test_continuum_polygon_member(self, unit_square):
        # a convex-set member: image must still contain the region
        got = apply_member(unit_square, ORIGIN_POLY, "perfect")
        assert got.contains_point(ORIGIN)

    @settings(max_examples=40, deadline=None)
    @given(point_sets, regions)
    def test_extensivity(self, sites, region):
        assert apply_member(sites, region, "perfect").contains_polygon(region)

    @settings(max_examples=30, deadline=None)
    @given(point_sets, regions, st.lists(points, max_size=3))
    def test_monotonicity(self, sites, region, extra):
        bigger = convex_hull(tuple(region.vertices) + tuple(extra))
        small_img = apply_member(sites, region, "perfect")
        big_img = apply_member(sites, bigger, "perfect")
        assert big_img.contains_polygon(small_img)


class TestApplyGCollection:
    def test_singleton_collection_equals_single(self, grid8):
        col = Collection((grid8,), "perfect")
        region = poly((0, 0), (1, 1), (0, 1))
        assert apply_collection(col, region) == apply_member(grid8, region, "perfect")

    def test_duplicate_members_are_idempotent(self, grid8):
        col = Collection((grid8, grid8), "perfect")
        region = poly((0, 0), (1, 1), (0, 1))
        assert apply_collection(col, region) == apply_member(grid8, region, "perfect")

    def test_unknown_mode_rejected(self, grid8):
        with pytest.raises(ValueError):
            apply_member(grid8, ORIGIN_POLY, "bogus")
        with pytest.raises(ValueError):
            Collection((grid8,), "bogus")


class TestApplyP:
    def test_point_set_and_domain_at_site(self):
        c = pt(2, 1)
        s = PointSet((c,))
        assert apply_member(s, ConvexPolygon((c,)), "persistent") == ConvexPolygon((c,))

    @settings(max_examples=40, deadline=None)
    @given(point_sets, regions)
    def test_extensivity(self, sites, domain):
        assert apply_member(sites, domain, "persistent").contains_polygon(domain)

    def test_pv_triangle_family_fixed_point(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        full = pv_triangle(params, 1)
        for cap in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            member = pv_triangle(params, cap)
            assert apply_member(member, full, "persistent") == full

    def test_pv_segment_family_fixed_point(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(0))
        full = pv_triangle(params, 1)
        for cap in (Fraction(0), Fraction(1, 2), Fraction(1)):
            assert apply_member(pv_triangle(params, cap), full, "persistent") == full

    def test_continuum_image_matches_definitional_sampling(self, unit_square):
        # oracle: z in domain maps to z - proj(z) + s for all s in the member;
        # all such witnesses must land inside the computed convex image
        member = poly((0, 0), (2, 0), (2, 2), (0, 2))
        domain = poly((-1, -1), (3, -1), (3, 3), (-1, 3))
        image = apply_member(member, domain, "persistent")
        rng = random.Random(3)
        for _ in range(80):
            z = pt(Fraction(rng.randint(-4, 12), 4), Fraction(rng.randint(-4, 12), 4))
            if not domain.contains_point(z):
                continue
            c = project_convex_polygon(member, z)
            for _ in range(5):
                s = pt(Fraction(rng.randint(0, 8), 4), Fraction(rng.randint(0, 8), 4))
                if member.contains_point(s):
                    assert image.contains_point(z - c + s)

    def test_collection_is_hull_of_members(self):
        a = PointSet((pt(0, 0), pt(2, 0)))
        b = PointSet((pt(0, 0), pt(0, 2)))
        col = Collection((a, b), "persistent")
        domain = ORIGIN_POLY
        merged = apply_collection(col, domain)
        images = (apply_member(m, domain, "persistent") for m in (a, b))
        assert merged == convex_hull(v for image in images for v in image.vertices)


class TestIteration:
    def test_grid8_converges_in_one_growing_step(self, grid8):
        result = iterate_to_invariance(Collection((grid8,), "perfect"), ORIGIN_POLY)
        assert result.converged and result.iterations == 1
        assert result.status == "converged"
        assert result.invariant_set == poly((-1, -1), (1, -1), (1, 1), (-1, 1))

    def test_zero_budget_returns_seed(self, grid8):
        result = iterate_to_invariance(
            Collection((grid8,), "perfect"), ORIGIN_POLY, IterationConfig(max_iterations=0)
        )
        assert not result.converged and result.status == "budget"
        assert result.invariant_set == ORIGIN_POLY

    def test_fixed_point_is_invariant(self, ring_family):
        col = Collection(ring_family, "perfect")
        result = iterate_to_invariance(col, ORIGIN_POLY, IterationConfig(max_iterations=600))
        assert result.converged
        assert check_invariance(col, result.invariant_set)

    def test_family3_tests_no_voronoi_vertex_inside_a_hull(self, ring_family):
        """Every iterate from the origin holds it, so each fattened region
        contains every member's hull, and the Voronoi vertices in a hull are
        taken without a test.  From (3, -2) the first two iterates do not
        hold the origin, and those vertices are tested."""
        col = Collection(ring_family, "perfect")
        holds = geometry._holds
        assert operators._holds is holds
        inside = {p for member in ring_family for p, _ in operators._cells(member)[3]}
        assert inside

        def tested_vertices(seed):
            tested = []

            def counted_holds(region, p):
                if sys._getframe(1).f_code.co_name == "_site_pieces":  # not the origin test
                    tested.append(p)
                return holds(region, p)

            with mock.patch.object(operators, "_holds", counted_holds):
                result = iterate_to_invariance(col, seed, IterationConfig(max_iterations=600))
            assert result.status == "extrapolated"
            return tested

        assert inside.isdisjoint(tested_vertices(ORIGIN_POLY))
        assert not inside.isdisjoint(tested_vertices(ConvexPolygon((pt(3, -2),))))

    def test_history_monotone_data(self, grid8):
        result = iterate_to_invariance(Collection((grid8,), "perfect"), ORIGIN_POLY)
        assert len(result.history_hashes) == len(result.vertex_counts)
        assert result.vertex_counts[0] == 1

    def test_persistent_iteration_on_pv_family(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        family = Collection(tuple(pv_triangle_family(params, 4)), "persistent")
        result = iterate_to_invariance(family, ORIGIN_POLY, IterationConfig(max_iterations=50))
        assert result.converged
        assert result.invariant_set == pv_triangle(params, 1)

    def test_representation_budget_aborts_cleanly(self):
        result = iterate_to_invariance(
            STALL_COLLECTION, ORIGIN_POLY, IterationConfig(max_iterations=200, max_coordinate_bits=24)
        )
        assert not result.converged
        assert result.status == "bits" and result.aborted
        assert result.iterations == 5

    @pytest.mark.parametrize(
        "x, y, status",
        [
            # Raw X, Y, W = 2**40, 3**26, 2**40 * 3**26 are over the budget;
            # the lowest-terms 1/3**26 and 1/2**40 are not.
            (Fraction(1, 3**26), Fraction(1, 2**40), "converged"),
            (Fraction(1, 2**63), 0, "converged"),  # a 64-bit denominator: at the budget
            (Fraction(1, 2**64), 0, "bits"),  # 65 bits: just over
            (Fraction(2**64 - 1, 3), 1, "converged"),
            (Fraction(-(2**64), 3), 1, "bits"),
        ],
    )
    def test_bit_budget_reads_lowest_terms(self, x, y, status):
        """A one-site perfect member maps every region to itself, so the
        first image is the seed and only the bit budget can stop the run."""
        collection = Collection((PointSet((ORIGIN,)),), "perfect")
        seed = ConvexPolygon((Point2(x, y),))
        result = iterate_to_invariance(collection, seed, IterationConfig(max_coordinate_bits=64))
        assert result.status == status
        assert result.iterations == (0 if status == "converged" else 1)

    def test_stall_collection_ends_on_budget(self):
        # Extrapolation tries every stride and degree at each of the 200
        # steps and finds no limit.
        result = iterate_to_invariance(
            STALL_COLLECTION, ORIGIN_POLY, IterationConfig(max_iterations=200)
        )
        assert (result.status, result.iterations) == ("budget", 200)
        assert not result.converged and not result.aborted


class TestCheckInvariance:
    def test_origin_not_invariant_for_spread_sets(self):
        col = Collection((PointSet((pt(-1, 0), pt(1, 0))),), "perfect")
        assert not check_invariance(col, ORIGIN_POLY)

    def test_removing_a_vertex_breaks_invariance(self, ring_family):
        col = Collection(ring_family, "perfect")
        result = iterate_to_invariance(col, ORIGIN_POLY, IterationConfig(max_iterations=600))
        minimal = result.invariant_set
        assert check_invariance(col, minimal)
        shrunk = convex_hull(minimal.vertices[1:])
        assert not check_invariance(col, shrunk)


class TestIterate1D:
    def test_two_point_set(self):
        fixed = iterate_1d([(-1, 1)], IntervalUnion.singleton(0))
        assert fixed == IntervalUnion.closed(-1, 1)

    def test_singleton(self):
        assert iterate_1d([(0,)], IntervalUnion.singleton(0)) == IntervalUnion.singleton(0)

    def test_two_set_collection(self):
        fixed = iterate_1d([(0, 1), (0, 3)], IntervalUnion.singleton(0))
        assert fixed == IntervalUnion.closed(Fraction(-3, 2), Fraction(3, 2))

    def test_simulation_never_escapes_fixed_point(self):
        sets = [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(3))]
        fixed = iterate_1d(sets, IntervalUnion.singleton(0))
        rng = random.Random(12)
        e = Fraction(0)
        for _ in range(4000):
            values = sets[rng.randrange(2)]
            lo, hi = min(values), max(values)
            x = lo + (hi - lo) * Fraction(rng.randrange(101), 100)
            z = e + x
            y = min(values, key=lambda v: (abs(v - z), v))
            e = z - y
            assert interval_contains(fixed, e)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=6), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_gap_formula(self, raw_sets):
        sets = [tuple(s) for s in raw_sets]
        delta = max_step_size(sets)
        fixed = iterate_1d(sets, IntervalUnion.singleton(0))
        assert fixed == IntervalUnion.closed(-delta / 2, delta / 2)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=4), min_size=1, max_size=5),
        st.lists(
            st.tuples(
                st.fractions(min_value=-6, max_value=6, max_denominator=2),
                st.fractions(min_value=0, max_value=4, max_denominator=2),
            ),
            min_size=1,
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.fractions(min_value=-6, max_value=6, max_denominator=2),
                st.fractions(min_value=0, max_value=4, max_denominator=2),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_additivity_over_unions(self, values, raw_a, raw_b):
        a = IntervalUnion(tuple((lo, lo + w) for lo, w in raw_a))
        b = IntervalUnion(tuple((lo, lo + w) for lo, w in raw_b))
        lhs = apply_g_interval(values, a.union(b))
        rhs = apply_g_interval(values, a).union(apply_g_interval(values, b))
        assert lhs == rhs


class TestMonotoneFamily:
    def test_pv_discretization_passes(self):
        params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
        family = pv_triangle_family(params, 4)
        report = verify_monotone_family(family)
        assert report.ok
        assert report.candidate == pv_triangle(params, 1)

    def test_shuffled_129_member_family_passes_in_n_log_n_tests(self):
        params = PVParams(p_max=Fraction(4), tan_phi=Fraction(1, 2))
        family = pv_triangle_family(params, 128)
        random.Random(7).shuffle(family)
        real = ConvexPolygon.contains_polygon
        with mock.patch.object(ConvexPolygon, "contains_polygon", autospec=True, side_effect=real) as tests:
            report = verify_monotone_family(family)
        assert report.ok and report.reason == ""
        assert report.candidate == pv_triangle(params, params.p_max)
        # A sort's comparisons, the consecutive pairs and one invariance
        # check; every pair would be 8128 tests.
        n = len(family)
        assert tests.call_count <= n * n.bit_length() + n

    def test_incomparable_members_far_apart_fail(self):
        squares = [poly((-k, -k), (k, -k), (k, k), (-k, k)) for k in range(1, 40)]
        wide, tall = poly((-1, 0), (1, 0)), poly((0, -1), (0, 1))
        report = verify_monotone_family([wide, *squares, tall])
        assert report == MonotoneFamilyReport(False, None, "family is not nested")

    def test_disjoint_squares_fail(self):
        a = poly((0, 0), (1, 0), (1, 1), (0, 1))
        b = a.translate(pt(5, 5))
        report = verify_monotone_family([a, b])
        assert not report.ok
        assert "nested" in report.reason

    def test_single_member_passes(self, unit_square):
        report = verify_monotone_family([unit_square])
        assert report.ok and report.candidate == unit_square

    def test_nested_but_skewed_family_fails_closure(self):
        # a diagonal segment inside a square: projecting (1,0) onto the
        # diagonal displaces by (1/2,-1/2), which pushes the segment's top
        # endpoint outside the square
        big = poly((0, 0), (1, 0), (1, 1), (0, 1))
        diag = poly((0, 0), (1, 1))
        report = verify_monotone_family([big, diag])
        assert not report.ok
        assert "closure" in report.reason


class TestDynamicsContainment:
    def test_trace_stays_in_invariant_set(self, ring_family):
        from errdiff.dynamics import run_trace, uniform_request

        col = Collection(ring_family, "perfect")
        result = iterate_to_invariance(col, ORIGIN_POLY, IterationConfig(max_iterations=600))
        assert result.converged
        invariant = result.invariant_set
        rng = random.Random(77)
        trace = run_trace(
            "perfect",
            lambda n: col.sets[rng.randrange(len(col.sets))],
            uniform_request(random.Random(4), 128),
            800,
        )
        assert all(invariant.contains_point(e) for e in trace.errors())

    def test_tightness_probe_reports_coverage(self, ring_family):
        """Long random simulations push the error toward the boundary of
        the invariant set; report the coverage ratio (no hard threshold)."""
        from errdiff.dynamics import run_trace, uniform_request

        col = Collection(ring_family, "perfect")
        result = iterate_to_invariance(col, ORIGIN_POLY, IterationConfig(max_iterations=600))
        invariant = result.invariant_set
        rng = random.Random(5)
        trace = run_trace(
            "perfect",
            lambda n: col.sets[rng.randrange(len(col.sets))],
            uniform_request(random.Random(9), 64),
            4000,
        )
        max_reach = max(e.norm2() for e in trace.errors())
        radius = max(v.norm2() for v in invariant.vertices)
        coverage = float(max_reach) / float(radius)
        print(f"tightness probe coverage ratio: {coverage:.3f}")
        assert 0 < coverage <= 1

    def test_adversarial_policy_returns_farthest_vertex(self):
        def policy(advertised, error, rng):
            """The advertised vertex farthest from the error-cancelling point
            -error; ties go to the lexicographically smallest vertex."""
            target = -error
            return min(advertised.vertices, key=lambda v: (-dist2(v, target), v))

        advert = poly((0, 0), (4, 0), (0, 3))
        # farthest vertex from -e
        assert policy(advert, pt(0, 0), random.Random(0)) == pt(4, 0)
        assert policy(advert, pt(4, 2), random.Random(0)) == pt(4, 0)  # target (-4,-2)
