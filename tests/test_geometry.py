import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from errdiff.geometry import (
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    _extremes,
    as_fraction,
    clip,
    clip_all,
    convex_hull,
    minkowski_sum,
    orient,
    project_convex_polygon,
    project_point_set,
    segment,
)

from conftest import poly, pt
from fraction_kernel import (
    bisectors,
    canonical_from_ccw,
    diameter_sq,
    dist2,
    dot,
    polygon_intersection,
    slack,
)


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)
points = st.builds(Point2, rationals, rationals)
half_planes = (
    st.tuples(rationals, rationals, rationals)
    .filter(lambda t: (t[0], t[1]) != (0, 0))
    .map(lambda t: HalfPlane(*t))
)


def brute_hull(pts):
    """Independent hull oracle: a point is a vertex iff it is not a convex
    combination witness; realized by checking extreme-ness via orientation
    over all pairs (O(n^3), exact)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    extreme = []
    for p in pts:
        others = [q for q in pts if q != p]
        inside = False
        for a, b, c in itertools.combinations(others, 3):
            if _in_triangle(p, a, b, c):
                inside = True
                break
        if not inside:
            for a, b in itertools.combinations(others, 2):
                if orient(a, b, p) == 0 and min(a, b) <= p <= max(a, b):
                    inside = True
                    break
        if not inside:
            extreme.append(p)
    return extreme


def boundary_list_clip(polygon, plane):
    """Oracle: clip's boundary list for any input, always re-canonicalised;
    None when it is empty.

    Vertices with non-negative slack are kept in order and each edge whose
    endpoints have strictly opposite signs adds its crossing point.
    """
    verts = polygon.vertices
    slacks = [slack(plane, v) for v in verts]
    out = []
    for i, (u, su) in enumerate(zip(verts, slacks)):
        j = (i + 1) % len(verts)
        v, sv = verts[j], slacks[j]
        if su >= 0:
            out.append(u)
        if su * sv < 0:
            out.append(u + (v - u) * (su / (su - sv)))
    return canonical_from_ccw(out) if out else None


@st.composite
def clip_cases(draw):
    """A polygon (possibly a point or segment) and a half-plane that is free,
    passes through a vertex, or contains a chord or edge of the polygon."""
    region = convex_hull(draw(st.lists(points, min_size=1, max_size=6)))
    verts = region.vertices
    kind = draw(st.sampled_from(["free", "vertex", "chord"]))
    if kind == "free":
        return region, draw(half_planes)
    u = draw(st.sampled_from(verts))
    if kind == "chord" and len(verts) > 1:
        w = draw(st.sampled_from([v for v in verts if v != u]))
        a, b = w.y - u.y, u.x - w.x
    else:
        a, b = draw(st.tuples(rationals, rationals).filter(lambda t: t != (0, 0)))
    return region, HalfPlane(a, b, a * u.x + b * u.y)


def _in_triangle(p, a, b, c):
    if orient(a, b, c) == 0:
        return False  # degenerate triangle: the segment check handles it
    d1, d2, d3 = orient(a, b, p), orient(b, c, p), orient(c, a, p)
    return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)


class TestPoint2:
    def test_arithmetic_is_exact(self):
        a = pt("1/3", "2/7")
        b = pt("1/6", "3/7")
        assert a + b == pt("1/2", "5/7")
        assert a - b == pt("1/6", "-1/7")
        assert (a * Fraction(3)).x == 1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Point2(0.5, 1)

    def test_lexicographic_order(self):
        assert pt(0, 5) < pt(1, -10)
        assert pt(1, -10) < pt(1, 0)


def _outcome(read, *args):
    """read(*args), or the type and message of the error it raises."""
    try:
        return read(*args)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        return type(exc), str(exc)


def _fraction_triple(x, y):
    """The triple of (Fraction(x), Fraction(y)), built from the Fractions."""
    fx, fy = Fraction(x), Fraction(y)
    w = math.lcm(fx.denominator, fy.denominator)
    return fx.numerator * (w // fx.denominator), fy.numerator * (w // fy.denominator), w


_signs = st.sampled_from(["", "-", "+"])
_pads = st.sampled_from(["", "0", "00"])
_spaces = st.sampled_from(["", " ", "\t", "\n ", "\u3000"])
# Exponents stay far inside the integer string digit limit, whose smallest
# non-zero value is 640; beyond it the reader refuses them (TestExponentBound).
_exponents = st.integers(-400, 400).map(str) | st.sampled_from(["+5", "-0", "1_0", "0_1", "+00"])
_rational_text = st.one_of(
    st.builds(lambda s, p, n: f"{s}{p}{n}", _signs, _pads, st.integers(0, 10**40)),
    st.builds(
        lambda s, p, n, d: f"{s}{p}{n}/{p}{d}", _signs, _pads, st.integers(0, 10**6), st.integers(0, 10**6)
    ),
    st.builds(
        lambda s, n, f, e: f"{s}{n}.{f}" + (f"e{e}" if e is not None else ""),
        _signs, st.sampled_from(["", "0", "12"]), st.sampled_from(["", "5", "125", "0_5"]), st.none() | _exponents,
    ),
    st.builds(lambda n, mark, e: f"{n}{mark}{e}", st.integers(-99, 99), st.sampled_from("eE"), _exponents),
    st.builds(lambda a, t, b: f"{a}{t}{b}", _spaces, st.integers(-99, 99).map(str), _spaces),
    st.text(alphabet="0123456789-+/._ \u0661\u0663", max_size=8),
    st.sampled_from([
        "6/4", "-0/5", "0/0", "1/0", "-1/0", "0/1", "1e400", "-1e-400", "1_000", "1__0", "_1", "1_",
        "1_0/2_0", "1/-2", "--1", "+-1", "1/ 2", "1 /2", " 3/4 ", "1.", ".5", ".", "1e", "e5", "1.e3",
        "1/2e3", "1e1.5", "1e400x", "0x10", "inf", "nan", "\u0661\u0662", "\u0663/\u0664",
        "\u0661.\u0665", "\uff11", "", " ", "-", "/", "1" * 5000, "-" + "7" * 5000,
        "1/" + "3" * 5000, "1" * 5000 + "/0", "0." + "1" * 5000,
    ]),
)
_readable = st.one_of(st.integers(), st.fractions(), _rational_text)


class TestReader:
    """`geometry._ratio` reads what Fraction reads, and fails as Fraction fails."""

    @settings(max_examples=400, deadline=None)
    @given(_readable, _readable)
    @example("6/4", "-0/5")
    @example("0/0", "1/0")
    @example(" 12 ", "+3/4")
    @example("1.25e-3", "1_000")
    @example("\u0661\u0662", "\u0663/\u0664")
    @example("1" * 5000, "1")
    def test_point_reads_as_fraction(self, x, y):
        assert _outcome(lambda: Point2(x, y)._t) == _outcome(_fraction_triple, x, y)
        assert _outcome(as_fraction, x) == _outcome(Fraction, x)

    @given(_readable, _readable, _readable)
    def test_half_plane_reads_as_fraction(self, a, b, c):
        got = _outcome(lambda: HalfPlane(a, b, c).ints)
        want = _outcome(lambda: HalfPlane(Fraction(a), Fraction(b), Fraction(c)).ints)
        assert got == want

    @pytest.mark.parametrize("value", [True, False, 0.5, 1.0, float("nan"), None, [1]])
    def test_non_rationals_rejected(self, value):
        message = f"expected a rational value, got {type(value).__name__}"
        for read in (lambda: Point2(value, 1), lambda: Point2(1, value), lambda: as_fraction(value)):
            with pytest.raises(TypeError) as info:
                read()
            assert str(info.value) == message


class TestExponentBound:
    """A decimal exponent beyond the integer string digit limit in magnitude
    is refused before Fraction builds its power of ten."""

    @pytest.mark.parametrize("text", ["1e4301", "1E-4301", "2.5e+10000000", " -1e10000000 "])
    def test_refused(self, text, digit_limit):
        with pytest.raises(ValueError) as info:
            Point2(0, text)
        assert str(info.value) == f"exponent in {text!r} exceeds 4300, the integer string digit limit"

    @pytest.mark.parametrize("text", ["1e400", "1e4300", "-1e-4300", "0.5e4300"])
    def test_within_the_limit(self, text, digit_limit):
        assert Point2(text, 0) == Point2(Fraction(text), 0)

    @pytest.mark.parametrize(
        "text", ["1/2e99999999", "1e99999999x", "x1e99999999", "1e99999999.5", "1e" + "9" * 5000]
    )
    def test_malformed_keeps_fractions_error(self, text, digit_limit):
        assert _outcome(Point2, text, 0) == _outcome(Fraction, text)

    def test_no_limit(self, digit_limit):
        sys.set_int_max_str_digits(0)
        assert Point2("1e5000", 0) == Point2(10**5000, 0)


class TestExtremes:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(points, min_size=1, max_size=8), st.integers(-5, 5), st.integers(-5, 5))
    def test_first_min_and_max(self, pts, a, b):
        """The first triples of smallest and largest (a*X + b*Y)/W, as a brute
        force over Fractions finds them, each with its a*X + b*Y."""
        ts = [p._t for p in pts]
        values = [a * p.x + b * p.y for p in pts]
        (lo, lo_s), (hi, hi_s) = _extremes(ts, a, b)
        assert lo is ts[values.index(min(values))]
        assert hi is ts[values.index(max(values))]
        assert (lo_s, hi_s) == (a * lo[0] + b * lo[1], a * hi[0] + b * hi[1])

    def test_ties_return_the_first(self):
        ts = [pt(1, 0)._t, pt(0, 1)._t, pt(1, 1)._t, pt("1/2", "1/2")._t]
        (lo, _), (hi, _) = _extremes(ts, 1, 1)
        assert lo is ts[0] and hi is ts[2]
        (lo, _), (hi, _) = _extremes(ts, 0, 0)
        assert lo is hi is ts[0]


class TestConvexHull:
    def test_single_point(self):
        assert convex_hull([pt(0, 0)]).vertices == (pt(0, 0),)

    def test_interior_point_absorbed(self):
        square = poly((-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0))
        assert len(square.vertices) == 4
        assert pt(0, 0) not in square.vertices
        assert square.contains_point(pt(0, 0))

    def test_grid8_hull_is_rectangle(self, grid8):
        hull = grid8.hull()
        assert hull.vertices == (pt(-1, -1), pt(5, -1), pt(5, 1), pt(-1, 1))

    def test_collinear_points_give_segment(self):
        seg = convex_hull([pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)])
        assert seg.vertices == (pt(0, 0), pt(3, 3))

    def test_every_input_point_inside(self):
        rng = random.Random(5)
        for _ in range(30):
            pts = [pt(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 12))]
            hull = convex_hull(pts)
            assert all(hull.contains_point(p) for p in pts)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=9))
    def test_hull_matches_brute_force_extremes(self, pts):
        hull = convex_hull(pts)
        assert sorted(hull.vertices) == brute_hull(pts)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=1, max_size=8))
    def test_hull_idempotent(self, pts):
        hull = convex_hull(pts)
        assert convex_hull(hull.vertices) == hull

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=1, max_size=6), st.lists(points, max_size=4))
    def test_hull_monotone_in_inclusion(self, pts, extra):
        small = convex_hull(pts)
        big = convex_hull(pts + extra)
        assert big.contains_polygon(small)


class TestCanonicalForm:
    def test_equality_is_set_equality(self):
        a = poly((0, 0), (2, 0), (1, 1))
        b = poly((1, 1), (0, 0), (2, 0), (1, "1/2"))
        assert a == b

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((pt(1, 0), pt(0, 0), pt(1, 1)))

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            ConvexPolygon((pt(0, 0), pt(0, 1), pt(1, 0)))

    def test_pentagram_rejected(self):
        """Every consecutive turn is a strict left turn, but the boundary winds twice."""
        star = (pt(-10, -3), pt(10, -3), pt(-6, 8), pt(0, -10), pt(6, 8))
        assert all(orient(star[i], star[(i + 1) % 5], star[(i + 2) % 5]) > 0 for i in range(5))
        with pytest.raises(ValueError):
            ConvexPolygon(star)

    def test_degenerate_forms(self):
        assert len(ConvexPolygon((pt(1, 2),)).vertices) == 1
        assert segment(pt(1, 0), pt(0, 0)).vertices == (pt(0, 0), pt(1, 0))

    @pytest.mark.parametrize("build", [ConvexPolygon, convex_hull])
    @pytest.mark.parametrize("empty", [(), [], iter(())], ids=["tuple", "list", "iterator"])
    def test_empty_vertex_list_refused(self, build, empty):
        """There is no empty polygon: both ways of building one refuse it."""
        with pytest.raises(ValueError, match="^a convex polygon needs at least one vertex$"):
            build(empty)


class TestMinkowski:
    def test_point_is_identity(self, unit_square):
        origin = ConvexPolygon((pt(0, 0),))
        assert minkowski_sum(unit_square, origin) == unit_square

    def test_orthogonal_segments_make_square(self, unit_square):
        horizontal = segment(pt(0, 0), pt(1, 0))
        vertical = segment(pt(0, 0), pt(0, 1))
        assert minkowski_sum(horizontal, vertical) == unit_square

    def test_empty_rejected(self, unit_square):
        """An empty operand is refused where it is built, before the sum runs."""
        with pytest.raises(ValueError, match="needs at least one vertex"):
            minkowski_sum(unit_square, convex_hull([]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=6), st.lists(points, min_size=1, max_size=6))
    def test_matches_pairwise_sum_oracle(self, pa, pb):
        p, q = convex_hull(pa), convex_hull(pb)
        oracle = convex_hull(u + v for u in p.vertices for v in q.vertices)
        assert minkowski_sum(p, q) == oracle

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=1, max_size=6))
    def test_sum_with_reflection_contains_origin(self, pts):
        p = convex_hull(pts)
        reflected = convex_hull(-v for v in p.vertices)
        assert minkowski_sum(p, reflected).contains_point(pt(0, 0))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=1, max_size=5), st.lists(points, min_size=1, max_size=5))
    def test_hull_commutes_with_sum(self, pa, pb):
        # hull of all pairwise sums of the raw points equals the sum of hulls
        raw = convex_hull(a + b for a in pa for b in pb)
        assert raw == minkowski_sum(convex_hull(pa), convex_hull(pb))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(points, min_size=1, max_size=4),
        st.lists(points, min_size=1, max_size=4),
        st.lists(points, min_size=1, max_size=4),
    )
    def test_sum_distributes_over_unions(self, pa, pb, pc):
        """A + (B u C) = (A + B) u (A + C), by point-membership sampling.

        Membership in a sum is witnessed independently of the construction:
        z is in A + B exactly when (z - A) meets B.
        """
        a, b, c = convex_hull(pa), convex_hull(pb), convex_hull(pc)
        ab, ac = minkowski_sum(a, b), minkowski_sum(a, c)

        def in_sum(z, right):
            shifted = convex_hull(z - v for v in a.vertices)
            return polygon_intersection(shifted, right) is not None

        half = Fraction(1, 2)
        probes = list(ab.vertices) + list(ac.vertices)
        probes += [(u + w) * half for u, w in zip(ab.vertices, ac.vertices)]
        rng = random.Random(13)
        probes += [
            pt(Fraction(rng.randint(-40, 40), 2), Fraction(rng.randint(-40, 40), 2))
            for _ in range(10)
        ]
        for z in probes:
            lhs = in_sum(z, b) or in_sum(z, c)  # z in A + (B u C)
            rhs = ab.contains_point(z) or ac.contains_point(z)
            assert lhs == rhs


class TestClip:
    def test_non_binding(self, unit_square):
        assert clip(unit_square, HalfPlane(1, 0, 2)) == unit_square

    def test_infeasible(self, unit_square):
        assert clip(unit_square, HalfPlane(1, 0, -1)) is None

    def test_half_square_exact(self, unit_square):
        got = clip(unit_square, HalfPlane(1, 0, Fraction(1, 2)))
        assert got == poly((0, 0), ("1/2", 0), ("1/2", 1), (0, 1))

    def test_cut_through_vertices_gives_segment(self):
        diamond = poly((0, -1), (1, 0), (0, 1), (-1, 0))
        line = clip(clip(diamond, HalfPlane(1, 0, 0)), HalfPlane(-1, 0, 0))
        assert line == segment(pt(0, -1), pt(0, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(points, min_size=1, max_size=7), half_planes)
    def test_membership_sampling_oracle(self, pts, plane):
        region = convex_hull(pts)
        clipped = clip(region, plane)
        rng = random.Random(11)
        # clipped points satisfy both constraints; region points outside the
        # half-plane are gone; region points inside stay
        for _ in range(25):
            probe = pt(Fraction(rng.randint(-16, 16), 2), Fraction(rng.randint(-16, 16), 2))
            expected = region.contains_point(probe) and slack(plane, probe) >= 0
            assert (clipped is not None and clipped.contains_point(probe)) == expected

    @settings(max_examples=200, deadline=None)
    @given(clip_cases())
    @example((poly((0, 0), (1, 0), (1, 1), (0, 1)), HalfPlane(0, 1, 0)))  # edge on the line
    @example((poly((0, 0), (1, 0), (1, 1), (0, 1)), HalfPlane(0, -1, 0)))
    @example((poly((0, -1), (1, 0), (0, 1), (-1, 0)), HalfPlane(1, 0, 0)))  # through two vertices
    @example((poly((0, 0), (2, 0), (1, 1)), HalfPlane(1, 1, 2)))  # one vertex on the line
    @example((segment(pt(0, 0), pt(2, 2)), HalfPlane(1, 0, 1)))
    @example((segment(pt(0, 0), pt(2, 0)), HalfPlane(0, 1, 0)))
    @example((ConvexPolygon((pt(1, 1),)), HalfPlane(1, 1, 2)))
    def test_clip_equals_canonical_boundary_list(self, case):
        region, plane = case
        assert clip(region, plane) == boundary_list_clip(region, plane)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=1, max_size=7), half_planes)
    def test_clip_output_is_canonical_hull_of_itself(self, pts, plane):
        clipped = clip(convex_hull(pts), plane)
        assert clipped is None or clipped == convex_hull(clipped.vertices)


class TestVoronoi:
    def test_singleton_has_no_constraints(self):
        s = PointSet((pt(3, 4),))
        assert bisectors(s, pt(3, 4)) == []

    def test_two_point_bisector(self):
        s = PointSet((pt(0, 0), pt(2, 0)))
        (plane,) = bisectors(s, pt(0, 0))
        assert slack(plane, pt(1, 0)) >= 0       # boundary
        assert slack(plane, pt("1/2", 7)) >= 0   # inside
        assert slack(plane, pt("3/2", 0)) < 0

    def test_membership_error(self):
        s = PointSet((pt(0, 0), pt(2, 0)))
        with pytest.raises(ValueError):
            bisectors(s, pt(1, 1))

    def test_grid8_cell_by_lattice_oracle(self, grid8):
        center = pt(1, 1)
        planes = bisectors(grid8, center)
        # brute-force nearest-site classification over a rational lattice
        for ix in range(-8, 25):
            for iy in range(-8, 13):
                probe = pt(Fraction(ix, 4), Fraction(iy, 4))
                nearest = min(dist2(probe, q) for q in grid8.points)
                in_cell = dist2(probe, center) <= nearest
                assert all(slack(h, probe) >= 0 for h in planes) == in_cell

    def test_cells_cover_the_plane(self):
        rng = random.Random(23)
        for _ in range(15):
            sites = PointSet(
                tuple(pt(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(2, 7)))
            )
            for _ in range(20):
                probe = pt(Fraction(rng.randint(-20, 20), 3), Fraction(rng.randint(-20, 20), 3))
                assert any(
                    all(slack(h, probe) >= 0 for h in bisectors(sites, c)) for c in sites
                )


class TestClipToCell:
    def test_contained_region_unchanged(self):
        sites = PointSet((pt(0, 0), pt(10, 0)))
        small = poly((0, 0), (1, 0), (0, 1))
        assert clip_all(small, bisectors(sites, pt(0, 0))) == small

    def test_disjoint_region_empty(self):
        sites = PointSet((pt(0, 0), pt(10, 0)))
        far = poly((8, 0), (9, 0), (9, 1))
        assert clip_all(far, bisectors(sites, pt(0, 0))) is None

    def test_cell_pieces_cover_region(self, grid8):
        region = poly((-2, -2), (6, -2), (6, 2), (-2, 2))
        pieces = [clip_all(region, bisectors(grid8, c)) for c in grid8.points]
        rng = random.Random(7)
        for _ in range(60):
            probe = pt(Fraction(rng.randint(-8, 24), 4), Fraction(rng.randint(-8, 8), 4))
            if region.contains_point(probe):
                assert any(p.contains_point(probe) for p in pieces if p is not None)


class TestProjection:
    def test_member_projects_to_itself(self, grid8):
        assert project_point_set(grid8, pt(3, 1)) == pt(3, 1)

    def test_tie_breaks_lexicographically(self):
        s = PointSet((pt(0, 0), pt(2, 0)))
        assert project_point_set(s, pt(1, 0)) == pt(0, 0)

    def test_grid8_projection_matches_exhaustive(self, grid8):
        z = pt("21/5", "-3/10")
        brute = min(grid8.points, key=lambda p: (dist2(p, z), p))
        assert brute == pt(5, -1)
        assert project_point_set(grid8, z) == pt(5, -1)

    @settings(max_examples=150, deadline=None)
    @given(
        points,
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4),
        st.lists(points, max_size=4),
        st.fractions(min_value=Fraction(1, 10**30), max_value=10**30),
        points,
    )
    @example(pt(1, 0), [(1, 0), (0, 1)], [], Fraction(1), pt(1, 0))  # four equidistant
    def test_equals_brute_force_with_ties(self, z, offsets, extra, scale, probe):
        # Each offset also appears turned by 90 degrees, so sites tie around z.
        sites = [z + Point2(a, b) * scale for a, b in offsets]
        sites += [z + Point2(-b, a) * scale for a, b in offsets]
        ps = PointSet(tuple(sites + extra))
        assert hash(ps) == hash(PointSet(tuple(reversed(ps.points))))
        for target in (z, probe):
            brute = min(ps.points, key=lambda p: (dist2(p, target), p))
            assert project_point_set(ps, target) == brute

    def test_polygon_inside_point_fixed(self, unit_square):
        assert project_convex_polygon(unit_square, pt("1/3", "2/3")) == pt("1/3", "2/3")

    def test_polygon_facet_projection(self, unit_square):
        assert project_convex_polygon(unit_square, pt(2, "1/2")) == pt(1, "1/2")

    def test_triangle_vertex_projection(self):
        tri = poly((0, 0), (1, -1), (1, 1))
        assert project_convex_polygon(tri, pt(-1, 0)) == pt(0, 0)

    def test_segment_and_point_targets(self):
        seg = segment(pt(0, 0), pt(2, 0))
        assert project_convex_polygon(seg, pt(1, 5)) == pt(1, 0)
        assert project_convex_polygon(seg, pt(-3, 0)) == pt(0, 0)
        single = ConvexPolygon((pt(4, 4),))
        assert project_convex_polygon(single, pt(0, 0)) == pt(4, 4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(points, min_size=1, max_size=6), points)
    def test_projection_minimizes_over_samples(self, pts, z):
        region = convex_hull(pts)
        proj = project_convex_polygon(region, z)
        assert region.contains_point(proj)
        best = dist2(proj, z)
        half = Fraction(1, 2)
        samples = list(region.vertices)
        samples += [(a + b) * half for a, b in itertools.combinations(region.vertices, 2)]
        for s in samples:
            assert best <= dist2(s, z)


def cell_is_unbounded(point_set, center):
    """Whether the Voronoi cell of center holds a ray.

    The cell is {p : n.p <= k} over its bisectors.  It holds a ray exactly
    when some direction d != 0 has n.d <= 0 for every normal n, and then
    one such d runs along a bisector line.
    """
    normals = [pt(h.ints[0], h.ints[1]) for h in bisectors(point_set, center)]
    directions = [pt(-n.y, n.x) for n in normals] + [pt(n.y, -n.x) for n in normals]
    return not normals or any(all(dot(n, d) <= 0 for n in normals) for d in directions)


class TestClassify:
    """Corner points (on the hull boundary) have unbounded Voronoi cells, inner points bounded ones."""

    def test_convex_position_all_corner(self):
        s = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert all(cell_is_unbounded(s, c) for c in s.points)

    def test_grid8_edge_points_are_corner(self, grid8):
        assert all(cell_is_unbounded(grid8, c) for c in grid8.points)

    def test_interior_point_detected(self):
        s = PointSet.from_coords([(-10, -10), (10, -10), (10, 10), (-10, 10), (0, 5)])
        assert [c for c in s.points if not cell_is_unbounded(s, c)] == [pt(0, 5)]

    def test_corner_cells_unbounded_inner_bounded(self):
        # characterization used by the boundedness argument, checked by ray probing
        s = PointSet.from_coords([(-10, -10), (10, -10), (10, 10), (-10, 10), (0, 5)])
        far = Fraction(10**6)
        for c in (pt(-10, -10), pt(10, -10), pt(10, 10), pt(-10, 10)):
            probe = c + c * far
            assert all(slack(h, probe) >= 0 for h in bisectors(s, c))
        p = pt(0, 5)
        for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            probe = p + pt(sx, sy) * far
            assert not all(slack(h, probe) >= 0 for h in bisectors(s, p))

    def test_voronoi_subset_property(self):
        # cells w.r.t. the full set are contained in cells w.r.t. the hull's vertices
        rng = random.Random(31)
        for _ in range(12):
            pts = tuple(pt(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(4, 9)))
            s = PointSet(pts)
            sc = PointSet(s.hull().vertices)
            if sc == s:
                continue
            for c in sc.points:
                full_planes = bisectors(s, c)
                corner_planes = bisectors(sc, c)
                for _ in range(25):
                    probe = pt(Fraction(rng.randint(-30, 30), 2), Fraction(rng.randint(-30, 30), 2))
                    if all(slack(h, probe) >= 0 for h in full_planes):
                        assert all(slack(h, probe) >= 0 for h in corner_planes)


class TestDiameter:
    def test_point(self):
        assert diameter_sq(ConvexPolygon((pt(2, 3),))) == 0

    def test_unit_square(self, unit_square):
        assert diameter_sq(unit_square) == 2

    def test_cone_triangle(self):
        tri = poly((0, 0), (1, -1), (1, 1))
        assert diameter_sq(tri) == 4  # base dominates the legs for this slope


class TestPolygonIntersection:
    def test_overlapping_squares(self, unit_square):
        shifted = unit_square.translate(pt("1/2", "1/2"))
        expected = poly(("1/2", "1/2"), (1, "1/2"), (1, 1), ("1/2", 1))
        assert polygon_intersection(unit_square, shifted) == expected

    def test_disjoint(self, unit_square):
        far = unit_square.translate(pt(5, 5))
        assert polygon_intersection(unit_square, far) is None

    def test_degenerate_operands(self, unit_square):
        inside_point = ConvexPolygon((pt("1/2", "1/2"),))
        assert polygon_intersection(unit_square, inside_point) == inside_point
        crossing = segment(pt(-1, "1/2"), pt(2, "1/2"))
        assert polygon_intersection(crossing, unit_square) == segment(pt(0, "1/2"), pt(1, "1/2"))


class TestExactnessPipeline:
    def test_affine_rescaling_commutes_with_all_operations(self, grid8):
        """Scale by 3 and translate: outputs must transform identically."""
        scale = Fraction(3)
        shift = pt("5/7", "-2/3")

        def tf_point(p):
            return p * scale + shift

        transformed = PointSet(tuple(tf_point(p) for p in grid8.points))
        # hull
        hull = grid8.hull()
        assert transformed.hull().vertices == tuple(tf_point(v) for v in hull.vertices)
        # projection (affine maps with positive scale preserve the minimizer)
        z = pt("21/5", "-3/10")
        assert project_point_set(transformed, tf_point(z)) == tf_point(
            project_point_set(grid8, z)
        )
        # voronoi cell membership
        probe = pt("3/2", "1/4")
        planes = bisectors(grid8, pt(1, 1))
        planes_t = bisectors(transformed, tf_point(pt(1, 1)))
        assert all(slack(h, probe) >= 0 for h in planes) == all(
            slack(h, tf_point(probe)) >= 0 for h in planes_t
        )
        # minkowski with a scaled square commutes
        square = poly((0, 0), (1, 0), (1, 1), (0, 1))
        square_t = convex_hull(tf_point(v) for v in square.vertices)
        lhs = convex_hull(
            tf_point(v) for v in minkowski_sum(hull, square).vertices
        )
        # translate appears twice on the left; add it once to the right operand
        rhs = minkowski_sum(
            convex_hull(tf_point(v) for v in hull.vertices),
            convex_hull((v * scale for v in square.vertices)),
        )
        assert lhs == rhs
