"""The integer kernels of errdiff against the Fraction oracle.

Polygons carry their integer triples, so besides the kernel functions the
tests cover polygons built from triples, translation, the hull of a union
of polygons, one whole collection-operator step, the iteration's bit count
and digest, and the projection.  The
closed loop's integer arithmetic (grid snapping, the central step, the
heater update, the request draws and the metrics) is checked against the
same oracle.

Every input is a small rational configuration, which keeps the
degeneracies that matter (duplicates, collinear points, parallel edges,
cut lines through vertices and along edges), mapped by x -> off + s*x with
a large rational scale s and offset, so that coordinates carry numerators
and denominators of 200 bits and more.  A common scale preserves every
orientation sign, so the mapped input keeps its degeneracies.
"""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernel as oracle
from errdiff.dynamics import ControllerTrace, StepRecord, fixed_request, run_trace, uniform_request
from errdiff.geometry import (
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    _cut,
    _line,
    _polygon,
    clip,
    clip_all,
    convex_hull,
    minkowski_sum,
    orient,
    project_convex_polygon,
    segment,
)
from errdiff.operators import (
    MODES,
    Collection,
    _bits_and_digest,
    apply_collection,
    apply_member,
)
from errdiff.resources import (
    TEMP_RESOLUTION,
    HeaterParams,
    HeaterState,
    grid_numerator,
    heater_setpoints_2d,
    heater_step,
)
from errdiff.simulate import (
    REQUEST_RESOLUTION,
    CentralPolicy,
    MaximizeActivePower,
    QuadraticCost,
    central_step,
    compute_metrics,
)

from conftest import pt

small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
small_points = st.builds(Point2, small, small)
big = st.builds(
    Fraction,
    st.integers(min_value=-(2**240), max_value=2**240),
    st.integers(min_value=2**200, max_value=2**240),
)
big_nonzero = big.filter(lambda q: q != 0)
# Numerator and denominator of 201 bits each, coprime.
BIG_SCALE = Fraction(2**200 + 1, 2**200 + 3)


@st.composite
def affine_maps(draw):
    """x -> off + s*x with a large s and a large or zero offset."""
    s = draw(st.one_of(st.just(BIG_SCALE), st.just(-BIG_SCALE), big_nonzero, st.just(Fraction(1))))
    off = Point2(draw(big), draw(big)) if draw(st.booleans()) else Point2(0, 0)
    return lambda p: off + p * s


@st.composite
def point_lists(draw, min_size=1, max_size=7):
    """Free, collinear or repeated small points under one large affine map."""
    kind = draw(st.sampled_from(["free", "collinear", "repeated"]))
    if kind == "collinear":
        base = draw(small_points)
        d = draw(small_points.filter(lambda p: p != Point2(0, 0)))
        ts = draw(st.lists(small, min_size=min_size, max_size=max_size))
        pts = [base + d * t for t in ts]
    else:
        pts = draw(st.lists(small_points, min_size=min_size, max_size=max_size))
        if kind == "repeated":
            pts = pts + pts[::2]
    f = draw(affine_maps())
    return [f(p) for p in pts]


@st.composite
def cut_cases(draw):
    """A polygon, point or segment and a plane that is free, passes through
    a vertex, or runs along a chord or an edge of the region."""
    region = convex_hull(draw(point_lists()))
    verts = region.vertices
    kind = draw(st.sampled_from(["free", "vertex", "chord"]))
    if kind == "free":
        u = Point2(draw(big), draw(big))
    else:
        u = draw(st.sampled_from(verts))
    if kind == "chord" and len(verts) > 1:
        w = draw(st.sampled_from([v for v in verts if v != u]))
        k = draw(big_nonzero)
        a, b = (w.y - u.y) * k, (u.x - w.x) * k
    else:
        a, b = draw(st.tuples(st.one_of(small, big), st.one_of(small, big)).filter(lambda t: t != (0, 0)))
    return region, HalfPlane(a, b, a * u.x + b * u.y)


def sign(q) -> int:
    return (q > 0) - (q < 0)


SQUARE = convex_hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


# Numerators and denominators of up to 200 bits, and small values that tie.
wide = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200))
wide_coords = st.one_of(small, wide)


@st.composite
def coordinate_pairs(draw):
    """Two (x, y) pairs; the second may share the first's x, or equal it."""
    a = (draw(wide_coords), draw(wide_coords))
    kind = draw(st.sampled_from(["free", "same x", "equal"]))
    if kind == "equal":
        return a, a
    x = a[0] if kind == "same x" else draw(wide_coords)
    return a, (x, draw(wide_coords))


def model(p: Point2) -> tuple[Fraction, Fraction]:
    return p.x, p.y


class TestConversions:
    """Point2 against the plain (Fraction, Fraction) model of a point."""

    @settings(max_examples=100, deadline=None)
    @given(wide_coords, wide_coords)
    def test_triple_round_trip_is_normalised(self, x, y):
        p = Point2(x, y)
        tx, ty, tw = p._t
        assert tw > 0 and gcd(tx, ty, tw) == 1
        assert model(p) == (x, y)
        assert Point2(str(x), str(y))._t == p._t

    @settings(max_examples=200, deadline=None)
    @given(coordinate_pairs(), st.one_of(wide_coords, st.integers(-5, 5)))
    def test_arithmetic_and_order_match_the_model(self, pair, k):
        (ax, ay), (bx, by) = a, b = pair
        p, q = Point2(ax, ay), Point2(bx, by)
        assert (p == q) == (a == b) and (p != q) == (a != b)
        assert (p < q, p <= q, p > q, p >= q) == (a < b, a <= b, a > b, a >= b)
        assert model(p + q) == (ax + bx, ay + by)
        assert model(p - q) == (ax - bx, ay - by)
        assert model(-p) == (-ax, -ay)
        assert model(p * k) == model(k * p) == (ax * k, ay * k)
        assert p.dot(q) == ax * bx + ay * by
        assert p.norm2() == ax * ax + ay * ay
        # Equal points built along different routes hash alike.
        same = p + q - q
        assert same == p and hash(same) == hash(p)
        if a == b:
            assert hash(p) == hash(q)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(wide_coords, wide_coords), min_size=1, max_size=8))
    def test_point_set_order_matches_tuple_order(self, coords):
        points = PointSet(tuple(Point2(x, y) for x, y in coords)).points
        assert [model(p) for p in points] == sorted(set(coords))


class TestOrientation:
    @settings(max_examples=100, deadline=None)
    @given(point_lists(min_size=3, max_size=3))
    @example([pt(0, 0), pt(1, 1), pt(2, 2)])
    @example([pt(0, 0), pt(1, 0), pt(0, 1)])
    @example([pt(0, 0), pt(0, 1), pt(1, 0)])
    @example([pt(1, 1), pt(1, 1), pt(2, 3)])
    def test_integer_orientation_has_the_sign_of_orient(self, pts):
        a, b, c = pts[:3]
        la, lb, lc = _line(a._t, b._t)
        x, y, w = c._t
        assert sign(la * x + lb * y + lc * w) == sign(orient(a, b, c))


class TestRepresentation:
    @settings(max_examples=100, deadline=None)
    @given(point_lists())
    def test_polygon_from_triples_equals_polygon_from_points(self, pts):
        validated = oracle.convex_hull(pts)
        lazy = _polygon(tuple(v._t for v in validated.vertices))
        assert lazy == validated
        assert hash(lazy) == hash(validated)
        assert lazy.vertices == validated.vertices

    def test_different_polygons_differ(self):
        assert _polygon(SQUARE._ts[:3]) != SQUARE
        assert SQUARE.translate(pt(0, Fraction(1, 3))) != SQUARE


offsets = st.one_of(
    st.builds(Point2, st.integers(-(2**200), 2**200), st.integers(-(2**200), 2**200)),
    st.builds(Point2, big, big),
    st.builds(Point2, small, big),
    st.builds(Point2, small, small),
)


class TestTranslate:
    @settings(max_examples=100, deadline=None)
    @given(point_lists(), offsets)
    @example([pt(Fraction(1, 2), Fraction(1, 3)), pt(1, 0)], pt(Fraction(1, 2), Fraction(2, 3)))
    def test_equals_oracle(self, pts, d):
        region = convex_hull(pts)
        got = region.translate(d)
        assert got == oracle.translate(region, d)
        for x, y, w in got._ts:
            assert w > 0 and gcd(x, y, w) == 1


@st.composite
def overlapping_polygons(draw):
    """Hulls of overlapping sublists of one point list, so vertices repeat across polygons."""
    pts = draw(point_lists(min_size=1, max_size=9))
    chunks = st.lists(st.sampled_from(pts), min_size=1, max_size=5)
    return [convex_hull(chunk) for chunk in draw(st.lists(chunks, min_size=1, max_size=4))]


class TestConvexHull:
    @settings(max_examples=100, deadline=None)
    @given(point_lists(min_size=1, max_size=9))
    @example([pt(1, 1), pt(1, 1)])  # one distinct point, repeated
    @example([pt(0, 1), pt(0, 0), pt(0, 2), pt(0, 1)])  # vertical, with a repeat
    def test_equals_oracle(self, pts):
        assert convex_hull(pts) == oracle.convex_hull(pts)

    @settings(max_examples=100, deadline=None)
    @given(overlapping_polygons())
    @example([ConvexPolygon((pt(1, 1),)), ConvexPolygon((pt(1, 1),))])
    @example([segment(pt(0, 0), pt(0, 2)), segment(pt(0, 1), pt(0, 3)), ConvexPolygon((pt(0, 1),))])
    def test_hull_of_polygons_equals_oracle(self, polygons):
        expected = oracle.convex_hull(v for p in polygons for v in p.vertices)
        assert convex_hull(v for p in polygons for v in p.vertices) == expected


# Sorted by the float key, the first point comes before the second; exactly,
# it comes after, since both x round to the float 1.0.
NEAR_X = [pt(1 + Fraction(1, 2**70), 0), pt(1, 1), pt(1, -1), pt(Fraction(1, 2), 1)]
HUGE = 10**400  # far beyond the float range


class TestFloatKeyedHull:
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_equal_float_x_is_ordered_exactly(self, count):
        pts = NEAR_X[:count]
        for order in (pts, pts[::-1]):
            assert convex_hull(order) == oracle.convex_hull(order)

    def test_equal_float_x_with_y_in_reverse_order(self):
        # Exactly, (1, 1) < (1 + 2**-70, 0); by floats, (1.0, 0.0) < (1.0, 1.0).
        hull = convex_hull(NEAR_X[:2])
        assert hull.vertices == (pt(1, 1), pt(1 + Fraction(1, 2**70), 0))

    @pytest.mark.parametrize(
        "coords",
        [
            [(HUGE, 1), (-HUGE, 0), (0, HUGE), (1, 1)],
            [(0, 0), (1, 0), (0, HUGE), (Fraction(1, HUGE), 1)],
            [(HUGE, HUGE), (HUGE + 1, HUGE), (HUGE, HUGE + 1), (HUGE + 1, HUGE + 1)],
        ],
    )
    def test_coordinates_too_large_for_a_float(self, coords):
        pts = [pt(x, y) for x, y in coords]
        assert convex_hull(pts) == oracle.convex_hull(pts)


def _canonical(raw) -> ConvexPolygon:
    """A raw CCW boundary list rotated to its smallest vertex, through the
    validating constructor: strict left turns and no repeated point."""
    pts = [Point2(Fraction(x, w), Fraction(y, w)) for x, y, w in raw]
    if pts:
        k = pts.index(min(pts))
        pts = pts[k:] + pts[:k]
    return ConvexPolygon(pts)


PENTAGON = convex_hull([pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5), pt(-1, 3)])


def _planes_through_vertices(region):
    """Planes through each vertex at several slopes, and through each pair of
    vertices, keeping either side: every cut that puts a vertex on the line."""
    verts = region.vertices
    for v in verts:
        for a, b in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2), (1, 3)]:
            for sign in (1, -1):
                yield HalfPlane(sign * a, sign * b, sign * (a * v.x + b * v.y))
    for u in verts:
        for w in verts:
            if u != w:
                a, b = w.y - u.y, u.x - w.x
                yield HalfPlane(a, b, a * u.x + b * u.y)


class TestRunCut:
    """`_cut` keeps one cyclic slice of a polygon's list plus at most two crossings."""

    def _check_every_rotation(self, region, plane):
        ts = list(region._ts)
        want = oracle.clip(region, plane)
        for k in range(len(ts)):
            assert _canonical(_cut(ts[k:] + ts[:k], plane.ints)) == want

    @pytest.mark.parametrize(
        "plane",
        [
            HalfPlane(-1, 0, Fraction(-1, 2)),  # cuts (-1, 3) and (0, 0): the run wraps past 0
            HalfPlane(0, 1, 4),  # cuts (2, 5) only
            HalfPlane(1, 0, 3),  # cuts (4, 0), (5, 3): crossings on two edges
            HalfPlane(-1, -1, Fraction(-15, 2)),  # keeps (5, 3) only, between two crossings
            HalfPlane(1, 1, 100),  # cuts nothing
            HalfPlane(1, 1, -100),  # cuts everything
        ],
    )
    def test_free_cuts_in_every_rotation(self, plane):
        self._check_every_rotation(PENTAGON, plane)

    def test_zero_slack_vertex_at_either_end_of_the_run(self):
        for region in (PENTAGON, SQUARE):
            for plane in _planes_through_vertices(region):
                self._check_every_rotation(region, plane)

    def test_uncut_list_is_returned_as_is(self):
        ts = PENTAGON._ts
        assert _cut(ts, (1, 1, 100)) is ts

    @pytest.mark.parametrize(
        "plane",
        [
            HalfPlane(1, 0, 1),  # the end (2, 2) is cut away
            HalfPlane(-1, 0, -1),  # the end (0, 0) is cut away
            HalfPlane(1, 0, 0),  # (0, 0) on the line, the rest cut away
            HalfPlane(-1, 0, -2),  # (2, 2) on the line, the rest cut away
            HalfPlane(1, -1, 0),  # the whole segment on the line
            HalfPlane(1, 0, -1),  # both ends cut away
            HalfPlane(1, 0, 5),  # nothing cut
        ],
    )
    def test_points_and_segments(self, plane):
        seg = segment(pt(0, 0), pt(2, 2))
        u, v = seg._ts
        want = oracle.clip(seg, plane)
        for raw in ([u, v], [v, u]):
            assert _canonical(_cut(raw, plane.ints)) == want
        for p in (u, v, (1, 1, 1)):
            point = ConvexPolygon((Point2(p[0], p[1]),))
            assert _canonical(_cut([p], plane.ints)) == oracle.clip(point, plane)


class TestClip:
    @settings(max_examples=120, deadline=None)
    @given(cut_cases())
    @example((SQUARE, HalfPlane(0, 1, 0)))  # edge on the line, kept
    @example((SQUARE, HalfPlane(0, -1, 0)))  # edge on the line, rest cut away
    @example((SQUARE, HalfPlane(1, 1, 0)))  # through one vertex only
    @example((SQUARE, HalfPlane(0, -1, Fraction(-1, 2))))  # the new smallest vertex ends the list
    @example((convex_hull([pt(0, -1), pt(1, 0), pt(0, 1), pt(-1, 0)]), HalfPlane(1, 0, 0)))
    @example((segment(pt(0, 0), pt(2, 2)), HalfPlane(1, 0, 1)))
    @example((segment(pt(0, 0), pt(2, 2)), HalfPlane(1, 0, 0)))  # cut at an end
    @example((segment(pt(0, 0), pt(2, 0)), HalfPlane(0, 1, 0)))  # along the segment
    @example((ConvexPolygon((pt(1, 1),)), HalfPlane(1, 1, 2)))
    def test_equals_oracle(self, case):
        region, plane = case
        assert clip(region, plane) == oracle.clip(region, plane)

    @settings(max_examples=50, deadline=None)
    @given(point_lists(), st.lists(cut_cases(), min_size=1, max_size=4))
    def test_clip_all_equals_oracle(self, pts, cases):
        region = convex_hull(pts)
        planes = [plane for _, plane in cases]
        assert clip_all(region, planes) == oracle.clip_all(region, planes)

    def test_uncut_polygon_is_returned_as_is(self):
        assert clip_all(SQUARE, [HalfPlane(1, 0, 1), HalfPlane(0, 1, 5)]) is SQUARE


class TestMinkowski:
    @settings(max_examples=100, deadline=None)
    @given(point_lists(), point_lists())
    def test_equals_oracle(self, pa, pb):
        p, q = convex_hull(pa), convex_hull(pb)
        assert minkowski_sum(p, q) == oracle.minkowski_sum(p, q)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(small_points, min_size=1, max_size=6),
        st.integers(min_value=1, max_value=3),
        small_points,
        affine_maps(),
    )
    def test_parallel_edges_equal_oracle(self, pts, k, shift, f):
        """q is a scaled copy of p, so every edge of q is parallel to one of p."""
        p = convex_hull(f(v) for v in pts)
        q = convex_hull(f(v * k + shift) for v in pts)
        got = minkowski_sum(p, q)
        assert got == oracle.minkowski_sum(p, q)
        assert ConvexPolygon(got.vertices) == got  # passes the validating constructor

    @settings(max_examples=60, deadline=None)
    @given(small_points, small_points, small_points, small, affine_maps())
    def test_parallel_segments_equal_oracle(self, u, w, d, t, f):
        p = segment(f(u), f(u + d))
        q = segment(f(w), f(w + d * t))
        assert minkowski_sum(p, q) == oracle.minkowski_sum(p, q)


class TestContainment:
    @settings(max_examples=80, deadline=None)
    @given(point_lists(), st.lists(small_points, min_size=1, max_size=5), affine_maps())
    def test_contains_point_equals_oracle(self, pts, probes, f):
        region = convex_hull(pts)
        verts = region.vertices
        half = Fraction(1, 2)
        # vertices, edge midpoints, points on edge lines beyond the ends, free points
        candidates = list(verts) + [f(p) for p in probes]
        for u, v in oracle.edges(region):
            candidates += [(u + v) * half, u * 2 - v, v * 2 - u]
        for z in candidates:
            assert region.contains_point(z) == oracle.contains_point(region, z)

    @settings(max_examples=60, deadline=None)
    @given(point_lists(), point_lists())
    def test_contains_polygon_equals_oracle(self, pa, pb):
        p, q = convex_hull(pa), convex_hull(pb)
        for outer, inner in ((p, q), (q, p), (p, p), (minkowski_sum(p, q), q)):
            assert outer.contains_polygon(inner) == oracle.contains_polygon(outer, inner)


@st.composite
def collections(draw):
    """1-3 point-set or convex members of small rational points under one large map."""
    f = draw(affine_maps())
    members = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pts = [f(p) for p in draw(st.lists(small_points, min_size=1, max_size=5))]
        members.append(PointSet(tuple(pts)) if draw(st.booleans()) else convex_hull(pts))
    return Collection(tuple(members), draw(st.sampled_from(MODES)))


RING = PointSet.from_coords([(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)])
TRIANGLE = convex_hull([pt(0, 0), pt(2, -1), pt(2, 1)])


class TestOperatorStep:
    @settings(max_examples=60, deadline=None)
    @given(collections(), point_lists(max_size=5))
    @example(Collection((RING,), "perfect"), [pt(0, 0), pt(1, 0), pt(0, 1)])
    @example(Collection((RING, TRIANGLE), "persistent"), [pt(0, 0), pt(1, 0), pt(0, 1)])
    @example(Collection((segment(pt(0, 0), pt(1, 1)), RING), "perfect"), [pt(0, 0)])
    @example(Collection((ConvexPolygon((pt(1, 0),)), TRIANGLE), "persistent"), [pt(3, 3), pt(-1, 2)])
    @example(Collection((ConvexPolygon((pt(1, 0),)),), "perfect"), [pt(0, 0), pt(2, 1)])
    @example(Collection((segment(pt(0, 0), pt(2, 1)),), "persistent"), [pt(1, 1), pt(3, 0), pt(0, -2)])
    # The region meets the triangle only at its vertex (0, 0), or lies inside it.
    @example(Collection((TRIANGLE,), "persistent"), [pt(0, 0), pt(-1, 1), pt(-1, -1)])
    @example(Collection((TRIANGLE,), "persistent"), [pt(1, 0)])
    def test_apply_collection_equals_oracle(self, collection, pts):
        """One collection step, and each member's own operator, against the oracle."""
        region = convex_hull(pts)
        mode = collection.mode
        assert apply_collection(collection, region) == oracle.apply_collection(collection, region)
        for member in collection.sets:
            want = oracle.apply_collection(Collection((member,), mode), region)
            assert apply_member(member, region, mode) == want


# Just off an integer by a little or a lot, toward either side.
near_integers = st.builds(
    lambda k, j, d: k + Fraction(j, d),
    st.integers(-50, 50),
    st.integers(-3, 3),
    st.sampled_from([10**9, 10**8 - 1, 240, 120, 24, 12, 10, 7, 2**200 + 1]),
)
coordinates = st.one_of(small, big, st.fractions(max_denominator=10**6), near_integers)


class TestBitsAndDigest:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(point_lists(), st.lists(st.builds(Point2, coordinates, coordinates), min_size=1)))
    @example([pt(0, 0)])
    @example([pt(-3, Fraction(-7, 2)), pt(Fraction(4, 6), 1)])
    @example([pt(Fraction(3) - Fraction(1, 10**9), Fraction(2**200 + 1, 2**201))])
    def test_equals_oracle(self, pts):
        poly = convex_hull(pts)
        assert _bits_and_digest(poly) == (oracle.coordinate_bits(poly), oracle.digest(poly))


class TestProjection:
    @settings(max_examples=50, deadline=None)
    @given(point_lists(), st.lists(small_points, min_size=1, max_size=4), affine_maps())
    @example([pt(0, 0), pt(2, 0)], [pt(1, 0)], lambda p: p)
    @example([pt(0, 0), pt(2, -1), pt(2, 1)], [pt(3, 3)], lambda p: p)
    def test_equals_oracle(self, pts, probes, f):
        """Points, segments, triangles and larger polygons, with z free, inside,
        at a vertex, on an edge, on an edge line beyond its ends and on the
        perpendicular through an end of an edge (clamped t exactly 0 or 1)."""
        region = convex_hull(pts)
        verts = region.vertices
        candidates = list(verts) + [f(p) for p in probes]
        if len(verts) >= 3:
            candidates.append(sum(verts[1:], verts[0]) * Fraction(1, len(verts)))
        for u, v in oracle.edges(region):
            d = v - u
            out = Point2(d.y, -d.x)  # the outward normal of a CCW edge
            candidates += [(u + v) * Fraction(1, 2), u * 2 - v, v * 2 - u]
            candidates += [u + out, v + out, u - out, v - out * 3]
        for z in candidates:
            got = project_convex_polygon(region, z)
            assert got == oracle.project_convex_polygon(region, z)
            if oracle.contains_point(region, z):
                assert got is z  # a feasible z is returned as it is
            elif got in verts:
                assert got is verts[verts.index(got)]  # a vertex is the polygon's own

    def test_empty_polygon_rejected(self):
        with pytest.raises(ValueError):
            project_convex_polygon(ConvexPolygon(()), pt(0, 0))


# Values whose ratio to the grid spacing is k + 1/2, below and above zero
# and with k even and odd, plus free rationals.
TIES = [Fraction(2 * k + 1, 2048) for k in range(-4, 4)]
RESOLUTIONS = [REQUEST_RESOLUTION, Fraction(3, 1024), Fraction(5, 7), Fraction(1)]


class TestSnapping:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.sampled_from(TIES), st.fractions(), big),
        st.sampled_from(RESOLUTIONS),
        st.integers(min_value=1, max_value=5),
    )
    @example(Fraction(1, 2048), REQUEST_RESOLUTION, 1)
    @example(Fraction(3, 2048), REQUEST_RESOLUTION, 1)
    @example(Fraction(-1, 2048), REQUEST_RESOLUTION, 1)
    @example(Fraction(-3, 2048), REQUEST_RESOLUTION, 1)
    @example(Fraction(15, 14), Fraction(5, 7), 1)
    def test_grid_point_rounds_half_to_even(self, value, resolution, spread):
        """Equal to round() of the Fraction ratio, also for an unreduced num/den."""
        want = round(value / resolution) * resolution
        num, den = value.numerator * spread, value.denominator * spread
        assert Fraction(grid_numerator(num, den, resolution), resolution.denominator) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(-4096, 4096), st.integers(-4096, 4096)),
        st.one_of(
            st.just(MaximizeActivePower()),
            st.builds(
                QuadraticCost,
                st.builds(Point2, *[st.fractions(max_denominator=2048)] * 2),
                st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
            ),
        ),
        st.sampled_from([Fraction(1, 2048), Fraction(1, 4), Fraction(1, 2), Fraction(3, 7)]),
        point_lists(),
    )
    @example((0, 0), MaximizeActivePower(), Fraction(1, 2048), [pt(-9, -9), pt(9, -9), pt(0, 9)])
    @example((-3, 2), QuadraticCost(pt(0, "1/1024")), Fraction(1, 4), [pt(-9, -9), pt(9, 9)])
    def test_central_step_equals_oracle(self, x, cost, step, pts):
        """x on the 1/1024 grid; a step of 1/2048, or a centre half a grid step off,
        puts the snapped target on exact ties."""
        policy = CentralPolicy(cost, step)
        advertised = convex_hull(pts)
        x_prev = Point2(Fraction(x[0], 1024), Fraction(x[1], 1024))
        want = oracle.central_step(policy, advertised, x_prev)
        assert central_step(policy, advertised, x_prev) == want


@st.composite
def heater_cases(draw):
    """A bank of up to four rooms with fractional powers and thermal constants,
    in any switch and lock state, with temperatures on or off the 1/1024 grid."""
    rooms = draw(st.integers(1, 4))
    powers = [draw(st.sampled_from(["1", "2", "3", "3/2", "5/3", "7/4"])) for _ in range(rooms)]
    params = HeaterParams(
        powers=tuple(Fraction(p) for p in powers),
        t_min=Fraction(draw(st.sampled_from(["19", "379/20"]))),
        t_max=Fraction(22),
        lock_steps=draw(st.integers(0, 3)),
        leak=draw(st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(3, 7)])),
        gain=draw(st.sampled_from([Fraction(0), Fraction(1, 6), Fraction(2, 3)])),
        t_out=draw(st.sampled_from([Fraction(8), Fraction(-5, 3), Fraction(41, 2)])),
    )
    temps = st.one_of(
        st.sampled_from([Fraction(19), Fraction(22), Fraction(379, 20)]),
        st.fractions(min_value=18, max_value=23, max_denominator=3000),
        st.builds(Fraction, st.integers(18 * 1024, 23 * 1024), st.just(1024)),
    )
    state = HeaterState(
        on=tuple(draw(st.booleans()) for _ in range(rooms)),
        lock_remaining=tuple(draw(st.integers(0, 3)) for _ in range(rooms)),
        temps=tuple(draw(temps) for _ in range(rooms)),
    )
    return params, state, draw(st.lists(st.integers(0, 2**rooms), min_size=1, max_size=6))


class TestHeater:
    @settings(max_examples=100, deadline=None)
    @given(heater_cases())
    def test_step_equals_oracle(self, case):
        """A short run choosing setpoints by index; every state's set, every
        step and every rejected setpoint agree with the oracle."""
        params, state, choices = case
        for choice in choices:
            feasible = oracle.heater_feasible_set(params, state)
            points = heater_setpoints_2d(params, state).points
            assert points == tuple(Point2(v, 0) for v in feasible)
            for bad in (feasible[0] - Fraction(1, 3), Fraction(1)):
                with pytest.raises(ValueError):
                    heater_step(params, state, bad)
            setpoint = feasible[choice % len(feasible)]
            nxt = heater_step(params, state, setpoint)
            assert nxt == oracle.heater_step(params, state, setpoint)
            state = nxt
        assert all(t.denominator <= TEMP_RESOLUTION.denominator for t in state.temps)

    @settings(max_examples=60, deadline=None)
    @given(heater_cases())
    def test_state_compares_and_hashes_as_its_fractions(self, case):
        """Every state of a run, the drawn one with off-grid temperatures too,
        equals and hashes like the state built from its Fractions, reads them
        back in lowest terms, and equals another exactly when the Fraction
        tuples do."""
        params, state, choices = case
        states = [state]
        for choice in choices:
            feasible = oracle.heater_feasible_set(params, state)
            state = heater_step(params, state, feasible[choice % len(feasible)])
            states.append(state)
        for state in states:
            temps = state.temps
            assert all(type(t) is Fraction and gcd(t.numerator, t.denominator) == 1 for t in temps)
            rebuilt = HeaterState(on=state.on, lock_remaining=state.lock_remaining, temps=temps)
            assert state == rebuilt and hash(state) == hash(rebuilt)
            assert rebuilt.temps == temps
            assert pickle.loads(pickle.dumps(state)) == state
        for a in states:
            for b in states:
                same = (a.on, a.lock_remaining, a.temps) == (b.on, b.lock_remaining, b.temps)
                assert (a == b) == same

    def test_state_keeps_off_grid_temperatures_exactly(self):
        """Equal temperatures written differently give one state; an off-grid
        one is kept exactly until the first step snaps it."""
        a = HeaterState(on=(True, False), lock_remaining=(1, 0), temps=("2/4", "379/20"))
        b = HeaterState((True, False), (1, 0), (Fraction(1, 2), Fraction(758, 40)))
        assert a == b and hash(a) == hash(b)
        assert a.temps == (Fraction(1, 2), Fraction(379, 20))
        assert a != HeaterState(on=(True, False), lock_remaining=(1, 0), temps=("1/2", "19"))
        params = HeaterParams(powers=(Fraction(1), Fraction(2)), t_min=19, t_max=22)
        # Room 0 is locked on and room 1 too cold, so both heat.
        assert oracle.heater_feasible_set(params, a) == (Fraction(-3),)
        stepped = heater_step(params, a, Fraction(-3))
        assert stepped == oracle.heater_step(params, a, Fraction(-3))
        assert all(t.denominator <= TEMP_RESOLUTION.denominator for t in stepped.temps)

    def test_sets_with_one_base_differ_by_comfort_rooms(self):
        """Both states force nothing (base 0); one offers room 0, the other room 1."""
        params = HeaterParams(powers=(Fraction(1), Fraction(2)), t_min=19, t_max=22)
        first = HeaterState.initial([20, 25])
        second = HeaterState.initial([25, 20])
        assert heater_setpoints_2d(params, first).points == (pt(-1, 0), pt(0, 0))
        assert heater_setpoints_2d(params, second).points == (pt(-2, 0), pt(0, 0))


class TestUniformRequest:
    @settings(max_examples=60, deadline=None)
    @given(point_lists(), st.sampled_from([1, 2, 7, 64, 1024]), st.integers(0, 2**32))
    @example([pt(0, 1), pt(1, 0), pt(0, -1), pt(-1, 0)], 1, 0)  # no grid point inside: fallback
    def test_same_draws_as_oracle(self, pts, denominator, seed):
        """The same points from the same random calls, so the two streams stay in step."""
        advertised = convex_hull(pts)
        ours, theirs = random.Random(seed), random.Random(seed)
        draw, want = uniform_request(denominator), oracle.uniform_request(denominator)
        for _ in range(4):
            request = draw(advertised, pt(0, 0), ours)
            assert request == want(advertised, pt(0, 0), theirs)
            assert advertised.contains_point(request)
        assert ours.getstate() == theirs.getstate()


@st.composite
def traces(draw):
    """Runs of 1-25 steps over drawn point sets and polygons, either prediction
    mode, with or without diffusion, under uniform or fixed requests."""
    f = draw(affine_maps())
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        pts = [f(p) for p in draw(st.lists(small_points, min_size=1, max_size=4))]
        sets.append(PointSet(tuple(pts)) if draw(st.booleans()) else convex_hull(pts))
    if draw(st.booleans()):
        requests = uniform_request(draw(st.sampled_from([1, 7, 64, 1024])))
    else:
        # The first set's own point: a request every advertisement holds when
        # the sets are equal, so steps stagnate.
        sets = sets[:1]
        first = sets[0]
        points = first.points if isinstance(first, PointSet) else first.vertices
        requests = fixed_request(min(points))
    return run_trace(
        draw(st.sampled_from(MODES)),
        lambda n: sets[n % len(sets)],
        requests,
        draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 9)),
        diffusion=draw(st.booleans()),
    )


class TestMetrics:
    @settings(max_examples=50, deadline=None)
    @given(traces(), st.one_of(st.none(), st.fractions(min_value=0)))
    def test_equals_oracle(self, trace, bound_sq):
        assert compute_metrics(trace, bound_sq) == oracle.compute_metrics(trace, bound_sq)
        assert trace.max_error_norm2() == max(e.norm2() for e in trace.errors())

    def test_broken_identity_is_caught(self):
        records = [
            StepRecord(n, PointSet((p,)), ConvexPolygon((p,)), p, p, error)
            for n, p, error in ((0, pt(0, 0), pt(0, 0)), (1, pt(1, 0), pt(0, 1)))
        ]
        trace = ControllerTrace(records, final_error=pt(0, 1))
        for metrics in (compute_metrics, oracle.compute_metrics):
            with pytest.raises(AssertionError):
                metrics(trace, None)
