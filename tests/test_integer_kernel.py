"""The integer-triple kernel of errdiff.geometry against the Fraction oracle.

Polygons carry their integer triples, so besides the kernel functions the
tests cover polygons built from triples, translation, the hull of a union
of polygons and one whole collection-operator step.

Every input is a small rational configuration, which keeps the
degeneracies that matter (duplicates, collinear points, parallel edges,
cut lines through vertices and along edges), mapped by x -> off + s*x with
a large rational scale s and offset, so that coordinates carry numerators
and denominators of 200 bits and more.  A common scale preserves every
orientation sign, so the mapped input keeps its degeneracies.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernel as oracle
from errdiff.geometry import (
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    _orient3,
    _point,
    _polygon,
    _triple,
    clip,
    clip_all,
    convex_hull,
    hull_of_polygons,
    minkowski_sum,
    orient,
    segment,
)
from errdiff.operators import MODES, Collection, apply_collection, apply_member

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


class TestConversions:
    @settings(max_examples=100, deadline=None)
    @given(st.builds(Point2, st.one_of(small, big), st.one_of(small, big)))
    def test_triple_round_trip_is_normalised(self, p):
        x, y, w = t = _triple(p)
        assert w > 0
        assert _point(t) == p
        assert gcd(x, y, w) == 1


class TestOrientation:
    @settings(max_examples=100, deadline=None)
    @given(point_lists(min_size=3, max_size=3))
    @example([pt(0, 0), pt(1, 1), pt(2, 2)])
    @example([pt(0, 0), pt(1, 0), pt(0, 1)])
    @example([pt(0, 0), pt(0, 1), pt(1, 0)])
    @example([pt(1, 1), pt(1, 1), pt(2, 3)])
    def test_integer_orientation_has_the_sign_of_orient(self, pts):
        a, b, c = pts[:3]
        assert sign(_orient3(_triple(a), _triple(b), _triple(c))) == sign(orient(a, b, c))


class TestRepresentation:
    @settings(max_examples=100, deadline=None)
    @given(point_lists())
    def test_polygon_from_triples_equals_polygon_from_points(self, pts):
        validated = oracle.convex_hull(pts)
        lazy = _polygon(tuple(_triple(v) for v in validated.vertices))
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
        assert hull_of_polygons(polygons) == expected


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
        for u, v in region.edges():
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
