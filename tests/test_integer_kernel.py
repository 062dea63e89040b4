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

import ast
import copy
import importlib
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernel as oracle
from errdiff import geometry, operators
from errdiff.dynamics import ControllerTrace, StepRecord, fixed_request, run_trace, uniform_request
from errdiff.geometry import (
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    _cut,
    _from_triple,
    _hull,
    _line,
    _normalised,
    _polygon,
    _scaled,
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
    _digest,
    _within_bits,
    apply_collection,
    apply_member,
    cell_pieces,
    feasible_hull,
)
from errdiff.resources import (
    TEMP_RESOLUTION,
    HeaterParams,
    HeaterState,
    grid_numerator,
    heater_setpoints_2d,
    heater_step,
)
from errdiff.serialize import _trace_csv
from errdiff.simulate import (
    REQUEST_RESOLUTION,
    CentralPolicy,
    MaximizeActivePower,
    QuadraticCost,
    ResourceMetrics,
    central_step,
    compute_metrics,
    least_squares_slope,
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


# The package's value types: the oracle may build and read these.
VALUE_TYPES = {
    "Point2", "PointSet", "ConvexPolygon", "HalfPlane", "Collection", "StepRecord",
    "ControllerTrace", "HeaterParams", "HeaterState", "ResourceMetrics", "IntervalUnion",
}


def test_oracle_shares_no_kernel_code():
    """The oracle imports only value types, exceptions and constants from
    errdiff, so no kernel function is checked against itself."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "errdiff"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "errdiff":
            module = importlib.import_module(node.module)
            imported.update((a.name, getattr(module, a.name)) for a in node.names)
    kernel = [
        name
        for name, obj in imported.items()
        if name not in VALUE_TYPES
        and not (isinstance(obj, type) and issubclass(obj, Exception))
        and not (name.isupper() and not callable(obj))
    ]
    assert imported and kernel == []


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
        assert orient(a, b, c) == oracle.orient(a, b, c)


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


def _filled(poly: ConvexPolygon) -> ConvexPolygon:
    """poly, after the kernels that read its edge table have run on it."""
    minkowski_sum(poly, poly)
    return poly


def _round_trip_values() -> dict:
    sites = PointSet((pt(0, 0), pt(2, 1), pt(1, 3)))
    sites.hull()
    hashed = convex_hull([pt(0, 0), pt(Fraction(1, 3), 5)])
    hash(hashed)
    tabled = _filled(convex_hull([pt(-1, 0), pt(2, -1), pt(2, 2), pt(0, 3)]))
    collection = Collection((sites, tabled), "persistent")
    config = operators.IterationConfig(max_iterations=4)
    return {
        "point": pt(Fraction(-2, 3), 7),
        "half-plane": HalfPlane(Fraction(1, 2), -3, 4),
        "fresh polygon": convex_hull([pt(0, 0), pt(3, 1), pt(1, 2)]),
        "hashed segment": hashed,
        "polygon with its table": tabled,
        "point set after hull": sites,
        "collection": collection,
        "iteration result": operators.iterate_to_invariance(collection, ConvexPolygon((pt(0, 0),)), config),
    }


class TestPickleAndCopy:
    @pytest.mark.parametrize("name", list(_round_trip_values()))
    @pytest.mark.parametrize(
        "copier",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip_is_equal_with_an_equal_hash(self, name, copier):
        value = _round_trip_values()[name]
        back = copier(value)
        if isinstance(value, ConvexPolygon):
            assert hasattr(value, "_edges") == (name == "polygon with its table")
            # Only the triples travel: no table, hash or vertex cache.
            assert back._verts is None
            assert not hasattr(back, "_hash") and not hasattr(back, "_edges")
        assert back == value
        if name == "iteration result":  # mutable, so unhashable: hash what it holds
            assert hash(back.invariant_set) == hash(value.invariant_set)
            assert hash(tuple(back.iterates)) == hash(tuple(value.iterates))
        else:
            assert hash(back) == hash(value)


@st.composite
def table_polygons(draw):
    """A point, segment or polygon built by the validating constructor,
    from triples by `_polygon`, by `translate` or by `minkowski_sum`."""
    pts = draw(point_lists(max_size=5))
    source = draw(st.sampled_from(["validated", "triples", "translate", "minkowski_sum"]))
    if source == "validated":
        return oracle.convex_hull(pts)
    if source == "triples":
        return _polygon(tuple(v._t for v in oracle.convex_hull(pts).vertices))
    if source == "translate":
        return convex_hull(pts).translate(draw(offsets))
    return minkowski_sum(convex_hull(pts), convex_hull(draw(point_lists(max_size=4))))


# Each reader of the edge table, with its oracle.
TABLE_READERS = {
    "minkowski_sum": lambda p, q, z: (minkowski_sum(p, q), oracle.minkowski_sum(p, q)),
    "contains_polygon": lambda p, q, z: (
        (p.contains_polygon(q), q.contains_polygon(p)),
        (oracle.contains_polygon(p, q), oracle.contains_polygon(q, p)),
    ),
    "contains_point": lambda p, q, z: (
        [p.contains_point(v) for v in (z, *q.vertices)],
        [oracle.contains_point(p, v) for v in (z, *q.vertices)],
    ),
    "project_convex_polygon": lambda p, q, z: (
        (project_convex_polygon(p, z), project_convex_polygon(q, z)),
        (oracle.project_convex_polygon(p, z), oracle.project_convex_polygon(q, z)),
    ),
}


class TestEdgeTable:
    @settings(max_examples=80, deadline=None)
    @given(table_polygons(), table_polygons(), small_points, st.permutations(list(TABLE_READERS)))
    def test_readers_in_any_order_equal_oracle(self, p, q, z, order):
        """Each reader meets the tables of p and q empty or filled by the
        readers before it; the second pass reads them all filled."""
        for name in order + order:
            got, expected = TABLE_READERS[name](p, q, z)
            assert got == expected, name

    @settings(max_examples=60, deadline=None)
    @given(table_polygons())
    def test_filled_table_compares_and_hashes_like_a_fresh_polygon(self, poly):
        fresh = _polygon(poly._ts)
        _filled(poly)
        assert poly == fresh and fresh == poly
        assert hash(poly) == hash(fresh)
        assert {fresh: "found"}[poly] == "found"

    def test_kept_iterates_hold_no_table(self):
        collection = Collection((PointSet.from_coords([(0, 0), (2, 1), (1, 3)]), PointSet.from_coords([(0, 0), (3, 0)])))
        seed = ConvexPolygon((pt(0, 0),))
        result = operators.iterate_to_invariance(collection, seed, operators.IterationConfig(max_iterations=12))
        assert result.status == "budget" and len(result.iterates) == 13
        assert all(len(poly._ts) >= 3 for poly in result.iterates[2:])
        assert not any(hasattr(poly, "_edges") for poly in result.iterates)
        # The steps did read tables: a step's first reader refills them.
        assert not hasattr(result.invariant_set, "_edges")
        operators.check_invariance(collection, result.invariant_set)
        assert hasattr(result.invariant_set, "_edges")


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
    # The chord from the first sorted point to the last splits the others
    # between the chains; points on it, or all of them, are on neither.
    @example([pt(3, 1), pt(-2, 1), pt(0, 1), pt(1, 1)])  # horizontal
    @example([pt(2, 2), pt(-1, -1), pt(0, 0), pt(5, 5), pt(1, 1)])  # diagonal
    @example([pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 2), pt(1, 0), pt(2, -2)])  # on the chord
    @example([pt(0, 0), pt(0, 0), pt(4, 4), pt(4, 4), pt(1, 3), pt(3, 1)])  # duplicated ends
    @example([pt(0, 0), pt(0, 2), pt(4, 0), pt(4, 2), pt(0, 1), pt(4, 1)])  # vertical ends
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
            # Equal x, so the exact sort orders them by y.
            [(HUGE, 2), (HUGE, -1), (HUGE, 0), (HUGE + 1, 1), (HUGE - 1, 1)],
            [(HUGE, 1), (HUGE, 3), (HUGE, 2), (HUGE, 1)],
            [(-HUGE, 0), (-HUGE, 1), (HUGE, 0), (HUGE, 1), (0, 2)],
        ],
    )
    def test_coordinates_too_large_for_a_float(self, coords):
        pts = [pt(x, y) for x, y in coords]
        assert convex_hull(pts) == oracle.convex_hull(pts)

    @pytest.mark.parametrize(
        "pair",
        [
            # Equal x; the float sort breaks the (1.0, 1.0) tie by the triples,
            # (1, 1, 1) first, but exactly 1 - 2**-70 < 1.
            [pt(1, 1), pt(1, 1 - Fraction(1, 2**70))],
            [pt(1 - Fraction(1, 2**70), 1 - Fraction(1, 2**70)), pt(1, 1)],
            [pt(1 + Fraction(1, 2**70), 1), pt(1, 1 + Fraction(1, 2**70))],
        ],
    )
    def test_equal_float_x_and_y_are_ordered_exactly(self, pair):
        for order in (pair, pair[::-1]):
            assert convex_hull(order) == oracle.convex_hull(order)

    def test_reversed_pair_after_an_ordered_one_in_a_run(self):
        # The float sort puts the run (1, 0), (1 + e, 1), (1 - e, 2), e =
        # 2**-70, in that order: its first pair is in exact order, its second
        # is not, and its last point is the smallest of all exactly.
        e = Fraction(1, 2**70)
        pts = [pt(1, 0), pt(1 + e, 1), pt(1 - e, 2), pt(3, 1)]
        for order in (pts, pts[::-1]):
            assert convex_hull(order) == oracle.convex_hull(order)

    @pytest.mark.parametrize("count", [2, 3, 4, 5, 6])
    def test_integer_columns_pass_the_scan(self, count, monkeypatch):
        """Columns of equal integer x, as the benchmark's grids give: equal
        float x there are equal x, so no exact sort runs."""
        pts = [pt(x, y) for x in (-1, 0, 2) for y in range(count)] + [pt(1, -1), pt(1, count)]
        exact = mock.Mock(side_effect=geometry._LEX_KEY)
        monkeypatch.setattr(geometry, "_LEX_KEY", exact)
        for order in (pts, pts[::-1]):
            assert convex_hull(order) == oracle.convex_hull(order)
        assert exact.call_count == 0


def _float_orient(a: Point2, b: Point2, c: Point2) -> float:
    """orient(a, b, c) evaluated as `_hull` first evaluates it: on the
    correctly rounded float keys."""
    (ax, ay), (bx, by), (cx, cy) = [(float(p.x), float(p.y)) for p in (a, b, c)]
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


# Numerators and denominators of 200 bits, magnitudes up to 2.
unit = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(2**199, 2**200))
# Magnitudes inside the filter's guard 2**-400 <= B <= 2**400, at its two
# edges and just beyond them, so large that the float products overflow,
# so small that they are subnormal, so small that the keys are subnormal or
# zero, and beyond the float range, where the keys overflow.
GUARD_SCALES = [
    Fraction(1), Fraction(2**399), Fraction(2**400), Fraction(2**401),
    Fraction(1, 2**399), Fraction(1, 2**400), Fraction(1, 2**402),
    Fraction(2**700), Fraction(1, 2**530), Fraction(1, 2**1080), Fraction(2**1030), Fraction(HUGE),
]


@st.composite
def near_collinear(draw):
    """a, b and up to three points a + t(b - a) moved across the line ab by
    2**-k times its normal, k in 40..80, or not at all; sometimes a point
    within about 2**-70 of a, whose float key ties a's; all scaled by one of
    `GUARD_SCALES` and shuffled."""
    a = Point2(draw(unit), draw(unit))
    b = draw(st.builds(Point2, unit, unit).filter(lambda q: q != a))
    d, normal = b - a, Point2(a.y - b.y, b.x - a.x)
    pts = [a, b]
    for _ in range(draw(st.integers(1, 3))):
        off = draw(st.sampled_from([-1, 0, 1])) * Fraction(1, 2 ** draw(st.integers(40, 80)))
        pts.append(a + d * draw(unit) + normal * off)
    if draw(st.booleans()):
        e = Fraction(draw(st.integers(-3, 3)), 2**70)
        off = draw(st.sampled_from([-1, 0, 1])) * Fraction(1, 2 ** draw(st.integers(70, 80)))
        pts.append(a + d * e + normal * off)
    scale = draw(st.sampled_from(GUARD_SCALES))
    return draw(st.permutations([p * scale for p in pts]))


class TestFilteredOrientation:
    @settings(max_examples=300, deadline=None)
    @given(near_collinear())
    # Below the guard, where the float products are subnormal: a triangle
    # whose rounded orientation would read it as a segment.
    @example([
        p * Fraction(1, 2**540)
        for p in (pt(-1, 1), pt(9, Fraction(1, 3)),
                  pt(Fraction(1260871850926195272056831, 3 * 2**72), Fraction(-23611832414348226068485, 2**72)))
    ])
    def test_near_collinear_equals_oracle(self, pts):
        assert convex_hull(pts) == oracle.convex_hull(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            # A triangle that reads as a segment in floats: 2 + 2**-60 rounds to 2.
            [pt(0, 0), pt(1, 1), pt(2, 2 + Fraction(1, 2**60))],
            # Exactly the last point is right of the first two, by the floats left.
            [pt(0, 0), pt(10, Fraction(11, 6)), pt(Fraction(85, 2), Fraction(187, 24) - Fraction(1, 2**54))],
        ],
        ids=["float zero", "float wrong sign"],
    )
    def test_undecided_floats_take_the_exact_test(self, pts, monkeypatch):
        exact, rounded = orient(*pts), _float_orient(*pts)
        assert exact != 0 and (rounded > 0) != (exact > 0)
        line = mock.Mock(side_effect=geometry._line)
        monkeypatch.setattr(geometry, "_line", line)
        for order in (pts, pts[::-1]):
            hull = convex_hull(order)
            assert len(hull.vertices) == 3 and hull == oracle.convex_hull(order)
        assert line.call_count > 0

    def test_the_filter_decides_points_in_general_position(self, monkeypatch):
        """Forty points with 200-bit coordinates, none near another's line:
        the floats decide nearly every test, so few exact lines are built."""
        rng = random.Random(7)
        coord = lambda: Fraction(rng.randrange(-(2**200), 2**200), rng.randrange(2**199, 2**200))
        pts = [pt(coord(), coord()) for _ in range(40)]
        line = mock.Mock(side_effect=geometry._line)
        monkeypatch.setattr(geometry, "_line", line)
        for order in (pts, pts[::-1]):
            assert convex_hull(order) == oracle.convex_hull(order)
        assert line.call_count <= 4


class TestFloatAssumptions:
    """What the float screens' error bounds assume of the platform: binary64
    floats and correctly rounded int / int."""

    def test_floats_are_binary64(self):
        info = sys.float_info
        assert (info.radix, info.mant_dig, info.max_exp, info.min_exp) == (2, 53, 1024, -1021)

    @pytest.mark.parametrize("seed", range(3))
    def test_int_division_is_correctly_rounded(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            x = rng.randrange(-(2**300), 2**300)
            w = rng.randrange(1, 2**300) if rng.random() < 0.5 else rng.randrange(2**299, 2**300)
            q, exact = x / w, Fraction(x, w)
            err = abs(Fraction(q) - exact)
            for neighbour in (math.nextafter(q, -math.inf), math.nextafter(q, math.inf)):
                assert err <= abs(Fraction(neighbour) - exact)


def _canonical(raw) -> Optional[ConvexPolygon]:
    """A raw CCW boundary list rotated to its smallest vertex, through the
    validating constructor: strict left turns and no repeated point.  An
    empty list is None, as `clip_all` returns it."""
    if not raw:
        return None
    pts = [Point2(Fraction(x, w), Fraction(y, w)) for x, y, w in raw]
    k = pts.index(min(pts))
    return ConvexPolygon(pts[k:] + pts[:k])


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
        """Equal to the oracle, and None exactly when the oracle's intersection is empty."""
        region = convex_hull(pts)
        planes = [plane for _, plane in cases]
        got, want = clip_all(region, planes), oracle.clip_all(region, planes)
        assert (got is None) == (want is None)
        assert got == want

    def test_uncut_polygon_is_returned_as_is(self):
        assert clip_all(SQUARE, [HalfPlane(1, 0, 1), HalfPlane(0, 1, 5)]) is SQUARE


class TestMinkowski:
    @settings(max_examples=100, deadline=None)
    @given(point_lists(), point_lists())
    # The square's last edge arrives at its vertex 0 straight down; a
    # vertical segment's first edge leaves it straight up.
    @example([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)], [pt(0, 0), pt(0, 2)])
    @example([pt(0, 0), pt(0, 2)], [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
    @example([pt(0, 0), pt(2, 1), pt(0, 3)], [pt(1, -1), pt(3, 0), pt(1, 1)])
    @example([pt(0, 0), pt(2, 1)], [pt(4, 2), pt(0, 0)])  # parallel segments, given reversed
    @example([pt(0, 0), pt(0, 2)], [pt(1, 3), pt(1, 1)])  # vertical ones
    @example([pt(0, 0), pt(2, 1)], [pt(1, 0), pt(-1, 1)])
    @example([pt(1, 1)], [pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5)])  # a point operand
    @example([pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5)], [pt(1, 1)])
    def test_equals_oracle(self, pa, pb):
        p, q = convex_hull(pa), convex_hull(pb)
        got = minkowski_sum(p, q)
        assert got == oracle.minkowski_sum(p, q)
        assert ConvexPolygon(got.vertices) == got  # passes the validating constructor

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


SQUARE4 = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]


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
    # the inner set shares the outer vertex (4, 4)
    @example(SQUARE4, [pt(2, 2), pt(4, 4), pt(3, 4)])
    # an inner edge on an outer edge: equal edge angles
    @example([pt(0, 0), pt(4, 0), pt(0, 4)], [pt(1, 0), pt(3, 0), pt(1, 1)])
    # inner equal to outer
    @example([pt(0, 0), pt(4, 0), pt(0, 4)], [pt(0, 0), pt(4, 0), pt(0, 4)])
    # a vertical inner segment
    @example(SQUARE4, [pt(1, 1), pt(1, 3)])
    # one vertex outside by 2**-60, across only the last outer edge (x = 0)
    @example(SQUARE4, [pt(1, 1), pt(Fraction(-1, 2**60), 2), pt(2, 3)])
    # contact at the outer set's lexicographic minimum
    @example([pt(0, 0), pt(4, -2), pt(4, 2)], [pt(0, 0), pt(2, 0), pt(2, 1)])
    def test_contains_polygon_equals_oracle(self, pa, pb):
        p, q = convex_hull(pa), convex_hull(pb)
        for outer, inner in ((p, q), (q, p), (p, p), (minkowski_sum(p, q), q)):
            assert outer.contains_polygon(inner) == oracle.contains_polygon(outer, inner)


class TestHolds:
    @settings(max_examples=80, deadline=None)
    @given(point_lists(max_size=5), st.lists(small_points, min_size=1, max_size=4), affine_maps())
    @example([pt(1, 2)], [pt(1, 2), pt(0, 0)], lambda p: p)  # a point holds only itself
    @example([pt(0, 0), pt(2, 1)], [pt(4, 2), pt(1, 1)], lambda p: p)  # on the segment's line, off it
    @example([pt(2, 1), pt(0, 0), pt(0, 3)], [pt(-2, -1), pt(1, 1)], lambda p: p)
    @example(SQUARE4, [pt(2, 2), pt(4, 5)], lambda p: p)
    def test_equals_oracle(self, pts, probes, f):
        """`geometry._holds` on the point, the segment and the polygon that
        the first one, the first two and all of pts span.  The probes are the region's vertices (a segment's
        ends), edge midpoints, points on its edge lines beyond the ends,
        which for a segment lie on its line but outside it, and free points."""
        half = Fraction(1, 2)
        hulls = {convex_hull(map(f, pts[:k])) for k in (1, 2, len(pts))}
        for region in hulls:
            candidates = list(region.vertices) + [f(p) for p in probes]
            for u, v in oracle.edges(region):
                candidates += [(u + v) * half, u * 2 - v, v * 2 - u]
            for z in candidates:
                assert geometry._holds(region, z._t) == oracle.contains_point(region, z)
                assert region.contains_point(z) == oracle.contains_point(region, z)

    def test_no_empty_region_reaches_it(self):
        """An empty region is refused where it is built, so `_holds` never sees one."""
        with pytest.raises(ValueError, match="needs at least one vertex"):
            geometry._holds(convex_hull([]), (0, 0, 1))


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


wide_points = st.builds(Point2, wide_coords, wide_coords)


@st.composite
def one_point_cases(draw):
    """A one-point member, a point set or a one-vertex polygon, and a point,
    segment or polygon region that holds the origin or, mostly, does not;
    numerators and denominators have up to 200 bits."""
    c = draw(wide_points)
    member = PointSet((c,)) if draw(st.booleans()) else ConvexPolygon((c,))
    pts = draw(st.lists(wide_points, min_size=1, max_size=4))
    if draw(st.booleans()):
        pts.append(Point2(0, 0))
    return member, convex_hull(pts)


class TestOnePointMember:
    """A member of one point c has the plane as its only cell, so both of
    its operators are the identity: (c + Q) - c = Q and {c} + (D - c) = D."""

    @settings(max_examples=80, deadline=None)
    @given(one_point_cases(), st.sampled_from(MODES))
    @example((PointSet((pt(5, -2),)), convex_hull([pt(1, 1), pt(3, 1), pt(2, 4)])), "perfect")
    @example((ConvexPolygon((pt(5, -2),)), segment(pt(1, 1), pt(3, 2))), "persistent")
    @example((ConvexPolygon((pt(5, -2),)), ConvexPolygon((pt(-1, 7),))), "perfect")
    def test_is_the_identity(self, case, mode):
        member, region = case
        assert oracle.apply_collection(Collection((member,), mode), region) == region
        assert apply_member(member, region, mode) == region

    @settings(max_examples=40, deadline=None)
    @given(collections(), one_point_cases(), st.integers(min_value=0, max_value=3))
    def test_in_a_collection_equals_oracle(self, collection, case, at):
        member, region = case
        sets = list(collection.sets)
        sets.insert(at % (len(sets) + 1), member)
        mixed = Collection(tuple(sets), collection.mode)
        assert apply_collection(mixed, region) == oracle.apply_collection(mixed, region)

    @pytest.mark.parametrize("member", [PointSet((pt(3, -2),)), ConvexPolygon((pt(3, -2),))])
    def test_errors_are_unchanged(self, member):
        """An empty region is refused where it is built, before any operator
        runs; a bogus mode is refused by the collection."""
        for mode in MODES:
            with pytest.raises(ValueError, match="needs at least one vertex"):
                apply_member(member, ConvexPolygon(()), mode)
            with pytest.raises(ValueError, match="needs at least one vertex"):
                apply_collection(Collection((member, RING), mode), convex_hull([]))
        with pytest.raises(ValueError, match="mode must be one of"):
            apply_member(member, SQUARE, "bogus")

    def test_builds_no_sum_and_no_piece(self):
        members = (PointSet((pt(3, -2),)), ConvexPolygon((pt(3, -2),)))
        with mock.patch.object(operators, "minkowski_sum") as summed, \
                mock.patch.object(operators, "cell_pieces") as pieces:
            for member in members:
                for mode in MODES:
                    assert apply_member(member, SQUARE, mode) == SQUARE
        summed.assert_not_called()
        pieces.assert_not_called()


@st.composite
def member_regions(draw):
    """A point, segment or triangle and a region of small points under one
    large map; region points are often member vertices or shared grid points."""
    f = draw(affine_maps())
    member = draw(st.lists(small_points, min_size=1, max_size=3))
    region = draw(st.lists(st.one_of(small_points, st.sampled_from(member)), min_size=1, max_size=4))
    return convex_hull(map(f, member)), convex_hull(map(f, region))


@st.composite
def point_set_regions(draw):
    """A point set of 2-8 sites, free or on one line, and a region of 1-5
    points that are often sites, midpoints of two sites or shared grid
    points, all under one large map."""
    f = draw(affine_maps())
    if draw(st.booleans()):
        sites = draw(st.lists(small_points, min_size=2, max_size=8, unique=True))
    else:
        base = draw(small_points)
        d = draw(small_points.filter(lambda p: p != Point2(0, 0)))
        sites = [base + d * t for t in draw(st.lists(small, min_size=2, max_size=8, unique=True))]
    near = sites + [(p + q) * Fraction(1, 2) for p, q in itertools.combinations(sites, 2)]
    region = draw(st.lists(st.one_of(small_points, st.sampled_from(near)), min_size=1, max_size=5))
    return PointSet(tuple(map(f, sites))), convex_hull(map(f, region))


# The heater bank's setpoints lie on the P axis: their cells are strips.
STRIPS = PointSet.from_coords([(0, 0), (3, 0), (5, 0), (8, 0)])
TWO_SITES = PointSet.from_coords([(0, 0), (2, 0)])
# The x axis is the bisector of (0, -1) and (0, 1); it meets the cells of
# (-3, 0) and (3, 0) at the Voronoi vertices (-4/3, 0) and (4/3, 0).
MIRRORED = PointSet.from_coords([(-3, 0), (0, -1), (0, 1), (3, 0)])
# RING's four midpoints share the Voronoi vertex (0, 0).
AROUND_ORIGIN = convex_hull([pt(-2, -1), pt(2, -1), pt(0, 2)])
FROM_ORIGIN = convex_hull([pt(0, 0), pt(3, 1), pt(1, 3)])
# Regions with an edge along the x axis: the first edge, the last edge, and
# an edge away from vertex 0.
ALONG_AXIS = (
    convex_hull([pt(-4, 0), pt(4, 0), pt(0, 3)]),
    convex_hull([pt(-4, 0), pt(0, -3), pt(4, 0)]),
    convex_hull([pt(-5, -1), pt(0, -3), pt(4, 0), pt(-4, 0)]),
)
POINT_SET_EXAMPLES = (
    (RING, AROUND_ORIGIN),
    (STRIPS, convex_hull([pt(-1, -2), pt(9, 1), pt(2, 3)])),
    (STRIPS, segment(pt(-1, 1), pt(9, -1))),
    (TWO_SITES, convex_hull([pt(0, 1), pt(3, -1), pt(2, 2)])),
    (RING, FROM_ORIGIN),  # a region vertex at a Voronoi vertex
    (MIRRORED, segment(pt(-4, 0), pt(4, 0))),
    (RING, ConvexPolygon((pt(0, 0),))),
    (RING, segment(pt(-2, 0), pt(2, 0))),
    (MIRRORED, segment(pt(0, -2), pt(Fraction(8, 3), 2))),  # crosses (4/3, 0) at a slant
) + tuple((MIRRORED, region) for region in ALONG_AXIS)  # a region edge along a bisector


def _with_examples(cases):
    def decorate(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test

    return decorate


SLAB_TRIANGLE = convex_hull([pt(0, 0), pt(4, 0), pt(0, 4)])
SEGMENT = segment(pt(0, 0), pt(2, 0))
# Its one Voronoi vertex, the circumcentre (2, -3/2), lies outside its hull.
OBTUSE = PointSet.from_coords([(0, 0), (4, 0), (2, 1)])
# Holds the origin; its sum with OBTUSE's hull holds (2, -3/2).
AROUND_ORIGIN_LOW = convex_hull([pt(-1, -2), pt(1, -2), pt(0, 1)])


def _pieces(member, region, **flags):
    return [_polygon(_hull(piece)) for piece in cell_pieces(member, region, **flags)]


class TestCellPieces:
    """Each cell's piece, and each member's operator, against the oracle's
    pieces, which are clipped by Voronoi cells or cut from Minkowski sums."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(member_regions(), point_set_regions()))
    @example((SLAB_TRIANGLE, convex_hull([pt(0, 0), pt(-1, -2), pt(-2, -1)])))  # meets at a vertex only
    @example((SLAB_TRIANGLE, segment(pt(0, -3), pt(0, -1))))  # on an edge's normal line
    @example((SLAB_TRIANGLE, segment(pt(2, -3), pt(2, -1))))  # a zero-width slab inside a strip
    @example((SLAB_TRIANGLE, convex_hull([pt(1, -3), pt(3, -3), pt(2, -1)])))  # inside one edge strip
    @example((SLAB_TRIANGLE, segment(pt(2, -2), pt(2, 1))))  # crosses an edge into the member
    @example((SEGMENT, segment(pt(1, -2), pt(1, 2))))  # both normal half-lines of a segment
    @example((SEGMENT, segment(pt(1, 1), pt(1, 3))))
    @example((SLAB_TRIANGLE, convex_hull([pt(5, 5), pt(6, 5), pt(5, 6)])))  # disjoint from the member
    @example((SLAB_TRIANGLE, ConvexPolygon((pt(2, -1),))))  # a zero-length extent
    @example((SLAB_TRIANGLE, segment(pt(1, -1), pt(3, -1))))  # zero length over two vertices
    @example((ConvexPolygon((pt(1, 1),)), SLAB_TRIANGLE))
    @example((SEGMENT, segment(pt(3, -1), pt(3, 1))))  # crosses the line beyond one end: no meet
    @example((SEGMENT, segment(pt(-1, -1), pt(-1, 1))))  # beyond the other end
    @example((SEGMENT, ConvexPolygon((pt(1, 0),))))  # a point inside the segment: the meet [0]
    @example((SLAB_TRIANGLE, AROUND_ORIGIN_LOW))  # holds the origin: the meet [0] untested
    @example((OBTUSE, AROUND_ORIGIN_LOW))  # holds the origin, and R holds the outer vertex
    @_with_examples(POINT_SET_EXAMPLES)
    def test_pieces_equal_oracle(self, case):
        """Each region as drawn and with the origin added after the map.
        A perfect-mode region ch S + Q with 0 in Q covers ch S, and its
        pieces are also taken with that known."""
        member, drawn = case
        for region in dict.fromkeys((drawn, convex_hull([*drawn.vertices, pt(0, 0)]))):
            fattened = minkowski_sum(feasible_hull(member), region)
            assert _pieces(member, region) == oracle.cell_pieces(member, region)  # persistent
            want = oracle.cell_pieces(member, fattened)  # perfect
            assert _pieces(member, fattened) == want
            if oracle.contains_point(region, pt(0, 0)):
                assert _pieces(member, fattened, covers_hull=True) == want
            for mode in MODES:
                want = oracle.apply_collection(Collection((member,), mode), region)
                assert apply_member(member, region, mode) == want

    @settings(max_examples=60, deadline=None)
    @given(point_set_regions())
    @_with_examples(POINT_SET_EXAMPLES)
    def test_neighbours_hold_every_meeting_cell(self, case):
        """The neighbour lists are sorted and symmetric, and hold every two
        sites incident to one Voronoi vertex and every two sites whose
        oracle cells meet inside a box around the sites and vertices.  On
        one line they are the sorted adjacency."""
        member, _ = case
        _, _, nbrs, inner, outer = operators._cells(member)
        n = len(member)
        assert all(list(ds) == sorted(set(ds)) for ds in nbrs)
        pairs = {(c, d) for c in range(n) for d in nbrs[c]}
        assert pairs == {(d, c) for c, d in pairs}
        for _, moved in inner + outer:
            incident = [c for c, _ in moved]
            assert {(c, d) for c in incident for d in incident if c != d} <= pairs
        if len(oracle.convex_hull(member.points).vertices) <= 2:
            assert pairs == {(c, d) for c in range(n) for d in (c - 1, c + 1) if 0 <= d < n}
        corners = [_from_triple(p) for p, _ in inner + outer]
        xs = [p.x for p in [*member.points, *corners]]
        ys = [p.y for p in [*member.points, *corners]]
        pad = max(max(xs) - min(xs), max(ys) - min(ys))
        box = oracle.convex_hull(
            Point2(x, y) for x in (min(xs) - pad, max(xs) + pad) for y in (min(ys) - pad, max(ys) + pad)
        )
        sites = member.points
        for c, d in itertools.combinations(range(n), 2):
            both = oracle.bisectors(member, sites[c]) + oracle.bisectors(member, sites[d])
            if oracle.clip_all(box, both) is not None:
                assert (c, d) in pairs

    @settings(max_examples=40, deadline=None)
    @given(point_set_regions())
    @_with_examples(POINT_SET_EXAMPLES)
    def test_each_walk_computes_its_changes_once(self, case):
        """An edge is walked only where its nearest site changes, and each
        change is computed once, strictly inside the edge."""
        member, region = case
        walks, crossings = [], []
        walk, crossing = operators._walk, operators._crossing

        def counted_walk(u, v, *rest):
            before = len(crossings)
            walk(u, v, *rest)
            walks.append((u, v, crossings[before:]))

        def counted_crossing(*args):
            crossings.append(crossing(*args))
            return crossings[-1]

        with mock.patch.object(operators, "_walk", counted_walk), mock.patch.object(
            operators, "_crossing", counted_crossing
        ):
            for fattened in (region, minkowski_sum(feasible_hull(member), region)):
                cell_pieces(member, fattened)
        for u, v, points in walks:
            assert points
            assert len(set(points)) == len(points)
            assert u not in points and v not in points


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
    # Raw X, Y, W = 2**40, 3**26, 2**40 * 3**26; lowest terms 1/3**26 and 1/2**40.
    @example([pt(Fraction(1, 3**26), Fraction(1, 2**40))])
    def test_equals_oracle(self, pts):
        """The digest, and the bit screen exactly at the count and one under it."""
        poly = convex_hull(pts)
        assert _digest(poly) == oracle.digest(poly)
        bits = oracle.coordinate_bits(poly)
        assert _within_bits(poly, bits) and not _within_bits(poly, bits - 1)

    def test_bit_screen_counts_values_too_long_to_write_in_decimal(self):
        """Python refuses to write an int of more than 4300 digits in decimal;
        an extrapolated candidate can hold one, and the screen must still
        answer.  Raw Y is 2**20000 * 3**13000; in lowest terms y = 2**20000
        (20001 bits) and x = 1/3**13000 (20605 bits)."""
        poly = ConvexPolygon((Point2(Fraction(1, 3**13000), 2**20000),))
        assert _within_bits(poly, 20605)
        assert not _within_bits(poly, 20604)
        assert not _within_bits(poly, 4096)


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
        """An empty polygon is refused where it is built, before the projection runs."""
        with pytest.raises(ValueError, match="needs at least one vertex"):
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

    def test_banks_with_other_powers_decode_apart(self):
        """Two banks with the same comfort order and the same targets but other
        powers, stepped interleaved: a decode kept for one bank is never the
        other's.  Bank a heats both rooms for -3, bank b only room 1."""
        banks = [
            HeaterParams(powers=powers, t_min=19, t_max=22, gain=Fraction(1, 6), t_out=8)
            for powers in ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3)))
        ]
        states = [HeaterState.initial(["20", "41/2"]) for _ in banks]
        for setpoint in (Fraction(-3), Fraction(-1), Fraction(-3), Fraction(0), Fraction(-3)):
            for k, params in enumerate(banks):
                nxt = heater_step(params, states[k], setpoint)
                assert nxt == oracle.heater_step(params, states[k], setpoint)
                states[k] = nxt
        assert states[0].on == (True, True) and states[1].on == (False, True)

    def test_unimplementable_setpoint_raises_every_time(self):
        """A target that no subset of the comfort powers sums to raises each
        time it is asked, after the first answer has been kept."""
        params = HeaterParams(powers=(Fraction(1), Fraction(2)), t_min=19, t_max=22)
        state = HeaterState.initial(["20", "21"])
        assert oracle.heater_feasible_set(params, state) == tuple(map(Fraction, (-3, -2, -1, 0)))
        for setpoint in (Fraction(-4), Fraction(-4), -4, Fraction(1), 1):
            with pytest.raises(ValueError, match="not implementable"):
                heater_step(params, state, setpoint)
        assert heater_step(params, state, -3) == oracle.heater_step(params, state, Fraction(-3))

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
        draw, want = uniform_request(ours, denominator), oracle.uniform_request(theirs, denominator)
        for _ in range(4):
            request = draw(advertised)
            assert request == want(advertised)
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
        rng = random.Random(draw(st.integers(0, 9)))
        requests = uniform_request(rng, draw(st.sampled_from([1, 7, 64, 1024])))
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
        diffusion=draw(st.booleans()),
    )


def per_step_metrics(trace: ControllerTrace, bound_sq) -> ResourceMetrics:
    """The metrics in one integer pass over every step, each triple scaled,
    summed and normed where it occurs: the per-step form of `compute_metrics`."""
    records = trace.records
    steps = len(records)
    if steps == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    errors = trace.errors()
    scale, ints = _scaled(
        [p._t for p in [r.requested for r in records] + [r.implemented for r in records] + errors]
    )
    requested, implemented, scaled_errors = ints[:steps], ints[steps : 2 * steps], ints[2 * steps :]
    norms2 = [x * x + y * y for x, y in scaled_errors]
    max_norm2 = max(norms2)
    longest = current = 0
    prev = None
    for pair in zip(requested, implemented):
        current = current + 1 if pair == prev else 1
        prev = pair
        longest = max(longest, current)
    req_x = sum(x for x, _ in requested)
    req_y = sum(y for _, y in requested)
    imp_x = sum(x for x, _ in implemented)
    imp_y = sum(y for _, y in implemented)
    (first_x, first_y), (last_x, last_y) = scaled_errors[0], scaled_errors[-1]
    if (imp_x - req_x, imp_y - req_y) != (first_x - last_x, first_y - last_y):
        raise AssertionError("trace violates the exact averaging identity")
    total, square = scale * steps, scale * scale
    max_err2 = Fraction(max_norm2, square)
    return ResourceMetrics(
        steps=steps,
        max_error_norm2=max_err2,
        final_error=errors[-1],
        average_requested=_from_triple(_normalised(req_x, req_y, total)),
        average_implemented=_from_triple(_normalised(imp_x, imp_y, total)),
        error_slope=least_squares_slope([math.sqrt(q / square) for q in norms2]),
        stagnation_steps=longest,
        error_bound_sq=bound_sq,
        bound_satisfied=max_err2 <= bound_sq,
    )


def _record_trace(error: Point2, steps) -> ControllerTrace:
    """A trace of (requested, implemented) pairs from ``error``, each error
    carried as e + x - y, so the averaging identity holds.  Equal steps share
    one record, as the loop's do."""
    records, shared = [], {}
    for x, y in steps:
        key = (x, y, error)
        if key not in shared:
            shared[key] = StepRecord(PointSet((y,)), ConvexPolygon((x,)), x, y, error)
        records.append(shared[key])
        error = error + x - y
    return ControllerTrace(records, final_error=error)


def _copied(trace: ControllerTrace) -> ControllerTrace:
    """The trace with a record of its own for every step."""
    return ControllerTrace([r._replace() for r in trace.records], trace.final_error)


@st.composite
def metric_traces(draw):
    """Hand-built traces of one step, of equal steps, of distinct steps, in
    negative coordinates or over mixed denominators, with repeats between."""
    kind = draw(st.sampled_from(["one", "equal", "distinct", "negative", "mixed"]))
    coord = {
        "negative": st.fractions(min_value=-40, max_value=-1, max_denominator=4),
        "mixed": st.fractions(min_value=-6, max_value=6, max_denominator=60),
    }.get(kind, st.integers(-3, 3))
    point = st.builds(Point2, coord, coord)
    error = draw(point)
    if kind == "one":
        steps = [(draw(point), draw(point))]
    elif kind == "equal":
        steps = [(draw(point), draw(point))] * draw(st.integers(2, 30))
    elif kind == "distinct":
        steps = [(pt(n, Fraction(1, n + 2)), pt(Fraction(n, 3), -n)) for n in range(draw(st.integers(2, 30)))]
    else:
        pool = draw(st.lists(point, min_size=1, max_size=6))
        picks = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
        steps = draw(st.lists(picks, min_size=2, max_size=30))
    return _record_trace(error, steps)


class TestMetrics:
    @settings(max_examples=50, deadline=None)
    @given(traces(), st.fractions(min_value=0))
    def test_equals_oracle(self, trace, bound_sq):
        metrics = compute_metrics(trace, bound_sq)
        assert metrics == oracle.compute_metrics(trace, bound_sq)
        assert metrics.max_error_norm2 == max(e.norm2() for e in trace.errors())

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(metric_traces(), traces()), st.fractions(min_value=0))
    def test_equals_per_step_oracle(self, trace, bound_sq):
        """Every field, the slope and the stagnation run included, as the per-step pass gives it."""
        got, want = compute_metrics(trace, bound_sq), per_step_metrics(trace, bound_sq)
        assert got == want
        assert repr(got.error_slope) == repr(want.error_slope)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(metric_traces(), traces()), st.fractions(min_value=0))
    def test_shared_and_copied_records_agree(self, trace, bound_sq):
        """Counting and writing each distinct record once gives what one record
        per step gives: the same metrics, equal to the per-step oracle, and the
        same trace CSV bytes."""
        copied = _copied(trace)
        assert len(set(map(id, copied.records))) == len(copied.records)
        metrics = compute_metrics(trace, bound_sq)
        assert metrics == compute_metrics(copied, bound_sq) == per_step_metrics(copied, bound_sq)
        assert repr(metrics.error_slope) == repr(per_step_metrics(copied, bound_sq).error_slope)
        assert _trace_csv(trace) == _trace_csv(copied)

    def test_broken_identity_is_caught(self):
        records = [
            StepRecord(PointSet((p,)), ConvexPolygon((p,)), p, p, error)
            for p, error in ((pt(0, 0), pt(0, 0)), (pt(1, 0), pt(0, 1)))
        ]
        trace = ControllerTrace(records, final_error=pt(0, 1))
        for metrics in (compute_metrics, per_step_metrics, oracle.compute_metrics):
            with pytest.raises(AssertionError):
                metrics(trace, Fraction(0))
