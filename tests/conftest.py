import sys
from fractions import Fraction

import pytest

from errdiff.geometry import ConvexPolygon, Point2, PointSet, convex_hull
from errdiff.operators import Collection


def pt(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


def poly(*coords) -> ConvexPolygon:
    return convex_hull(Point2(Fraction(x), Fraction(y)) for x, y in coords)


@pytest.fixture
def digit_limit():
    """Python's integer string digit limit set to its default, 4300, for the test."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.fixture
def unit_square() -> ConvexPolygon:
    return poly((0, 0), (1, 0), (1, 1), (0, 1))


@pytest.fixture
def grid8() -> PointSet:
    return PointSet.from_coords([(x, y) for x in (-1, 1, 3, 5) for y in (-1, 1)])


@pytest.fixture
def ring_family():
    ring = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)]
    s1 = PointSet.from_coords(ring)
    s2 = PointSet.from_coords([c for c in ring if c != (0, -1)])
    s3 = PointSet.from_coords([c for c in ring if c not in ((0, -1), (-1, -1))])
    return s1, s2, s3


def points(*coords) -> PointSet:
    return PointSet.from_coords(coords)


# Its chain reaches neither a fixed point nor a verified extrapolated limit.
STALL_COLLECTION = Collection(
    (points((-2, -5), (-2, 1)), points((5, 0)), points((-5, 3), (1, -3), (4, 1))), "perfect"
)


# Collections 6, 19 and 23 of the benchmark's fixed population
# (`perfbench/inputs.population(40)`), before placement.  Each pairs a point
# set with a convex member, and extrapolation answers each of them.
BENCHMARK_COLLECTIONS = {
    6: Collection(
        (poly((4, 1), (0, 4), (2, -3)), points((0, -1), (5, 4), (0, 4), (3, -3), (5, -6))),
        "perfect",
    ),
    19: Collection((poly((3, -3)), points((0, -5), (6, 0), (-1, 1), (-4, -1))), "persistent"),
    23: Collection((poly((-4, 2)), points((4, 1), (-4, -6), (1, 1))), "persistent"),
}
