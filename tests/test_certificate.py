import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from errdiff import certificate
from errdiff.certificate import certify_invariant
from errdiff.geometry import ORIGIN, ConvexPolygon, Point2, PointSet, convex_hull, minkowski_sum
from errdiff.operators import MODES, Collection, IterationConfig, check_invariance, iterate_to_invariance
from errdiff.verify import load_golden_polygon, three_set_family

from conftest import poly

ORIGIN_POLY = ConvexPolygon((ORIGIN,))

lattice = st.builds(Point2, st.integers(-4, 4), st.integers(-4, 4))
point_sets = st.lists(lattice, min_size=1, max_size=5).map(lambda ps: PointSet(tuple(ps)))
collections = st.builds(
    lambda sets, mode: Collection(tuple(sets), mode),
    st.lists(point_sets, min_size=1, max_size=3),
    st.sampled_from(MODES),
)

QUICK = IterationConfig(max_iterations=60, max_coordinate_bits=96)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(collections, st.lists(lattice, min_size=1, max_size=4).map(convex_hull))
def test_agrees_with_check_invariance(collection, seed):
    assume(any(len(s) > 1 for s in collection.sets))
    result = iterate_to_invariance(collection, seed, QUICK)
    assume(result.converged)
    # A converged iterate is invariant; the origin is not, since some member
    # has two points; the seed may be either.
    assert certify_invariant(collection, result.invariant_set) is True
    assert check_invariance(collection, result.invariant_set) is True
    assert certify_invariant(collection, ORIGIN_POLY) is False
    assert check_invariance(collection, ORIGIN_POLY) is False
    assert certify_invariant(collection, seed) == check_invariance(collection, seed)


@settings(max_examples=60, deadline=None)
@given(st.lists(lattice, min_size=1, max_size=5), st.lists(lattice, min_size=1, max_size=5))
def test_support_planes_describe_the_minkowski_sum(a, b):
    planes = certificate._support_planes([certificate._coords(a), certificate._coords(b)])
    corners = [Point2(x, y) for x, y in certificate._vertices(planes)]
    assert convex_hull(corners) == minkowski_sum(convex_hull(a), convex_hull(b))


def test_family3_golden_certified_and_a_smaller_set_rejected():
    family = three_set_family()
    golden = load_golden_polygon(None)
    assert certify_invariant(family, golden)
    assert not certify_invariant(family, convex_hull(golden.vertices[1:]))


def test_convex_members_rejected():
    with pytest.raises(ValueError):
        certify_invariant(Collection((poly((0, 0), (1, 0), (0, 1)),)), ORIGIN_POLY)


def test_shares_no_kernel_code():
    tree = ast.parse(Path(certificate.__file__).read_text())
    names = set()
    from_geometry = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
            if isinstance(node, ast.ImportFrom) and node.module == "geometry":
                from_geometry.update(alias.name for alias in node.names)
    assert not names & {"clip", "minkowski_sum", "convex_hull", "voronoi_cell", "orient", "geometry"}
    assert from_geometry <= {"Point2", "PointSet", "ConvexPolygon"}
