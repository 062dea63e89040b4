import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from errdiff import certificate
from errdiff.certificate import certify_invariant
from errdiff.geometry import ORIGIN, ConvexPolygon, Point2, PointSet, convex_hull, minkowski_sum
from errdiff.operators import (
    MODES,
    Collection,
    IterationConfig,
    apply_member,
    check_invariance,
    iterate_to_invariance,
)
from errdiff.resources import PVParams, pv_triangle, pv_triangle_family
from errdiff.verify import load_golden_polygon, three_set_family

from conftest import points, poly

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
    golden = load_golden_polygon()
    assert certify_invariant(family, golden)
    assert not certify_invariant(family, convex_hull(golden.vertices[1:]))


def test_convex_members_certified():
    params = PVParams(p_max=Fraction(4), tan_phi=Fraction(1, 4))
    full = pv_triangle(params, params.p_max)
    family = Collection(tuple(pv_triangle_family(params, 4)), "persistent")
    assert certify_invariant(family, full)
    assert not certify_invariant(family, convex_hull(full.vertices[1:]))


convex_members = st.lists(lattice, min_size=1, max_size=3).map(convex_hull)
mixed_collections = st.builds(
    lambda sets, mode: Collection(tuple(sets), mode),
    st.lists(st.one_of(point_sets, convex_members), min_size=1, max_size=3),
    st.sampled_from(MODES),
)


@settings(max_examples=40, deadline=None)
@given(mixed_collections, st.lists(lattice, min_size=1, max_size=4).map(convex_hull))
def test_agrees_with_check_invariance_on_mixed_collections(collection, candidate):
    # Random candidates are mostly not invariant, converged iterates are.
    result = iterate_to_invariance(collection, ORIGIN_POLY, QUICK)
    for q in (candidate, result.invariant_set):
        checked = check_invariance(collection, q)
        assert certify_invariant(collection, q) == checked
        # The per-member definition that check_invariance reads off one image.
        assert checked == all(
            q.contains_polygon(apply_member(m, q, collection.mode)) for m in collection.sets
        )
    if result.converged:
        assert certify_invariant(collection, result.invariant_set)


# Mutation checks: each broken variant of the certificate disagrees with
# check_invariance on the instance next to it, while the real one agrees.
SEGMENTS = Collection((poly((-2, 3), (0, 2)), poly((0, 1), (3, 2))), "persistent")
MUTANT_CASES = {
    "flipped cone": [
        (Collection((poly((0, 0), (1, -2)),), "persistent"), poly((0, 0), (1, -2))),
        (
            Collection(
                (
                    points((-1, -3)),
                    poly((-2, -3), (0, 2), (0, 3)),
                    poly((-3, 2), (0, 1), (3, 3)),
                ),
                "perfect",
            ),
            ORIGIN_POLY,
        ),
    ],
    "missing strip side": [
        (
            Collection((points((3, -1)), poly((0, 3), (3, 0), (2, 2))), "persistent"),
            poly(
                (Fraction(-3, 2), Fraction(3, 2)),
                (Fraction(3, 2), Fraction(-3, 2)),
                (3, 0),
                (2, 2),
                (0, 3),
            ),
        ),
    ],
    "one vertex shift dropped": [(SEGMENTS, poly((4, 2), (5, -4), (5, 0)))],
}


def _mutants():
    cone, strip, member = certificate._cone, certificate._strip, certificate._member

    def first_vertex_dropped(m):
        pts, cells = member(m)
        return (pts[1:] if isinstance(m, ConvexPolygon) else pts), cells

    return {
        "flipped cone": ("_cone", lambda v, edges: [(-a, -b, -c) for a, b, c in cone(v, edges)]),
        # Without the edge line the strip reaches inside the member.
        "missing strip side": ("_strip", lambda p, q: strip(p, q)[:2]),
        "one vertex shift dropped": ("_member", first_vertex_dropped),
    }


@pytest.mark.parametrize("mutant", sorted(MUTANT_CASES))
def test_mutants_are_caught(mutant, monkeypatch):
    cases = MUTANT_CASES[mutant]
    truths = [check_invariance(c, q) for c, q in cases]
    assert [certify_invariant(c, q) for c, q in cases] == truths
    monkeypatch.setattr(certificate, *_mutants()[mutant])
    assert all(certify_invariant(c, q) != t for (c, q), t in zip(cases, truths))


@settings(max_examples=25, deadline=None)
@given(mixed_collections, st.lists(lattice, min_size=1, max_size=4).map(convex_hull))
def test_vertex_shifts_are_enough(collection, candidate):
    # Shifting also by edge midpoints and the centroid changes no verdict:
    # the condition is linear in the shift and the candidate is convex.
    member = certificate._member

    def denser(m):
        pts, cells = member(m)
        if isinstance(m, PointSet) or len(pts) < 2:
            return pts, cells
        n = len(pts)
        mids = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(pts, pts[1:] + pts[:1])]
        centroid = (sum(x for x, _ in pts) / n, sum(y for _, y in pts) / n)
        return pts + mids + [centroid], cells

    regions = (candidate, iterate_to_invariance(collection, ORIGIN_POLY, QUICK).invariant_set)
    want = [certify_invariant(collection, q) for q in regions]
    certificate._member = denser
    try:
        assert [certify_invariant(collection, q) for q in regions] == want
    finally:
        certificate._member = member


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
