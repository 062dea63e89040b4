"""Independent invariance certificate for collections of finite point sets.

A second, deliberately separate check of what ``operators.check_invariance``
decides.  It shares none of the kernel's clipping, hull, Minkowski or
Voronoi code: every region is written as an H-representation (a list of
half-planes a*x + b*y <= c), its vertices are enumerated exactly from pairs
of boundary lines, and membership is tested against support values.

For a site c of a member S the region checked is

* perfect mode: (ch S + Q) ∩ cell(c), and every vertex minus c must lie
  in Q;
* persistent mode: D ∩ cell(c), and every vertex minus c plus every
  s in S must lie in D,

where cell(c) is given by all of c's bisectors, redundant ones included.
Both regions are bounded (the box directions ±e1, ±e2 are always among the
normals), so checking their vertices checks them entirely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .geometry import ConvexPolygon, Point2, PointSet

if TYPE_CHECKING:
    from .operators import Collection

Plane = tuple[Fraction, Fraction, Fraction]  # (a, b, c): a*x + b*y <= c
Normal = tuple[Fraction, Fraction]

_BOX: tuple[Normal, ...] = (
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1)),
)


def _support(points: Sequence[Point2], n: Normal) -> Fraction:
    return max(n[0] * p.x + n[1] * p.y for p in points)


def _facet_normals(points: Sequence[Point2]) -> set[Normal]:
    """Outer normals of the hull's edges, scaled so the larger entry is ±1.

    The right-hand normal of p -> q is an outer edge normal exactly when no
    point lies strictly to the right of the line through p and q.
    """
    normals: set[Normal] = set()
    for p in points:
        for q in points:
            if p == q:
                continue
            a, b = q.y - p.y, p.x - q.x
            h = a * p.x + b * p.y
            if all(a * r.x + b * r.y <= h for r in points):
                m = max(abs(a), abs(b))
                normals.add((a / m, b / m))
    return normals


def _support_planes(summands: Sequence[Sequence[Point2]]) -> list[Plane]:
    """H-representation of the Minkowski sum of the summands' hulls."""
    normals = set(_BOX)
    for points in summands:
        normals |= _facet_normals(points)
    return [(a, b, sum(_support(pts, (a, b)) for pts in summands)) for a, b in normals]


def _bisectors(sites: PointSet, c: Point2) -> list[Plane]:
    return [
        (2 * (o.x - c.x), 2 * (o.y - c.y), o.x * o.x + o.y * o.y - c.x * c.x - c.y * c.y)
        for o in sites
        if o != c
    ]


def _inside(planes: Sequence[Plane], x: Fraction, y: Fraction) -> bool:
    return all(a * x + b * y <= c for a, b, c in planes)


def _vertices(planes: Sequence[Plane]) -> set[Point2]:
    """Every feasible intersection of two non-parallel boundary lines."""
    found: set[Point2] = set()
    for i, (a1, b1, c1) in enumerate(planes):
        for a2, b2, c2 in planes[i + 1 :]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if _inside(planes, x, y):
                found.add(Point2(x, y))
    return found


def certify_invariant(collection: Collection, candidate: ConvexPolygon) -> bool:
    """True exactly when every member's operator maps candidate into itself.

    Members must all be point sets; convex members raise ``ValueError``.
    """
    if candidate.is_empty:
        raise ValueError("candidate must be non-empty")
    if not all(isinstance(member, PointSet) for member in collection.sets):
        raise ValueError("the certificate covers collections of point sets only")
    region = candidate.vertices
    own = _support_planes([region])
    for sites in collection.sets:
        if collection.mode == "perfect":
            base = _support_planes([sites.points, region])
            shifts = [Point2(Fraction(0), Fraction(0))]
        else:
            base = own
            shifts = sites.points
        for c in sites:
            for v in _vertices(base + _bisectors(sites, c)):
                for s in shifts:
                    if not _inside(own, v.x - c.x + s.x, v.y - c.y + s.y):
                        return False
    return True
