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
normals), so checking their vertices checks them entirely.  Every point is
read once as its pair of Fraction coordinates, and all the arithmetic is
on Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .geometry import ConvexPolygon, Point2, PointSet

if TYPE_CHECKING:
    from .operators import Collection

Plane = tuple[Fraction, Fraction, Fraction]  # (a, b, c): a*x + b*y <= c
Normal = tuple[Fraction, Fraction]
XY = tuple[Fraction, Fraction]

_BOX: tuple[Normal, ...] = (
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1)),
)


def _coords(points: Sequence[Point2]) -> list[XY]:
    return [(p.x, p.y) for p in points]


def _support(points: Sequence[XY], n: Normal) -> Fraction:
    return max(n[0] * x + n[1] * y for x, y in points)


def _facet_normals(points: Sequence[XY]) -> set[Normal]:
    """Outer normals of the hull's edges, scaled so the larger entry is ±1.

    The right-hand normal of p -> q is an outer edge normal exactly when no
    point lies strictly to the right of the line through p and q.
    """
    normals: set[Normal] = set()
    for px, py in points:
        for qx, qy in points:
            if (px, py) == (qx, qy):
                continue
            a, b = qy - py, px - qx
            h = a * px + b * py
            if all(a * rx + b * ry <= h for rx, ry in points):
                m = max(abs(a), abs(b))
                normals.add((a / m, b / m))
    return normals


def _support_planes(summands: Sequence[Sequence[XY]]) -> list[Plane]:
    """H-representation of the Minkowski sum of the summands' hulls."""
    normals = set(_BOX)
    for points in summands:
        normals |= _facet_normals(points)
    return [(a, b, sum(_support(pts, (a, b)) for pts in summands)) for a, b in normals]


def _bisectors(sites: Sequence[XY], c: XY) -> list[Plane]:
    cx, cy = c
    return [
        (2 * (ox - cx), 2 * (oy - cy), ox * ox + oy * oy - cx * cx - cy * cy)
        for ox, oy in sites
        if (ox, oy) != c
    ]


def _inside(planes: Sequence[Plane], x: Fraction, y: Fraction) -> bool:
    return all(a * x + b * y <= c for a, b, c in planes)


def _vertices(planes: Sequence[Plane]) -> set[XY]:
    """Every feasible intersection of two non-parallel boundary lines."""
    found: set[XY] = set()
    for i, (a1, b1, c1) in enumerate(planes):
        for a2, b2, c2 in planes[i + 1 :]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if _inside(planes, x, y):
                found.add((x, y))
    return found


def certify_invariant(collection: Collection, candidate: ConvexPolygon) -> bool:
    """True exactly when every member's operator maps candidate into itself.

    Members must all be point sets; convex members raise ``ValueError``.
    """
    if candidate.is_empty:
        raise ValueError("candidate must be non-empty")
    if not all(isinstance(member, PointSet) for member in collection.sets):
        raise ValueError("the certificate covers collections of point sets only")
    region = _coords(candidate.vertices)
    own = _support_planes([region])
    for member in collection.sets:
        sites = _coords(member.points)
        if collection.mode == "perfect":
            base = _support_planes([sites, region])
            shifts = [(Fraction(0), Fraction(0))]
        else:
            base = own
            shifts = sites
        for c in sites:
            cx, cy = c
            for vx, vy in _vertices(base + _bisectors(sites, c)):
                for sx, sy in shifts:
                    if not _inside(own, vx - cx + sx, vy - cy + sy):
                        return False
    return True
