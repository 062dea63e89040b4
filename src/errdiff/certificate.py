"""Independent invariance certificate for collections of any member type.

A second, deliberately separate check of what ``operators.check_invariance``
decides.  It shares none of the kernel's clipping, hull, Minkowski or
Voronoi code: every region is written as an H-representation (a list of
half-planes a*x + b*y <= c), its vertices are enumerated exactly from pairs
of boundary lines, and membership is tested against support values.

A member S splits the plane into cells, each mapped onto its piece by
x -> x - proj_S(x):

* a site c of a point set: the cell of all of c's bisectors, redundant
  ones included, mapped by x - c;
* a vertex v of a convex member (a polygon, segment or point): its normal
  cone v + N(v), mapped by x - v;
* an edge [p, q]: its outer strip, between the perpendiculars at p and q
  and outside the edge line (both sides for a segment), mapped by x minus
  its projection onto the line;
* the member itself, mapped to 0: its points are their own projections.

For every cell the region checked is

* perfect mode: (ch S + Q) ∩ cell, and the image of every vertex must lie
  in Q;
* persistent mode: D ∩ cell, and the image of every vertex plus every
  point s of S must lie in D.  The images form a convex set and the
  condition is linear in s, so a convex member's vertices are enough.

The images are affine on each cell, so checking the vertices checks the
pieces entirely.  Every region is bounded (the box directions ±e1, ±e2 are
always among the normals).  Every point is read once as its pair of
Fraction coordinates, and all the arithmetic is on Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .geometry import ConvexPolygon, Point2, PointSet

if TYPE_CHECKING:
    from .operators import Collection

Plane = tuple[Fraction, Fraction, Fraction]  # (a, b, c): a*x + b*y <= c
Normal = tuple[Fraction, Fraction]
XY = tuple[Fraction, Fraction]
Image = Callable[[Fraction, Fraction], XY]
Cell = tuple[list[Plane], Image]

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


def _edges(points: Sequence[XY]) -> list[tuple[XY, XY]]:
    """Directed edges p -> q between the points with no point strictly right.

    These run along the hull counter-clockwise.  A polygon in convex
    position gets its edges; a segment gets both directions, one for each
    side; a point gets none.
    """
    return [
        (p, q)
        for p in points
        for q in points
        if p != q
        and all((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) >= 0 for r in points)
    ]


def _facet_normals(points: Sequence[XY]) -> set[Normal]:
    """Outer normals of the hull's edges: the right-hand normals of `_edges`,
    scaled so the larger entry is ±1."""
    normals: set[Normal] = set()
    for p, q in _edges(points):
        a, b = q[1] - p[1], p[0] - q[0]
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
    """Every feasible intersection of two non-parallel boundary lines.

    Each boundary line a*x + b*y = c is cut to its feasible interval: with
    n = a^2 + b^2 its points are ((a*c - b*T) / n, (b*c + a*T) / n), and
    every other plane bounds T from one side or, when parallel, keeps the
    whole line or none of it.  A feasible point where another line crosses
    is an end of that interval, so the interval ends are exactly the
    feasible crossings: O(P^2) work for P planes.  The planes are read from
    the last, where a cell's own planes come, since they tend to empty the
    interval soonest.
    """
    found: set[XY] = set()
    for i, (a, b, c) in enumerate(planes):
        n = a * a + b * b
        lo = hi = None
        for j in range(len(planes) - 1, -1, -1):
            if j == i:
                continue
            aj, bj, cj = planes[j]
            rate = a * bj - b * aj
            room = cj * n - c * (a * aj + b * bj)
            if rate == 0:
                if room < 0:
                    break
                continue
            bound = room / rate
            if rate > 0:
                if hi is None or bound < hi:
                    hi = bound
            elif lo is None or bound > lo:
                lo = bound
            if lo is not None and hi is not None and lo > hi:
                break
        else:
            for t in (lo, hi):
                if t is not None:
                    found.add(((a * c - b * t) / n, (b * c + a * t) / n))
    return found


def _cone(v: XY, edges: Sequence[tuple[XY, XY]]) -> list[Plane]:
    """v + N(v): behind each edge leaving v and ahead of each edge entering it."""
    planes = []
    for p, q in edges:
        ex, ey = q[0] - p[0], q[1] - p[1]
        if p == v:
            planes.append((ex, ey, ex * v[0] + ey * v[1]))
        elif q == v:
            planes.append((-ex, -ey, -ex * v[0] - ey * v[1]))
    return planes


def _strip(p: XY, q: XY) -> list[Plane]:
    """The outer strip of the edge p -> q: between the perpendiculars at p and
    at q, and on or right of the edge line."""
    ex, ey = q[0] - p[0], q[1] - p[1]
    return [
        (-ex, -ey, -ex * p[0] - ey * p[1]),
        (ex, ey, ex * q[0] + ey * q[1]),
        (-ey, ex, ex * p[1] - ey * p[0]),
    ]


def _minus(c: XY) -> Image:
    return lambda x, y: (x - c[0], y - c[1])


def _off_edge(p: XY, q: XY) -> Image:
    """x - proj(x) for the projection onto the line through p and q."""
    ex, ey = q[0] - p[0], q[1] - p[1]
    length2 = ex * ex + ey * ey

    def image(x: Fraction, y: Fraction) -> XY:
        t = ((x - p[0]) * ex + (y - p[1]) * ey) / length2
        return x - p[0] - t * ex, y - p[1] - t * ey

    return image


def _zero(x: Fraction, y: Fraction) -> XY:
    return Fraction(0), Fraction(0)


def _member(member: PointSet | ConvexPolygon) -> tuple[list[XY], list[Cell]]:
    """The member's points (sites, or a convex member's vertices) and its cells.

    A cell is (planes, image): the region cut by planes is mapped by image,
    x -> x - proj(x), onto the cell's piece.
    """
    if isinstance(member, PointSet):
        sites = _coords(member.points)
        return sites, [(_bisectors(sites, c), _minus(c)) for c in sites]
    verts = _coords(member.vertices)
    edges = _edges(verts)
    cells = [(_cone(v, edges), _minus(v)) for v in verts]
    cells += [(_strip(p, q), _off_edge(p, q)) for p, q in edges]
    # The member itself: an interior point is its own projection.
    cells.append((_support_planes([verts]), _zero))
    return verts, cells


def certify_invariant(collection: Collection, candidate: ConvexPolygon) -> bool:
    """True exactly when every member's operator maps candidate into itself."""
    region = _coords(candidate.vertices)
    own = _support_planes([region])
    origin = [(Fraction(0), Fraction(0))]
    for member in collection.sets:
        points, cells = _member(member)
        if collection.mode == "perfect":
            base, shifts = _support_planes([points, region]), origin
        else:
            base, shifts = own, points
        for planes, image in cells:
            for v in _vertices(base + planes):
                px, py = image(*v)
                for sx, sy in shifts:
                    if not _inside(own, px + sx, py + sy):
                        return False
    return True
