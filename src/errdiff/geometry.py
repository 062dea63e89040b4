"""Exact plane geometry over arbitrary-precision rationals.

Coordinates are `fractions.Fraction` throughout; every operation is closed
over the rationals and nothing is ever rounded implicitly.  Distances are
kept *squared* so that all comparisons stay exact.

All value types are immutable (frozen dataclasses) and all operations are
pure functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to Fraction.

    Floats are rejected on purpose: silently converting a binary float
    would smuggle rounding error into an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__!s}")


@dataclass(frozen=True, order=True, slots=True)
class Point2:
    """A point (or displacement vector) in the rational plane.

    Ordering is lexicographic on (x, y), which is the tie-break order used
    by the closest-point operators.
    """

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_fraction(self.x))
        object.__setattr__(self, "y", as_fraction(self.y))

    def __add__(self, other: "Point2") -> "Point2":
        return _pt(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return _pt(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point2":
        return _pt(-self.x, -self.y)

    def __mul__(self, k: RationalLike) -> "Point2":
        k = as_fraction(k)
        return _pt(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other: "Point2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def norm2(self) -> Fraction:
        """Squared Euclidean norm."""
        return self.x * self.x + self.y * self.y

    def as_floats(self) -> tuple[float, float]:
        return float(self.x), float(self.y)


def _pt(x: Fraction, y: Fraction) -> Point2:
    """Internal fast constructor for coordinates already known to be exact."""
    p = object.__new__(Point2)
    object.__setattr__(p, "x", x)
    object.__setattr__(p, "y", y)
    return p


ORIGIN = Point2(_ZERO, _ZERO)


def dist2(a: Point2, b: Point2) -> Fraction:
    """Squared Euclidean distance."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def orient(a: Point2, b: Point2, c: Point2) -> Fraction:
    """Twice the signed area of triangle abc; positive for a left turn."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def cross(u: Point2, v: Point2) -> Fraction:
    """2D cross product u.x*v.y - u.y*v.x."""
    return u.x * v.y - u.y * v.x


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """Closed half-plane {p : a*p.x + b*p.y <= c}."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        object.__setattr__(self, "c", as_fraction(self.c))
        if self.a == 0 and self.b == 0:
            raise ValueError("half-plane normal must be non-zero")

    def slack(self, p: Point2) -> Fraction:
        """c - a*x - b*y; non-negative exactly when p lies inside."""
        return self.c - self.a * p.x - self.b * p.y

    def contains(self, p: Point2) -> bool:
        return self.slack(p) >= 0


@dataclass(frozen=True, slots=True)
class ConvexPolygon:
    """Convex region in canonical vertex representation.

    Vertices are in counter-clockwise order, no three consecutive vertices
    collinear, starting from the lexicographically smallest vertex; with
    that normalization structural equality coincides with set equality.
    Degenerate regions are first-class: empty (no vertices), a single
    point, or a segment (two vertices in lexicographic order).
    """

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        if n == 2:
            if not verts[0] < verts[1]:
                raise ValueError("segment vertices must be distinct and ordered")
        elif n >= 3:
            smallest = min(verts)
            if verts[0] != smallest:
                raise ValueError("polygon must start at its lexicographically smallest vertex")
            for i in range(n):
                a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
                if orient(a, b, c) <= 0:
                    raise ValueError("vertices must make strict counter-clockwise turns")

    @classmethod
    def from_points(cls, points: Iterable[Point2]) -> "ConvexPolygon":
        """Convex hull of arbitrary points, in canonical form."""
        return convex_hull(points)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_point(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_segment(self) -> bool:
        return len(self.vertices) == 2

    def edges(self) -> Iterator[tuple[Point2, Point2]]:
        """Directed boundary edges; a segment yields its single edge once."""
        verts = self.vertices
        n = len(verts)
        if n == 2:
            yield verts[0], verts[1]
        elif n >= 3:
            for i in range(n):
                yield verts[i], verts[(i + 1) % n]

    def contains_point(self, p: Point2) -> bool:
        verts = self.vertices
        n = len(verts)
        if n == 0:
            return False
        if n == 1:
            return verts[0] == p
        if n == 2:
            u, v = verts
            if orient(u, v, p) != 0:
                return False
            d = v - u
            t = (p - u).dot(d)
            return 0 <= t <= d.norm2()
        for i in range(n):
            if orient(verts[i], verts[(i + 1) % n], p) < 0:
                return False
        return True

    def contains_polygon(self, other: "ConvexPolygon") -> bool:
        """Exact containment; valid because both regions are convex."""
        return all(self.contains_point(v) for v in other.vertices)

    def translate(self, d: Point2) -> "ConvexPolygon":
        # Translation preserves orientation and lexicographic order, so the
        # canonical form survives without re-hulling.
        poly = object.__new__(ConvexPolygon)
        object.__setattr__(poly, "vertices", tuple(v + d for v in self.vertices))
        return poly

    def half_planes(self) -> list[HalfPlane]:
        """Half-planes whose intersection is exactly this region."""
        verts = self.vertices
        n = len(verts)
        if n == 0:
            raise ValueError("empty polygon has no half-plane representation")
        if n == 1:
            (p,) = verts
            return [
                HalfPlane(_ONE, _ZERO, p.x),
                HalfPlane(-_ONE, _ZERO, -p.x),
                HalfPlane(_ZERO, _ONE, p.y),
                HalfPlane(_ZERO, -_ONE, -p.y),
            ]
        if n == 2:
            u, v = verts
            d = v - u
            line_rhs = -d.y * u.x + d.x * u.y
            return [
                HalfPlane(-d.y, d.x, line_rhs),
                HalfPlane(d.y, -d.x, -line_rhs),
                HalfPlane(d.x, d.y, d.dot(v)),
                HalfPlane(-d.x, -d.y, -d.dot(u)),
            ]
        planes = []
        for u, v in self.edges():
            a = v.y - u.y
            b = -(v.x - u.x)
            planes.append(HalfPlane(a, b, a * u.x + b * u.y))
        return planes

    def bbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if self.is_empty:
            raise ValueError("empty polygon has no bounding box")
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


EMPTY_POLYGON = ConvexPolygon(())


def _raw_polygon(verts: tuple[Point2, ...]) -> ConvexPolygon:
    """Construct without validation; callers guarantee canonical form."""
    poly = object.__new__(ConvexPolygon)
    object.__setattr__(poly, "vertices", verts)
    return poly


def segment(u: Point2, v: Point2) -> ConvexPolygon:
    """Segment (or point) through two points, canonical."""
    if u == v:
        return _raw_polygon((u,))
    return _raw_polygon((u, v) if u < v else (v, u))


def convex_hull(points: Iterable[Point2]) -> ConvexPolygon:
    """Convex hull via monotone chain with exact orientation predicates.

    Degenerate inputs yield the matching degenerate polygon: one distinct
    point gives a point, collinear points give the extreme segment.
    """
    pts = sorted(points)
    deduped: list[Point2] = []
    for p in pts:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    n = len(deduped)
    if n == 0:
        return EMPTY_POLYGON
    if n == 1:
        return _raw_polygon((deduped[0],))
    lower: list[Point2] = []
    for p in deduped:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point2] = []
    for p in reversed(deduped):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    verts = tuple(lower[:-1] + upper[:-1])
    return _raw_polygon(verts)


def _canonical_from_ccw(points: Sequence[Point2]) -> ConvexPolygon:
    """Canonical polygon from boundary points already in CCW cyclic order.

    Consecutive duplicates and collinear middle vertices are removed; a
    degenerate output collapses to the extreme segment or point.
    """
    pts: list[Point2] = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    while len(pts) > 1 and pts[-1] == pts[0]:
        pts.pop()
    if not pts:
        return EMPTY_POLYGON
    if len(pts) == 1:
        return _raw_polygon((pts[0],))
    if len(pts) == 2:
        u, v = pts
        return _raw_polygon((u, v) if u < v else (v, u))
    while True:
        n = len(pts)
        kept = []
        changed = False
        for i in range(n):
            if orient(pts[i - 1], pts[i], pts[(i + 1) % n]) > 0:
                kept.append(pts[i])
            else:
                changed = True
        if len(kept) <= 2:
            # everything collinear: fall back to the exact hull of the points
            return convex_hull(pts)
        pts = kept
        if not changed:
            break
    k = min(range(len(pts)), key=lambda i: pts[i])
    return _raw_polygon(tuple(pts[k:] + pts[:k]))


@dataclass(frozen=True, slots=True)
class PointSet:
    """Finite set of distinct points, stored sorted for determinism."""

    points: tuple[Point2, ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted(set(self.points)))
        if not pts:
            raise ValueError("point set must be non-empty")
        object.__setattr__(self, "points", pts)

    @classmethod
    def of(cls, *points: Point2) -> "PointSet":
        return cls(points)

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[RationalLike, RationalLike]]) -> "PointSet":
        return cls(tuple(Point2(x, y) for x, y in coords))

    def __contains__(self, p: Point2) -> bool:
        return p in self.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point2]:
        return iter(self.points)

    def hull(self) -> ConvexPolygon:
        return _hull_of_point_set(self)


@lru_cache(maxsize=8192)
def _hull_of_point_set(ps: PointSet) -> ConvexPolygon:
    return convex_hull(ps.points)


def _bottom_start(verts: Sequence[Point2]) -> int:
    """Index of the bottommost (then leftmost) vertex."""
    return min(range(len(verts)), key=lambda i: (verts[i].y, verts[i].x))


def _edges_from_bottom(verts: Sequence[Point2]) -> tuple[list[Point2], Point2]:
    """Edge vectors traversed CCW from the bottom vertex, plus that vertex.

    For a strictly convex CCW boundary this ordering is sorted by polar
    angle in [0, 2*pi); a two-vertex segment yields an antiparallel pair.
    """
    n = len(verts)
    k = _bottom_start(verts)
    edges = [verts[(k + i + 1) % n] - verts[(k + i) % n] for i in range(n)]
    return edges, verts[k]


def _angle_cmp(u: Point2, v: Point2) -> int:
    """Exact comparison of polar angles in [0, 2*pi); 0 means same direction."""
    hu = 0 if (u.y > 0 or (u.y == 0 and u.x > 0)) else 1
    hv = 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1
    if hu != hv:
        return -1 if hu < hv else 1
    cr = cross(u, v)
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


def minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum of two convex polygons.

    Computed by merging the edge sequences in angular order (linear time);
    the result has at most |p| + |q| vertices.
    """
    if p.is_empty or q.is_empty:
        raise ValueError("Minkowski sum requires non-empty polygons")
    if p.is_point:
        return q.translate(p.vertices[0])
    if q.is_point:
        return p.translate(q.vertices[0])
    ep, start_p = _edges_from_bottom(p.vertices)
    eq, start_q = _edges_from_bottom(q.vertices)
    current = start_p + start_q
    out = [current]
    i = j = 0
    while i < len(ep) or j < len(eq):
        if i == len(ep):
            step = eq[j]
            j += 1
        elif j == len(eq):
            step = ep[i]
            i += 1
        else:
            cmp = _angle_cmp(ep[i], eq[j])
            if cmp < 0:
                step = ep[i]
                i += 1
            elif cmp > 0:
                step = eq[j]
                j += 1
            else:
                step = ep[i] + eq[j]
                i += 1
                j += 1
        current = current + step
        out.append(current)
    out.pop()  # edge vectors close the loop; last point repeats the first
    return _canonical_from_ccw(out)


def clip(polygon: ConvexPolygon, half_plane: HalfPlane) -> ConvexPolygon:
    """Exact intersection of a convex polygon with a closed half-plane.

    The output is never re-canonicalised.  A polygon's boundary list (kept
    vertices plus crossing points, in order) is already in canonical form
    up to rotation, because the input is strictly convex: crossing points
    lie strictly inside distinct edges and at most two points lie on the
    line.  If no kept vertex is strictly inside, the list is a single
    vertex or the two ends of an edge on the line.  Rotating the list to
    its smallest vertex therefore gives the canonical polygon, segment or
    point.
    """
    verts = polygon.vertices
    n = len(verts)
    if n == 0:
        return EMPTY_POLYGON
    a, b, c = half_plane.a, half_plane.b, half_plane.c
    slacks = [c - a * v.x - b * v.y for v in verts]
    if n == 1:
        return polygon if slacks[0] >= 0 else EMPTY_POLYGON
    if n == 2:
        su, sv = slacks
        if su >= 0 and sv >= 0:
            return polygon
        if su < 0 and sv < 0:
            return EMPTY_POLYGON
        u, v = verts
        t = su / (su - sv)
        w = _pt(u.x + (v.x - u.x) * t, u.y + (v.y - u.y) * t)
        kept = u if su >= 0 else v
        return segment(kept, w)
    all_in = True
    all_out = True
    for s in slacks:
        if s < 0:
            all_in = False
        else:
            all_out = False
    if all_in:
        return polygon
    if all_out:
        return EMPTY_POLYGON
    out: list[Point2] = []
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        su, sv = slacks[i], slacks[j]
        if su >= 0:
            out.append(verts[i])
        if (su > 0 > sv) or (su < 0 < sv):
            u, v = verts[i], verts[j]
            t = su / (su - sv)
            out.append(_pt(u.x + (v.x - u.x) * t, u.y + (v.y - u.y) * t))
    k = min(range(len(out)), key=out.__getitem__)
    return _raw_polygon(tuple(out[k:] + out[:k]))


def clip_all(polygon: ConvexPolygon, planes: Iterable[HalfPlane]) -> ConvexPolygon:
    """polygon intersected with every half-plane, stopping once it is empty."""
    result = polygon
    for plane in planes:
        result = clip(result, plane)
        if result.is_empty:
            break
    return result


def polygon_intersection(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact intersection of two convex polygons (possibly degenerate)."""
    if p.is_empty or q.is_empty:
        return EMPTY_POLYGON
    return clip_all(p, q.half_planes())


def voronoi_cell(point_set: PointSet, center: Point2) -> list[HalfPlane]:
    """The bisector half-planes that define a facet of the Voronoi cell of center.

    For every other site c' the constraint is 2(c'-c).x <= |c'|^2 - |c|^2;
    the list keeps, in site order, exactly those whose line meets the
    intersection of the others in a segment of positive length, so the
    cell equals the intersection of the list and no member is redundant.
    The cell is closed, so neighboring cells overlap on their bisectors.
    A singleton set yields no constraints (the cell is the whole plane).
    """
    if center not in point_set:
        raise ValueError("center must belong to the point set")
    planes = [
        HalfPlane(
            2 * (other.x - center.x),
            2 * (other.y - center.y),
            other.norm2() - center.norm2(),
        )
        for other in point_set.points
        if other != center
    ]
    return [h for i, h in enumerate(planes) if _defines_facet(h, planes[:i] + planes[i + 1 :])]


def _defines_facet(h: HalfPlane, others: Sequence[HalfPlane]) -> bool:
    """True when the line of h meets the intersection of others in positive length.

    The line is p0 + t*d with p0 its point nearest the origin and d along
    it; each other half-plane bounds t from one side, or, when parallel,
    keeps the whole line or none of it.
    """
    scale = h.c / (h.a * h.a + h.b * h.b)
    x0, y0 = h.a * scale, h.b * scale
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for g in others:
        rate = g.b * h.a - g.a * h.b  # g's normal dotted with d = (-h.b, h.a)
        room = g.c - g.a * x0 - g.b * y0
        if rate == 0:
            if room < 0:
                return False
        elif rate > 0:
            bound = room / rate
            if hi is None or bound < hi:
                hi = bound
        else:
            bound = room / rate
            if lo is None or bound > lo:
                lo = bound
    return lo is None or hi is None or lo < hi


def clip_to_cell(polygon: ConvexPolygon, point_set: PointSet, center: Point2) -> ConvexPolygon:
    """polygon intersected with the Voronoi cell of center, exactly."""
    return clip_all(polygon, voronoi_cell(point_set, center))


def project_point_set(point_set: PointSet, z: Point2) -> Point2:
    """Closest point of a finite set, ties broken lexicographically."""
    return min(point_set.points, key=lambda p: (dist2(p, z), p))


def project_convex_polygon(polygon: ConvexPolygon, z: Point2) -> Point2:
    """Euclidean projection onto a convex polygon, computed exactly.

    The projection lands on a vertex or on the foot of a perpendicular to
    an edge; both have rational coordinates, so the unique minimizer is
    found by comparing squared distances over edges and vertices.
    """
    if polygon.is_empty:
        raise ValueError("cannot project onto an empty polygon")
    if polygon.contains_point(z):
        return z
    if polygon.is_point:
        return polygon.vertices[0]
    best: Optional[tuple[Fraction, Point2]] = None
    for u, v in polygon.edges():
        d = v - u
        t = (z - u).dot(d) / d.norm2()
        if t < 0:
            t = _ZERO
        elif t > 1:
            t = _ONE
        candidate = u + d * t
        key = (dist2(candidate, z), candidate)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[1]


def classify_points(point_set: PointSet) -> tuple[PointSet, Optional[PointSet]]:
    """Split a finite set into hull-boundary points and interior points.

    Points lying in the interior of a hull edge count as boundary ("corner")
    points.  Returns (corner, inner); inner is None when every point lies on
    the boundary, since point sets are non-empty by construction.
    """
    hull = point_set.hull()
    if len(hull.vertices) <= 2:
        return point_set, None
    boundary = []
    interior = []
    for p in point_set.points:
        if _on_boundary(hull, p):
            boundary.append(p)
        else:
            interior.append(p)
    corner = PointSet(tuple(boundary))
    inner = PointSet(tuple(interior)) if interior else None
    return corner, inner


def _on_boundary(polygon: ConvexPolygon, p: Point2) -> bool:
    for u, v in polygon.edges():
        if orient(u, v, p) == 0:
            d = v - u
            t = (p - u).dot(d)
            if 0 <= t <= d.norm2():
                return True
    return False


def diameter_sq(polygon: ConvexPolygon) -> Fraction:
    """Squared diameter: the maximum squared distance between vertices."""
    verts = polygon.vertices
    if not verts:
        raise ValueError("empty polygon has no diameter")
    if len(verts) == 1:
        return _ZERO
    return max(dist2(a, b) for a, b in itertools.combinations(verts, 2))
