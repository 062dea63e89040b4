"""Exact plane geometry over arbitrary-precision rationals.

Coordinates are `fractions.Fraction` at the API: every value type stores
Fractions, every operation is closed over the rationals and nothing is
ever rounded implicitly.  Distances are kept *squared* so that all
comparisons stay exact.

A `ConvexPolygon` carries its vertices as integer triples (X, Y, W) with
W > 0 and gcd(X, Y, W) = 1, standing for (X/W, Y/W); its `Point2`
vertices are built from them on first use and kept.  The kernel (`clip`,
`clip_all`, `convex_hull`, `hull_of_polygons`, `minkowski_sum`,
translation and polygon containment) reads and writes the triples, and a
half-plane carries its integer triple (A, B, C), so a whole operator step
runs on ints: orientation is a 3x3 integer determinant, a half-plane test
an integer dot product and the lexicographic order a cross-multiplied
comparison.  A `Point2` becomes a triple through the lcm of its two
denominators, a triple becomes a point through `Fraction(X, W)` and
`Fraction(Y, W)`.  `orient` stays the Fraction predicate; polygon
validation and the tests use it as the reference the integer kernel is
checked against.

All value types are immutable and all operations are pure functions, so
values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]
Triple = tuple[int, int, int]

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


def _triple(p: Point2) -> Triple:
    """The gcd-normalised integer triple (X, Y, W) of p, W > 0.

    Both coordinates are in lowest terms, so scaling them by the lcm of
    their denominators leaves no common factor.
    """
    x, y = p.x, p.y
    xd, yd = x.denominator, y.denominator
    if xd == yd:
        return x.numerator, y.numerator, xd
    w = math.lcm(xd, yd)
    return x.numerator * (w // xd), y.numerator * (w // yd), w


def _point(t: Triple) -> Point2:
    x, y, w = t
    return _pt(Fraction(x, w), Fraction(y, w))


def _normalised(x: int, y: int, w: int) -> Triple:
    """(x, y, w) divided by its gcd; w must be positive."""
    g = math.gcd(x, y, w)
    return x // g, y // g, w // g


def _add(a: Triple, b: Triple) -> Triple:
    """The triple of the sum of the points a and b.

    When one of them is integral (W = 1), gcd(Xa + Xb*Wa, Ya + Yb*Wa, Wa)
    = gcd(Xa, Ya, Wa) = 1, so only a sum of two proper fractions needs a gcd.
    """
    ax, ay, aw = a
    bx, by, bw = b
    if bw == 1:
        return ax + bx * aw, ay + by * aw, aw
    if aw == 1:
        return bx + ax * bw, by + ay * bw, bw
    return _normalised(ax * bw + bx * aw, ay * bw + by * aw, aw * bw)


def _line(a: Triple, b: Triple) -> Triple:
    """The line through a and b as the cross product a x b."""
    ax, ay, aw = a
    bx, by, bw = b
    return ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx


def _orient3(a: Triple, b: Triple, c: Triple) -> int:
    """det[a; b; c] = (a x b).c, which is Wa*Wb*Wc*orient(a, b, c): the same sign."""
    la, lb, lc = _line(a, b)
    return la * c[0] + lb * c[1] + lc * c[2]


def _lex_cmp(a: Triple, b: Triple) -> int:
    """Negative, zero or positive as point a is before, at or after point b in (x, y) order."""
    ax, ay, aw = a
    bx, by, bw = b
    return (ax * bw - bx * aw) or (ay * bw - by * aw)


_LEX_KEY = cmp_to_key(_lex_cmp)


def _lex_min(ts: Sequence[Triple]) -> int:
    """Index of the lexicographically smallest of the distinct points ts."""
    k = 0
    for m in range(1, len(ts)):
        if _lex_cmp(ts[m], ts[k]) < 0:
            k = m
    return k


@dataclass(frozen=True, slots=True)
class HalfPlane:
    """Closed half-plane {p : a*p.x + b*p.y <= c}."""

    a: Fraction
    b: Fraction
    c: Fraction
    # (A, B, C): the plane scaled to coprime integers, for the kernel.
    _ints: Triple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a, b, c = as_fraction(self.a), as_fraction(self.b), as_fraction(self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if a == 0 and b == 0:
            raise ValueError("half-plane normal must be non-zero")
        scale = math.lcm(a.denominator, b.denominator, c.denominator)
        ia = a.numerator * (scale // a.denominator)
        ib = b.numerator * (scale // b.denominator)
        ic = c.numerator * (scale // c.denominator)
        g = math.gcd(ia, ib, ic)
        object.__setattr__(self, "_ints", (ia // g, ib // g, ic // g))

    def slack(self, p: Point2) -> Fraction:
        """c - a*x - b*y; non-negative exactly when p lies inside."""
        return self.c - self.a * p.x - self.b * p.y

    def contains(self, p: Point2) -> bool:
        return self.slack(p) >= 0


class ConvexPolygon:
    """Convex region in canonical vertex representation.

    Vertices are in counter-clockwise order, no three consecutive vertices
    collinear, starting from the lexicographically smallest vertex; with
    that normalization structural equality coincides with set equality.
    Degenerate regions are first-class: empty (no vertices), a single
    point, or a segment (two vertices in lexicographic order).

    The polygon holds the integer triples of its vertices; `vertices`
    builds their Point2s on first use and keeps them.  Canonical triples
    and canonical vertices determine each other, so equality and hashing
    compare the triples.  The constructor validates its Point2s; the
    kernel builds polygons from triples it knows to be canonical.
    """

    __slots__ = ("_ts", "_verts")

    def __init__(self, vertices: Iterable[Point2]) -> None:
        verts = tuple(vertices)
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
        _setattr(self, "_ts", tuple(_triple(v) for v in verts))
        _setattr(self, "_verts", verts)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ConvexPolygon:
            return NotImplemented
        return self._ts == other._ts

    def __hash__(self) -> int:
        return hash(self._ts)

    def __repr__(self) -> str:
        return f"ConvexPolygon(vertices={self.vertices!r})"

    @property
    def vertices(self) -> tuple[Point2, ...]:
        verts = self._verts
        if verts is None:
            verts = tuple(_point(t) for t in self._ts)
            _setattr(self, "_verts", verts)
        return verts

    @classmethod
    def from_points(cls, points: Iterable[Point2]) -> "ConvexPolygon":
        """Convex hull of arbitrary points, in canonical form."""
        return convex_hull(points)

    @property
    def is_empty(self) -> bool:
        return not self._ts

    @property
    def is_point(self) -> bool:
        return len(self._ts) == 1

    @property
    def is_segment(self) -> bool:
        return len(self._ts) == 2

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
        ts = self._ts
        if len(ts) <= 1:
            return ts == (_triple(p),)
        return _contains_all(ts, (_triple(p),))

    def contains_polygon(self, other: "ConvexPolygon") -> bool:
        """Exact containment; valid because both regions are convex."""
        ts, points = self._ts, other._ts
        if not points:
            return True
        if len(ts) <= 1:
            return ts == points
        return _contains_all(ts, points)

    def translate(self, d: Point2) -> "ConvexPolygon":
        return _translated(self, _triple(d))

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


_setattr = object.__setattr__


def _polygon(ts: tuple[Triple, ...], verts: Optional[tuple[Point2, ...]] = None) -> ConvexPolygon:
    """Construct from canonical triples (and their Point2s, if known) without validation."""
    poly = object.__new__(ConvexPolygon)
    _setattr(poly, "_ts", ts)
    _setattr(poly, "_verts", verts)
    return poly


def _raw_polygon(verts: tuple[Point2, ...]) -> ConvexPolygon:
    """Construct without validation; callers guarantee canonical form."""
    return _polygon(tuple(_triple(v) for v in verts), verts)


EMPTY_POLYGON = ConvexPolygon(())


def _translated(poly: ConvexPolygon, d: Triple) -> ConvexPolygon:
    # Translation preserves orientation and lexicographic order, so the
    # canonical form survives without re-hulling.
    return _polygon(tuple(_add(t, d) for t in poly._ts))


def _contains_all(ts: Sequence[Triple], points: Sequence[Triple]) -> bool:
    """True when every triple of points lies in the segment or polygon ts.

    A point lies in a strictly convex counter-clockwise polygon when it is
    on or left of every edge line, and in a segment u < v when it is on its
    line and u <= p <= v lexicographically.
    """
    if len(ts) == 2:
        u, v = ts
        a, b, c = _line(u, v)
        for p in points:
            x, y, w = p
            if a * x + b * y + c * w != 0 or _lex_cmp(u, p) > 0 or _lex_cmp(p, v) > 0:
                return False
        return True
    lines = [_line(ts[i - 1], ts[i]) for i in range(len(ts))]
    return all(a * x + b * y + c * w >= 0 for x, y, w in points for a, b, c in lines)


def segment(u: Point2, v: Point2) -> ConvexPolygon:
    """Segment (or point) through two points, canonical."""
    if u == v:
        return _raw_polygon((u,))
    return _raw_polygon((u, v) if u < v else (v, u))


def _hull(points: Iterable[Triple]) -> tuple[Triple, ...]:
    """Canonical convex hull of triples: monotone chain over the distinct points.

    Canonical triples of equal points are equal, so a set removes the
    duplicates, and the sort compares points by cross-multiplication.
    """
    pts = sorted(set(points), key=_LEX_KEY)
    if len(pts) <= 1:
        return tuple(pts)
    lower: list[Triple] = []
    for p in pts:
        while len(lower) >= 2 and _orient3(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Triple] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient3(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def convex_hull(points: Iterable[Point2]) -> ConvexPolygon:
    """Convex hull via monotone chain with exact orientation predicates.

    Degenerate inputs yield the matching degenerate polygon: one distinct
    point gives a point, collinear points give the extreme segment.  The
    chain runs on the points' integer triples; the hull's vertices are the
    input points themselves.
    """
    by_triple = {_triple(p): p for p in points}
    ts = _hull(by_triple)
    return _polygon(ts, tuple(by_triple[t] for t in ts))


def hull_of_polygons(polygons: Iterable[ConvexPolygon]) -> ConvexPolygon:
    """Convex hull of the union of polygons, computed on their triples."""
    return _polygon(_hull(t for poly in polygons for t in poly._ts))


@dataclass(frozen=True, slots=True)
class PointSet:
    """Finite set of distinct points, stored sorted for determinism."""

    points: tuple[Point2, ...]
    # The hash of points, computed once: point sets key several caches.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(sorted(set(self.points)))
        if not pts:
            raise ValueError("point set must be non-empty")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_hash", hash((pts,)))

    def __hash__(self) -> int:
        return self._hash

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


def _edge_directions(ts: Sequence[Triple]) -> tuple[list[tuple[int, int]], int]:
    """Integer edge directions traversed CCW from the bottom vertex, and its index.

    The bottom vertex is the lowest, then leftmost: the smallest in (y, x)
    order.  From it a strictly convex CCW boundary has its edge angles
    sorted in [0, 2*pi), and a two-vertex segment gives an antiparallel
    pair.  A direction is the edge vector scaled by the positive Wu*Wv.
    """
    n = len(ts)
    k = _lex_min([(y, x, w) for x, y, w in ts])
    dirs = []
    for i in range(n):
        ux, uy, uw = ts[(k + i) % n]
        vx, vy, vw = ts[(k + i + 1) % n]
        dirs.append((vx * uw - ux * vw, vy * uw - uy * vw))
    return dirs, k


def _angle_cmp(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Exact comparison of polar angles in [0, 2*pi); 0 means same direction."""
    ux, uy = u
    vx, vy = v
    hu = 0 if (uy > 0 or (uy == 0 and ux > 0)) else 1
    hv = 0 if (vy > 0 or (vy == 0 and vx > 0)) else 1
    if hu != hv:
        return -1 if hu < hv else 1
    cr = ux * vy - uy * vx
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


def minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum of two convex polygons.

    Computed by merging the edge sequences in angular order (linear time),
    emitting the sum of the current vertex pair before each step; the
    result has at most |p| + |q| vertices.  Parallel edges advance both
    sequences at once, so the output is already strictly convex and only
    needs rotating to its smallest vertex (a segment: ordering its ends).
    """
    pt, qt = p._ts, q._ts
    if not pt or not qt:
        raise ValueError("Minkowski sum requires non-empty polygons")
    if len(pt) == 1:
        return _translated(q, pt[0])
    if len(qt) == 1:
        return _translated(p, qt[0])
    ep, i0 = _edge_directions(pt)
    eq, j0 = _edge_directions(qt)
    np_, nq = len(ep), len(eq)
    out = []
    i = j = 0
    while i < np_ or j < nq:
        out.append(_add(pt[(i0 + i) % np_], qt[(j0 + j) % nq]))
        cmp = 1 if i == np_ else -1 if j == nq else _angle_cmp(ep[i], eq[j])
        if cmp <= 0:
            i += 1
        if cmp >= 0:
            j += 1
    k = _lex_min(out)
    return _polygon(tuple(out[k:] + out[:k]))


def _cut(verts: Sequence[Triple], plane: Triple) -> Sequence[Triple]:
    """One half-plane cut of a boundary list of triples.

    A list of one entry is a point, of two a segment (one edge), of more a
    strictly convex CCW polygon.  Entries with non-negative slack are kept
    in order, and every edge whose ends have strictly opposite slack signs
    adds its crossing point.  The input list itself is returned when
    nothing is cut.
    """
    a, b, c = plane
    slacks = [c * w - a * x - b * y for x, y, w in verts]
    if min(slacks) >= 0:
        return verts
    if max(slacks) < 0:
        return []
    n = len(verts)
    edges = n if n > 2 else 1
    out = []
    for i in range(n):
        su = slacks[i]
        if su >= 0:
            out.append(verts[i])
        if i < edges:
            j = i + 1 if i + 1 < n else 0
            sv = slacks[j]
            if (su > 0 > sv) or (su < 0 < sv):
                out.append(_crossing(verts[i], verts[j], su, sv))
    return out


def _crossing(u: Triple, v: Triple, su: int, sv: int) -> Triple:
    """The point of segment uv with zero slack, given slacks su, sv of opposite signs.

    su*v - sv*u is a positive or negative multiple of it (its slack is
    su*sv - sv*su = 0); fix the sign so W > 0 and divide out the gcd.
    """
    x = su * v[0] - sv * u[0]
    y = su * v[1] - sv * u[1]
    w = su * v[2] - sv * u[2]
    if w < 0:
        x, y, w = -x, -y, -w
    return _normalised(x, y, w)


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
    return clip_all(polygon, (half_plane,))


def clip_all(polygon: ConvexPolygon, planes: Iterable[HalfPlane]) -> ConvexPolygon:
    """polygon intersected with every half-plane, stopping once it is empty.

    The polygon's triples are cut by every plane in turn (see `clip`).  A
    polygon no plane cuts is returned as it is.
    """
    original = polygon._ts
    verts: Sequence[Triple] = original
    for plane in planes:
        if not verts:
            break
        verts = _cut(verts, plane._ints)
    if verts is original:
        return polygon
    if not verts:
        return EMPTY_POLYGON
    k = _lex_min(verts)
    return _polygon(tuple(verts[k:]) + tuple(verts[:k]))


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


@lru_cache(maxsize=8192)
def _scaled_points(ps: PointSet) -> tuple[int, tuple[tuple[int, int], ...]]:
    """L, the lcm of every coordinate denominator of ps, and each point times L."""
    scale = math.lcm(*(q.denominator for p in ps.points for q in (p.x, p.y)))
    return scale, tuple(
        (p.x.numerator * (scale // p.x.denominator), p.y.numerator * (scale // p.y.denominator))
        for p in ps.points
    )


def project_point_set(point_set: PointSet, z: Point2) -> Point2:
    """Closest point of a finite set, ties broken lexicographically.

    With the points scaled to integers (Xi, Yi) = L*pi and z = (zx, zy, zw),
    |pi - z|^2 is ((Xi*zw - zx*L)^2 + (Yi*zw - zy*L)^2) / (L*zw)^2, one
    positive factor for every point.  The points are sorted, and `min`
    returns the first of equal keys, which is the lexicographically
    smallest of the closest points.
    """
    scale, scaled = _scaled_points(point_set)
    zx, zy, zw = _triple(z)
    zx *= scale
    zy *= scale
    best = min(
        range(len(scaled)),
        key=lambda i: (scaled[i][0] * zw - zx) ** 2 + (scaled[i][1] * zw - zy) ** 2,
    )
    return point_set.points[best]


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
