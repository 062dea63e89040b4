"""Exact plane geometry over arbitrary-precision rationals.

A point is one integer triple (X, Y, W), W > 0 and gcd(X, Y, W) = 1,
standing for (X/W, Y/W); the normal form is unique, so equal points have
equal triples.  A `Point2` holds its triple, a `ConvexPolygon` the triples
of its vertices and a `HalfPlane` its coprime integer triple (A, B, C).
Point arithmetic, the kernel (`clip_all`, `convex_hull`,
`hull_of_polygons`, `minkowski_sum`, translation and containment) and both
projections run on these ints: orientation is a 3x3 integer determinant, a
half-plane test an integer dot product and the lexicographic order a
cross-multiplied comparison.  Rationals enter through `Point2(x, y)`, which
takes Fractions, ints or 'p/q' strings but never a float, and leave through
`Point2.x` and `.y`, lowest-terms Fractions built on each read; squared
lengths are Fractions too.  `orient`, written over those Fractions, is the
reference that polygon validation and the tests hold the integer kernel to.

All value types are immutable and all operations are pure functions, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]
Triple = tuple[int, int, int]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to Fraction.

    Floats are rejected on purpose: silently converting a binary float
    would smuggle rounding error into an exact pipeline.  Booleans are
    rejected too, although `bool` is an `int`: a JSON ``true`` is not 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__!s}")


class _Frozen:
    """Refuses assignment and deletion; constructors set slots with `_setattr`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_setattr = object.__setattr__


class Point2(_Frozen):
    """A point (or displacement vector) in the rational plane.

    Kept as its normalised triple ``_t``; ``x`` and ``y`` are the
    coordinates as Fractions.  Equality and hashing compare triples, and
    ordering is lexicographic on (x, y), the tie-break order of the
    closest-point operators.
    """

    __slots__ = ("_t",)

    def __init__(self, x: RationalLike, y: RationalLike) -> None:
        x, y = as_fraction(x), as_fraction(y)
        xd, yd = x.denominator, y.denominator
        # Both coordinates are in lowest terms, so scaling them by the lcm
        # of their denominators leaves no common factor.
        w = xd if xd == yd else math.lcm(xd, yd)
        _setattr(self, "_t", (x.numerator * (w // xd), y.numerator * (w // yd), w))

    @property
    def x(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def y(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return Point2, (self.x, self.y)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Point2:
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(self._t)

    # p > q and p >= q fall back to the reflected q < p and q <= p.
    def __lt__(self, other: "Point2") -> bool:
        return _lex_cmp(self._t, other._t) < 0

    def __le__(self, other: "Point2") -> bool:
        return _lex_cmp(self._t, other._t) <= 0

    def __add__(self, other: "Point2") -> "Point2":
        return _from_triple(_add(self._t, other._t))

    def __sub__(self, other: "Point2") -> "Point2":
        x, y, w = other._t
        return _from_triple(_add(self._t, (-x, -y, w)))

    def __neg__(self) -> "Point2":
        x, y, w = self._t
        return _from_triple((-x, -y, w))

    def __mul__(self, k: RationalLike) -> "Point2":
        k = as_fraction(k)
        x, y, w = self._t
        return _from_triple(_normalised(x * k.numerator, y * k.numerator, w * k.denominator))

    __rmul__ = __mul__

    def dot(self, other: "Point2") -> Fraction:
        ax, ay, aw = self._t
        bx, by, bw = other._t
        return Fraction(ax * bx + ay * by, aw * bw)

    def norm2(self) -> Fraction:
        """Squared Euclidean norm."""
        x, y, w = self._t
        return Fraction(x * x + y * y, w * w)


def _from_triple(t: Triple) -> Point2:
    """The point of a normalised triple, taken as it is."""
    p = object.__new__(Point2)
    _setattr(p, "_t", t)
    return p


ORIGIN = Point2(0, 0)


def orient(a: Point2, b: Point2, c: Point2) -> Fraction:
    """Twice the signed area of triangle abc; positive for a left turn."""
    ax, ay, bx, by, cx, cy = a.x, a.y, b.x, b.y, c.x, c.y
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


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


@dataclass(frozen=True, slots=True, init=False)
class HalfPlane:
    """Closed half-plane {p : a*p.x + b*p.y <= c}.

    Only (a, b, c) scaled to coprime integers is kept, in ``ints``: two
    half-planes compare equal exactly when they are the same set, and the
    kernel reads the triple as it is.
    """

    ints: Triple

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike) -> None:
        a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
        if a == 0 and b == 0:
            raise ValueError("half-plane normal must be non-zero")
        scale = math.lcm(a.denominator, b.denominator, c.denominator)
        ia = a.numerator * (scale // a.denominator)
        ib = b.numerator * (scale // b.denominator)
        ic = c.numerator * (scale // c.denominator)
        g = math.gcd(ia, ib, ic)
        object.__setattr__(self, "ints", (ia // g, ib // g, ic // g))

    def translate(self, d: Point2) -> "HalfPlane":
        """The half-plane moved by d = (X/W, Y/W): a*W*p.x + b*W*p.y <= c*W + a*X + b*Y."""
        a, b, c = self.ints
        x, y, w = d._t
        return HalfPlane(a * w, b * w, c * w + a * x + b * y)


class ConvexPolygon(_Frozen):
    """Convex region in canonical vertex representation.

    Vertices are in counter-clockwise order, no three consecutive vertices
    collinear, starting from the lexicographically smallest vertex; with
    that normalization structural equality coincides with set equality.
    Degenerate regions are first-class: empty (no vertices), a single
    point, or a segment (two vertices in lexicographic order).

    The polygon holds the integer triples of its vertices; `vertices`
    wraps them in Point2s on first use and keeps them, so a vertex is one
    object for the polygon's life.  Equality and hashing compare the
    triples.  The constructor validates its Point2s; the kernel builds
    polygons from triples it knows to be canonical.
    """

    __slots__ = ("_ts", "_verts")

    def __init__(self, vertices: Iterable[Point2]) -> None:
        verts = tuple(vertices)
        n = len(verts)
        if n == 2:
            if not verts[0] < verts[1]:
                raise ValueError("segment vertices must be distinct and ordered")
        elif n >= 3:
            if verts[0] != min(verts):
                raise ValueError("polygon must start at its lexicographically smallest vertex")
            for i in range(n):
                a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
                if orient(a, b, c) <= 0:
                    raise ValueError("vertices must make strict counter-clockwise turns")
            # Strict left turns alone admit a boundary that winds twice (a
            # pentagram); a convex one also turns left in every fan triangle.
            if any(orient(verts[0], verts[i], verts[i + 1]) <= 0 for i in range(1, n - 1)):
                raise ValueError("vertices must wind once around a convex polygon")
        _setattr(self, "_ts", tuple(v._t for v in verts))
        _setattr(self, "_verts", verts)

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
            verts = tuple(map(_from_triple, self._ts))
            _setattr(self, "_verts", verts)
        return verts

    @property
    def is_empty(self) -> bool:
        return not self._ts

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
            return ts == (p._t,)
        return _contains_all(ts, (p._t,))

    def contains_polygon(self, other: "ConvexPolygon") -> bool:
        """Exact containment; valid because both regions are convex."""
        ts, points = self._ts, other._ts
        if not points:
            return True
        if len(ts) <= 1:
            return ts == points
        return _contains_all(ts, points)

    def translate(self, d: Point2) -> "ConvexPolygon":
        return _translated(self, d._t)

    def half_planes(self) -> list[HalfPlane]:
        """Half-planes whose intersection is exactly this region.

        A triple (a, b, c) of `_line(u, v)` has a*X + b*Y + c*W >= 0 for the
        points (X/W, Y/W) left of u -> v, that is HalfPlane(-a, -b, c).
        """
        ts = self._ts
        if not ts:
            raise ValueError("empty polygon has no half-plane representation")
        if len(ts) == 1:
            ((x, y, w),) = ts
            return [HalfPlane(w, 0, x), HalfPlane(-w, 0, -x), HalfPlane(0, w, y), HalfPlane(0, -w, -y)]
        if len(ts) == 2:
            # Both sides of the line, then the caps at v and at u along d ~ v - u.
            (ux, uy, uw), (vx, vy, vw) = u, v = ts
            a, b, c = _line(u, v)
            dx, dy = vx * uw - ux * vw, vy * uw - uy * vw
            return [
                HalfPlane(a, b, -c),
                HalfPlane(-a, -b, c),
                HalfPlane(dx * vw, dy * vw, dx * vx + dy * vy),
                HalfPlane(-dx * uw, -dy * uw, -dx * ux - dy * uy),
            ]
        n = len(ts)
        return [HalfPlane(-a, -b, c) for a, b, c in (_line(ts[i], ts[(i + 1) % n]) for i in range(n))]


def _polygon(ts: tuple[Triple, ...], verts: Optional[tuple[Point2, ...]] = None) -> ConvexPolygon:
    """Construct from canonical triples (and their Point2s, if known) without validation."""
    poly = object.__new__(ConvexPolygon)
    _setattr(poly, "_ts", ts)
    _setattr(poly, "_verts", verts)
    return poly


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
    return convex_hull((u, v))


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
    chain runs on the points' integer triples.
    """
    return _polygon(_hull(p._t for p in points))


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
        verts = _cut(verts, plane.ints)
    if verts is original:
        return polygon
    if not verts:
        return EMPTY_POLYGON
    k = _lex_min(verts)
    return _polygon(tuple(verts[k:]) + tuple(verts[:k]))


def voronoi_cell(point_set: PointSet, center: Point2) -> list[HalfPlane]:
    """The bisector half-planes that define a facet of the Voronoi cell of center.

    For every other site c' the constraint is 2(c'-c).x <= |c'|^2 - |c|^2,
    taken times (W'*W)^2 on the triples of c' and c to stay in integers;
    the list keeps, in site order, exactly those whose line meets the
    intersection of the others in a segment of positive length, so the
    cell equals the intersection of the list and no member is redundant.
    The cell is closed, so neighboring cells overlap on their bisectors.
    A singleton set yields no constraints (the cell is the whole plane).
    """
    if center not in point_set:
        raise ValueError("center must belong to the point set")
    cx, cy, cw = center._t
    planes = [
        HalfPlane(
            2 * ow * cw * (ox * cw - cx * ow),
            2 * ow * cw * (oy * cw - cy * ow),
            (ox * ox + oy * oy) * cw * cw - (cx * cx + cy * cy) * ow * ow,
        )
        for ox, oy, ow in (other._t for other in point_set.points if other != center)
    ]
    return [h for i, h in enumerate(planes) if _defines_facet(h, planes[:i] + planes[i + 1 :])]


def _defines_facet(h: HalfPlane, others: Sequence[HalfPlane]) -> bool:
    """True when the line of h meets the intersection of others in positive length.

    The line is p0 + t*d with p0 = (a, b) * c / (a^2 + b^2), its point
    nearest the origin, and d = (-b, a); each other half-plane bounds t from
    one side, or, when parallel, keeps the whole line or none of it.  Every
    bound is taken times a^2 + b^2 > 0, which keeps it an exact quotient of
    integers.
    """
    a, b, c = h.ints
    norm2 = a * a + b * b
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for g in others:
        ga, gb, gc = g.ints
        rate = gb * a - ga * b  # g's normal dotted with d
        room = gc * norm2 - (ga * a + gb * b) * c  # g's slack at p0, times a^2 + b^2
        if rate == 0:
            if room < 0:
                return False
        elif rate > 0:
            bound = Fraction(room, rate)
            if hi is None or bound < hi:
                hi = bound
        else:
            bound = Fraction(room, rate)
            if lo is None or bound > lo:
                lo = bound
    return lo is None or hi is None or lo < hi


def clip_to_cell(polygon: ConvexPolygon, point_set: PointSet, center: Point2) -> ConvexPolygon:
    """polygon intersected with the Voronoi cell of center, exactly."""
    return clip_all(polygon, voronoi_cell(point_set, center))


def _scaled(points: Sequence[Point2]) -> tuple[int, list[tuple[int, int]]]:
    """L, the lcm of the points' W, and each point times L as an integer pair."""
    ts = [p._t for p in points]
    scale = math.lcm(*{w for _, _, w in ts})
    return scale, [(x * (scale // w), y * (scale // w)) for x, y, w in ts]


@lru_cache(maxsize=8192)
def _scaled_points(ps: PointSet) -> tuple[int, tuple[tuple[int, int], ...]]:
    """`_scaled` of a point set, computed once per set."""
    scale, scaled = _scaled(ps.points)
    return scale, tuple(scaled)


def project_point_set(point_set: PointSet, z: Point2) -> Point2:
    """Closest point of a finite set, ties broken lexicographically.

    With the points scaled to integers (Xi, Yi) = L*pi and z = (zx, zy, zw),
    |pi - z|^2 is ((Xi*zw - zx*L)^2 + (Yi*zw - zy*L)^2) / (L*zw)^2, one
    positive factor for every point.  The points are sorted, and `min`
    returns the first of equal keys, which is the lexicographically
    smallest of the closest points.
    """
    scale, scaled = _scaled_points(point_set)
    zx, zy, zw = z._t
    zx *= scale
    zy *= scale
    best = min(
        range(len(scaled)),
        key=lambda i: (scaled[i][0] * zw - zx) ** 2 + (scaled[i][1] * zw - zy) ** 2,
    )
    return point_set.points[best]


def project_convex_polygon(polygon: ConvexPolygon, z: Point2) -> Point2:
    """Euclidean projection onto a convex polygon, computed exactly on its triples.

    A z inside the polygon is its own projection.  Otherwise the projection
    is a vertex or the foot of the perpendicular from z = (zx, zy, zw) to
    an edge u -> v.  With D = (v - u)*Wu*Wv and Zu = (z - u)*Wu*Wz integer
    vectors, the edge parameter is t = Zu.D*Wv / (|D|^2*Wz), so clamping t
    to [0, 1] is two integer comparisons.  A vertex u lies at squared
    distance |Zu|^2 / (Wu*Wz)^2 and a foot at cross(Zu, D)^2 / (Wu*Wz)^2
    |D|^2; without their common factor 1/Wz^2 the candidates compare by
    cross-multiplication.  Only the winner becomes a Point2: a vertex is
    the polygon's own, a foot is built from its normalised triple.  The projection is
    unique, so only equal candidates can tie; ties keep the (squared
    distance, point) order all the same.
    """
    ts = polygon._ts
    if not ts:
        raise ValueError("cannot project onto an empty polygon")
    zt = z._t
    if len(ts) == 1:
        return z if ts[0] == zt else polygon.vertices[0]
    if _contains_all(ts, (zt,)):
        return z
    zx, zy, zw = zt
    n = len(ts)
    best_num = best_den = 0
    best_t: Triple = zt
    best_vertex: Optional[int] = None
    for i in range(1 if n == 2 else n):
        j = (i + 1) % n
        ux, uy, uw = ts[i]
        vx, vy, vw = ts[j]
        dx, dy = vx * uw - ux * vw, vy * uw - uy * vw
        px, py = zx * uw - ux * zw, zy * uw - uy * zw
        dot = px * dx + py * dy
        d2 = dx * dx + dy * dy
        if dot <= 0:  # t <= 0: the vertex u
            vertex, cand = i, ts[i]
            num, den = px * px + py * py, uw * uw
        elif dot * vw >= d2 * zw:  # t >= 1: the vertex v
            vertex, cand = j, ts[j]
            qx, qy = zx * vw - vx * zw, zy * vw - vy * zw
            num, den = qx * qx + qy * qy, vw * vw
        else:  # the foot u + (v - u)*t
            scale = d2 * zw
            vertex, cand = None, (ux * scale + dx * dot, uy * scale + dy * dot, uw * scale)
            cross = px * dy - py * dx
            num, den = cross * cross, uw * uw * d2
        if best_den:
            order = num * best_den - best_num * den or _lex_cmp(cand, best_t)
            if order >= 0:
                continue
        best_num, best_den, best_t, best_vertex = num, den, cand, vertex
    if best_vertex is not None:
        return polygon.vertices[best_vertex]
    return _from_triple(_normalised(*best_t))

