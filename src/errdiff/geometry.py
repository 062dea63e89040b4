"""Exact plane geometry over arbitrary-precision rationals.

A point is one integer triple (X, Y, W), W > 0 and gcd(X, Y, W) = 1,
standing for (X/W, Y/W); the normal form is unique, so equal points have
equal triples.  A `Point2` holds its triple, a `ConvexPolygon` the triples
of its vertices and a `HalfPlane` its coprime integer triple (A, B, C).
A polygon is never empty: its degenerate forms are a point and a segment,
and the constructor and `convex_hull` refuse an empty vertex list, so no
function taking a polygon checks for emptiness again.
Point arithmetic, the kernel (`clip_all`, `convex_hull`, `minkowski_sum`,
translation and containment) and both projections run on these ints:
orientation is a 3x3 integer determinant, a half-plane test an integer dot
product and the lexicographic order a cross-multiplied comparison.  Each
exact point computation has one function here, which every module calls:
`_holds` is the one membership test of a point in a region (point, segment
or polygon), `_site_forms` the integer forms f_c by which a point set's
nearest site is found, both by `project_point_set` and by the Voronoi
cells of `operators`, and `_norm` the one float norm of a point triple.  Floats
never produce a coordinate; they only decide a sign where a proven error
bound makes the decision exact.  The hull sorts by correctly rounded float
keys and re-sorts exactly when two neighbours may be out of order, and it
takes an orientation's sign from those keys only when the value clears
the error bound derived in `_hull`, so no answer depends on a float.  The
hull splits the sorted points by the chord from the first to the last, so
each point enters one of the two monotone chains.  The Minkowski sum
merges both edge sequences from vertex 0, the smallest, so it emits a
canonical polygon as it goes.

A polygon of two or more vertices has an edge table, built on first use
and kept: for edge i, from vertex i to vertex i + 1, its integer direction
tagged with its angle half, and its line.  The Minkowski sum, polygon
containment, the projection and the convex cells of `operators` read it
instead of deriving the edges on every call.

Rationals enter through `_ratio`, the one reader of rational input, which
`Point2(x, y)`, `HalfPlane` and `as_fraction` share.  It takes ints,
Fractions and every string that Fraction reads (integers and 'p/q' with
optional whitespace and sign, decimals, exponents such as '1e400' and, as
the running Python's Fraction allows, underscores and non-ASCII digits),
but never a float or a bool.  An integer or 'p/q' string in ASCII digits
is read by `int` straight into the pair a triple is built from; every
other string goes through Fraction, which decides what it accepts and
raises its errors, except that a decimal exponent beyond Python's
integer string digit limit in magnitude is refused.  Rationals leave
through `Point2.x` and `.y`, lowest-terms Fractions built on each read;
squared lengths are Fractions too.  As text they leave through `_rational`
and `_text`, the lowest-terms strings written from the triples, which the
output files, the printed vertex lines and the digests share.  `orient`, written
over those Fractions, is the reference that polygon validation and the
tests hold the integer kernel to.

All value types are immutable and all operations are pure functions, so
values can be shared freely across threads.  A polygon's lazy slots (its
vertices, hash and edge table) hold values derived from its triples alone:
filling one twice stores an equal value, and dropping the edge table only
makes the next reader rebuild it.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]
Triple = tuple[int, int, int]
Keyed = tuple[float, float, Triple]  # a point's float key (X/W, Y/W) and its triple

_NO_VERTEX = "a convex polygon needs at least one vertex"


# An integer or 'p/q' string in ASCII digits, which `int` reads on its own.
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
# The decimal exponent that ends a literal, as Fraction's grammar writes it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z").search
# Python's limit on the digits of an integer string, 0 for none; before
# 3.10.7 Python has no limit and no such function, and int() is 0.
_max_str_digits = getattr(sys, "get_int_max_str_digits", int)


def _ratio(value: RationalLike) -> tuple[int, int]:
    """value as (numerator, denominator), in lowest terms with a positive
    denominator: the one reader of rational input.

    Ints and Fractions pass through.  An integer or 'p/q' string in ASCII
    digits, '-' its only sign, is read by `int` straight into the pair;
    every other string, a zero denominator's too, goes to `_fraction`, so
    Fraction's grammar and errors decide what else is accepted.  Floats are
    rejected on purpose: silently converting a binary float would smuggle
    rounding error into an exact pipeline.  Booleans are rejected too,
    although `bool` is an `int`: a JSON ``true`` is not 1.
    """
    if isinstance(value, str):
        m = _PLAIN(value)
        if m is not None:
            n, d = int(m[1]), int(m[2] or 1)
            if d:
                g = math.gcd(n, d)
                return n // g, d // g
        f = _fraction(value)
        return f.numerator, f.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected a rational value, got {type(value).__name__!s}")


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent beyond
    sys.get_int_max_str_digits() in magnitude: Fraction would build its
    power of ten first, over 33 million bits and seconds of work for
    '1e10000000', before any bit budget applies.

    The literal with its exponent's digits zeroed is well formed exactly
    when the literal is, so Fraction judges that one first: a malformed
    literal keeps Fraction's own error, raised before its exponent is read.
    An exponent of more digits than the limit keeps Fraction's error too.
    """
    m = _EXPONENT(text)
    limit = _max_str_digits()
    try:
        beyond = m is not None and limit and abs(int(m[1])) > limit
    except ValueError:  # more digits than the limit
        beyond = False
    if beyond:
        try:
            Fraction(text[: m.start(1)] + re.sub(r"\d", "0", m[1]) + text[m.end(1) :])
        except ValueError:
            return Fraction(text)
        raise ValueError(f"exponent in {text!r} exceeds {limit}, the integer string digit limit")
    return Fraction(text)


def as_fraction(value: RationalLike) -> Fraction:
    """value, an int, Fraction or string, as a Fraction, read by `_ratio`."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))


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
        (xn, xd), (yn, yd) = _ratio(x), _ratio(y)
        # Both coordinates are in lowest terms, so scaling them by the lcm
        # of their denominators leaves no common factor.
        w = xd if xd == yd else math.lcm(xd, yd)
        _setattr(self, "_t", (xn * (w // xd), yn * (w // yd), w))

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
        kn, kd = _ratio(k)
        x, y, w = self._t
        return _from_triple(_normalised(x * kn, y * kn, w * kd))

    __rmul__ = __mul__

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
    """(x, y, w) divided by its gcd: a point's triple for w > 0, a plane's for (x, y) != (0, 0)."""
    g = math.gcd(x, y, w)
    return x // g, y // g, w // g


def _rational(x: int, w: int) -> str:
    """x/w for w > 0 in lowest terms, written as str(Fraction(x, w)) writes it."""
    g = math.gcd(x, w)
    return str(x // g) if g == w else f"{x // g}/{w // g}"


def _text(ts: Iterable[Triple]) -> str:
    """The points ts as "x,y;x,y;...", each coordinate written by `_rational`."""
    return ";".join(f"{_rational(x, w)},{_rational(y, w)}" for x, y, w in ts)


def _norm(t: Triple) -> float:
    """|p| for the point triple t: the correctly rounded square root of the
    correctly rounded float of |p|^2.  Beyond the float range it raises
    OverflowError."""
    x, y, w = t
    return math.sqrt((x * x + y * y) / (w * w))


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
    """The line through a and b as the cross product a x b.

    Dotted with a point c it gives det[a; b; c] = Wa*Wb*Wc*orient(a, b, c),
    which has the sign of the orientation of abc.
    """
    ax, ay, aw = a
    bx, by, bw = b
    return ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx


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
    """Closed half-plane {p : a*p.x + b*p.y <= c}, the public input of `clip_all`.

    Only (a, b, c) scaled to coprime integers is kept, in ``ints``: two
    half-planes compare equal exactly when they are the same set.  The
    kernel's own planes are such integer triples, never HalfPlanes, and
    `clip_all` reads ``ints`` as it is.
    """

    ints: Triple

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike) -> None:
        (an, ad), (bn, bd), (cn, cd) = _ratio(a), _ratio(b), _ratio(c)
        if an == 0 and bn == 0:
            raise ValueError("half-plane normal must be non-zero")
        scale = math.lcm(ad, bd, cd)
        ia, ib, ic = an * (scale // ad), bn * (scale // bd), cn * (scale // cd)
        g = math.gcd(ia, ib, ic)
        object.__setattr__(self, "ints", (ia // g, ib // g, ic // g))


class ConvexPolygon(_Frozen):
    """Convex region in canonical vertex representation.

    Vertices are in counter-clockwise order, no three consecutive vertices
    collinear, starting from the lexicographically smallest vertex; with
    that normalization structural equality coincides with set equality.
    Degenerate regions are first-class: a single point, or a segment (two
    vertices in lexicographic order).  There is no empty polygon: the
    constructor refuses an empty vertex list.

    The polygon holds the integer triples of its vertices; `vertices`
    wraps them in Point2s on first use and keeps them, so a vertex is one
    object for the polygon's life.  Equality and hashing compare the
    triples; the hash is computed on first use and kept, because a
    closed-loop run keys its tables on the few feasible sets it meets.  The
    edge table (see `_edge_table`) is built on first use too, since the
    kernels read a member's hull or an advertised set many times.  The
    constructor validates its Point2s; the kernel builds polygons from
    triples it knows to be canonical.  A pickle or copy carries only the
    triples.
    """

    # _hash and _edges are left unset until first read, so building a
    # polygon costs nothing more, and neither takes part in equality.
    __slots__ = ("_ts", "_verts", "_hash", "_edges")

    def __init__(self, vertices: Iterable[Point2]) -> None:
        verts = tuple(vertices)
        n = len(verts)
        if n == 0:
            raise ValueError(_NO_VERTEX)
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
        try:
            return self._hash
        except AttributeError:
            _setattr(self, "_hash", hash(self._ts))
            return self._hash

    def __repr__(self) -> str:
        return f"ConvexPolygon(vertices={self.vertices!r})"

    def __reduce__(self):
        return _polygon, (self._ts,)

    @property
    def vertices(self) -> tuple[Point2, ...]:
        verts = self._verts
        if verts is None:
            verts = tuple(map(_from_triple, self._ts))
            _setattr(self, "_verts", verts)
        return verts

    def contains_point(self, p: Point2) -> bool:
        return _holds(self, p._t)

    def contains_polygon(self, other: "ConvexPolygon") -> bool:
        """Exact containment; valid because both regions are convex.

        A polygon of three or more vertices holds a segment or polygon when,
        for each of its edges, the other region's support point for the
        edge's outward normal lies on or left of the edge line.  Both edge
        sequences run from their lexicographic minima in increasing angle in
        (-pi/2, 3*pi/2], as in `minkowski_sum`, so one merge finds every
        support point: the vertex reached once the other region's edges of
        smaller angle are passed.  That is linear in the two vertex counts.
        """
        ts, points = self._ts, other._ts
        n, m = len(ts), len(points)
        if n <= 2 or m == 1:
            return all(_holds(self, p) for p in points)
        outer, lines = _edge_table(self)
        inner = _edge_table(other)[0]
        j = 0
        for (h, dx, dy), (a, b, c) in zip(outer, lines):
            while j < m:  # pass the inner edges of strictly smaller angle
                g, ex, ey = inner[j]
                if (g - h or dx * ey - dy * ex) >= 0:
                    break
                j += 1
            x, y, w = points[j % m]
            if a * x + b * y + c * w < 0:
                return False
        return True

    def translate(self, d: Point2) -> "ConvexPolygon":
        return _translated(self, d._t)


def _polygon(ts: tuple[Triple, ...]) -> ConvexPolygon:
    """Construct from canonical triples without validation; the kernel
    hands it only non-empty canonical tuples."""
    poly = object.__new__(ConvexPolygon)
    _setattr(poly, "_ts", ts)
    _setattr(poly, "_verts", None)
    return poly


def _translated(poly: ConvexPolygon, d: Triple) -> ConvexPolygon:
    # Translation preserves orientation and lexicographic order, so the
    # canonical form survives without re-hulling.
    return _polygon(tuple(_add(t, d) for t in poly._ts))


def _edge_table(poly: ConvexPolygon) -> tuple[tuple[Triple, ...], tuple[Triple, ...]]:
    """poly's edge directions and edge lines, built on first use and kept.

    Edge i runs from vertex i to vertex i + 1 (cyclically), so a segment
    u < v has the antiparallel pair u -> v, v -> u.  Its direction is
    (h, dx, dy): the edge vector times the positive Wu*Wv, and h, 0 for an
    angle in (-pi/2, pi/2] and 1 for one in (pi/2, 3*pi/2].  From vertex 0,
    the lexicographic minimum, a strictly convex CCW boundary has its edge
    angles strictly increasing in (-pi/2, 3*pi/2]: the first edge leaves
    rightward (or straight up, for a segment), the last may arrive straight
    down.  So d comes before e when g - h or cross(d, e), for their halves
    h and g, is positive, and 0 means parallel.  Its line is `_line(u, v)`,
    (-dy, dx, Xu*Yv - Yu*Xv), positive on points left of the edge.  Only
    polygons of two or more vertices have a table.
    """
    try:
        return poly._edges
    except AttributeError:
        pass
    ts = poly._ts
    dirs = []
    lines = []
    for (ux, uy, uw), (vx, vy, vw) in zip(ts, ts[1:] + ts[:1]):
        dx, dy = vx * uw - ux * vw, vy * uw - uy * vw
        dirs.append((0 if dx > 0 or (dx == 0 and dy > 0) else 1, dx, dy))
        lines.append((-dy, dx, ux * vy - uy * vx))
    table = tuple(dirs), tuple(lines)
    _setattr(poly, "_edges", table)
    return table


def _drop_edge_table(poly: ConvexPolygon) -> None:
    """Forget poly's edge table, if it has one, so that a polygon kept for
    its vertices alone holds no more than them; a later reader rebuilds it."""
    try:
        object.__delattr__(poly, "_edges")
    except AttributeError:
        pass


def _holds(poly: ConvexPolygon, p: Triple) -> bool:
    """True when the closed region poly holds the point p; the one membership test.

    A point region holds only itself.  A segment u < v holds p when p is on
    its line and u <= p <= v lexicographically.  A polygon's fan from vertex
    0 splits it into triangles; a binary search on the orientation of p to
    the fan's diagonals finds the one whose wedge holds p, and p is inside
    when it is on or left of that triangle's outer edge.
    """
    ts = poly._ts
    if len(ts) == 1:
        return ts == (p,)
    if len(ts) == 2:
        u, v = ts
        a, b, c = _line(u, v)
        x, y, w = p
        return a * x + b * y + c * w == 0 and _lex_cmp(u, p) <= 0 and _lex_cmp(p, v) <= 0
    # det[ts[0]; ts[k]; p] = (p x ts[0]) . ts[k], positive when p is left of
    # the diagonal ts[0] -> ts[k].
    a, b, c = _line(p, ts[0])
    lo, hi = 1, len(ts) - 1
    (x, y, w), (xh, yh, wh) = ts[lo], ts[hi]
    if a * x + b * y + c * w < 0 or a * xh + b * yh + c * wh > 0:
        return False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x, y, w = ts[mid]
        if a * x + b * y + c * w >= 0:
            lo = mid
        else:
            hi = mid
    a, b, c = _line(ts[lo], ts[hi])
    x, y, w = p
    return a * x + b * y + c * w >= 0


def segment(u: Point2, v: Point2) -> ConvexPolygon:
    """Segment (or point) through two points, canonical."""
    return convex_hull((u, v))


def _hull(points: Iterable[Triple]) -> tuple[Triple, ...]:
    """Canonical convex hull of triples: Andrew's monotone chain over the distinct points.

    Canonical triples of equal points are equal, so a set removes the
    duplicates.  The points are sorted by the float key (X/W, Y/W): int/int
    division is correctly rounded and so monotone, which means only
    neighbours with equal float x can be out of order, and those only when
    their float y tie or their exact x are reversed.  One scan of adjacent
    keys looks for such a pair, and only one found sends the list to the
    exact sort by cross-multiplication; columns of small integer points
    pass.  Each point keeps its key through either sort.  The chord from
    the first sorted point to the last splits the rest: points right of it
    can only be on the lower chain, points left of it only on the upper
    one, and points on it on neither.

    The split and the chains' turns are orientation tests, D = (bx - ax)
    (py - ay) - (by - ay)(px - ax) for points a, b, p.  Each is first
    evaluated on the keys, as the float D~, and the sign of D~ is taken
    when |D~| > tol = 2**-46 * B**2, B the largest |key| of the call; only
    the others build the exact line `_line(a, b)` and take the sign of its
    integer dot product with p.  The bound, with u = 2**-53: a correctly
    rounded key is within u|x| + 2**-1075 of its coordinate x, so each of
    the two float differences is within 4uB of its exact value (2uB from
    the keys, 2uB from its own rounding of a value up to 2B), each product
    of two differences up to 2B is within 2 * 2B * 4uB + 4uB**2 = 20uB**2,
    and the final subtraction adds u * 8B**2: |D~ - D| <= 48uB**2 plus
    terms of order u**2 * B**2 and 2**-1074 * B.  With 2**-400 <= B <=
    2**400 no product overflows, and a rounding to a subnormal, or the
    2**-1075 of a key, is below 2**-200 * uB**2, so 128uB**2 = tol leaves
    more than twice the bound: |D~| > tol means D != 0 with the sign of D~.
    This is the filtered predicate of Fortune and Van Wyk (1993) and
    Shewchuk (1997).  For a B outside that range tol is infinite, and so is
    it for keys beyond the float range, which are replaced by zeros (B =
    0): then neither D~ > tol nor D~ < -tol holds, not even for a D~ that
    overflowed to nan, so every test is exact.  The filter only decides
    signs it has proven, so the hull is the one the exact tests give.
    """
    distinct = set(points)
    if len(distinct) <= 1:
        return tuple(distinct)
    try:
        keyed = sorted([(x / w, y / w, (x, y, w)) for x, y, w in distinct])
    except OverflowError:
        keyed = [(0.0, 0.0, t) for t in sorted(distinct, key=_LEX_KEY)]
    else:
        fx, fy, (x, _, w) = keyed[0]
        for gx, gy, t in keyed[1:]:
            if gx == fx and (gy == fy or t[0] * w < x * t[2]):
                keyed.sort(key=lambda k: _LEX_KEY(k[2]))
                break
            fx, fy, (x, _, w) = gx, gy, t
    first, last = keyed[0], keyed[-1]
    big = max(abs(first[0]), abs(last[0]), max([abs(k[1]) for k in keyed]))
    tol = 2.0**-46 * big * big if 2.0**-400 <= big <= 2.0**400 else math.inf
    ax, ay, a = first
    dx, dy = last[0] - ax, last[1] - ay
    chord = None  # the exact line, built on the first undecided test
    below: list[Keyed] = []
    above: list[Keyed] = []
    for p in keyed[1:-1]:
        px, py, t = p
        side = dx * (py - ay) - dy * (px - ax)
        if not (side > tol or side < -tol):
            if chord is None:
                chord = _line(a, last[2])
            la, lb, lc = chord
            x, y, w = t
            side = la * x + lb * y + lc * w
        if side < 0:
            below.append(p)
        elif side > 0:
            above.append(p)
    lower = _chain([first, *below, last], tol)
    upper = _chain([last, *reversed(above), first], tol)
    return tuple([t for _, _, t in lower[:-1] + upper[:-1]])


def _chain(pts: Iterable[Keyed], tol: float) -> list[Keyed]:
    """One monotone chain: the keyed points kept so that every turn is strictly left.

    A turn is decided by the float orientation of its keys when that is
    beyond ``tol`` (see `_hull`), else by the exact line of the last kept
    edge, `_line` of its ends, dotted with the point.
    """
    chain: list[Keyed] = []
    for p in pts:
        px, py, t = p
        while len(chain) > 1:
            ax, ay, a = chain[-2]
            bx, by, b = chain[-1]
            turn = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if turn > tol:
                break
            if not turn < -tol:
                la, lb, lc = _line(a, b)
                x, y, w = t
                if la * x + lb * y + lc * w > 0:
                    break
            chain.pop()
        chain.append(p)
    return chain


def convex_hull(points: Iterable[Point2]) -> ConvexPolygon:
    """Convex hull via monotone chain with exact orientation predicates.

    Degenerate inputs yield the matching degenerate polygon: one distinct
    point gives a point, collinear points give the extreme segment, and an
    empty input is refused.  The chain runs on the points' integer triples.
    """
    ts = _hull(p._t for p in points)
    if not ts:
        raise ValueError(_NO_VERTEX)
    return _polygon(ts)


@dataclass(frozen=True, slots=True)
class PointSet:
    """Finite set of distinct points, stored sorted for determinism."""

    points: tuple[Point2, ...]
    # The points' triples, named as a polygon's vertex triples are, and the
    # hash of points, computed once: point sets key several caches, and
    # equal triples mean equal points.  The hull is kept on first use: a
    # closed-loop run takes it at every step.
    _ts: tuple[Triple, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _hull: Optional[ConvexPolygon] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(sorted(set(self.points)))
        if not pts:
            raise ValueError("point set must be non-empty")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_ts", tuple(p._t for p in pts))
        object.__setattr__(self, "_hash", hash((pts,)))
        object.__setattr__(self, "_hull", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PointSet:
            return NotImplemented
        return self._ts == other._ts

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
        hull = self._hull
        if hull is None:
            hull = _hull_of_triples(self._ts)
            object.__setattr__(self, "_hull", hull)
        return hull


# The caches of point-set data are keyed by the triples, not the PointSet: a
# later run that builds an equal but new set then finds its entry through a
# comparison of int tuples, with no Python-level __eq__.
@lru_cache(maxsize=8192)
def _hull_of_triples(ts: tuple[Triple, ...]) -> ConvexPolygon:
    return _polygon(_hull(ts))


def minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum of two convex polygons.

    Computed by merging the edge sequences in angular order (linear time),
    both from their vertex 0, emitting the sum of the current vertex pair
    before each step; the result has at most |p| + |q| vertices.  The edges
    come from the operands' edge tables.  The sum of the two smallest
    vertices is the smallest vertex of the sum, and parallel edges advance
    both sequences at once, so the output is already canonical: strictly
    convex, starting at its smallest vertex (a segment: its ends in order).
    Once one sequence is used up, the rest of the other meets the first's
    vertex 0.
    """
    pt, qt = p._ts, q._ts
    if len(pt) == 1:
        return _translated(q, pt[0])
    if len(qt) == 1:
        return _translated(p, qt[0])
    ep, eq = _edge_table(p)[0], _edge_table(q)[0]
    np_, nq = len(pt), len(qt)
    out = []
    i = j = 0
    while i < np_ and j < nq:
        out.append(_add(pt[i], qt[j]))
        h, dx, dy = ep[i]
        g, ex, ey = eq[j]
        order = g - h or dx * ey - dy * ex  # positive: p's edge comes first
        if order >= 0:
            i += 1
        if order <= 0:
            j += 1
    out += [_add(t, qt[0]) for t in pt[i:]]
    out += [_add(pt[0], t) for t in qt[j:]]
    return _polygon(tuple(out))


def _cut(verts: Sequence[Triple], plane: Triple) -> Sequence[Triple]:
    """One half-plane cut of a boundary list of triples.

    A list of one entry is a point, of two a segment (one edge), of more a
    strictly convex CCW polygon.  Entries with non-negative slack are kept
    in order, and every edge whose ends have strictly opposite slack signs
    adds its crossing point.  The input list itself is returned when
    nothing is cut.

    A line cuts one contiguous cyclic run of a strictly convex polygon's
    vertices away.  So the kept vertices are one cyclic slice, from just
    after the run to just before it, and the crossings lie on the two
    edges that leave those ends; an end with zero slack is on the line and
    adds none.
    """
    a, b, c = plane
    slacks = [c * w - a * x - b * y for x, y, w in verts]
    low = min(slacks)
    if low >= 0:
        return verts
    if max(slacks) < 0:
        return []
    n = len(verts)
    if n == 2:
        (u, v), (su, sv) = verts, slacks
        if su < 0:
            return [v] if sv == 0 else [_crossing(u, v, su, sv), v]
        return [u] if su == 0 else [u, _crossing(u, v, su, sv)]
    # The cut-away run is first ... last (cyclic), around the lowest slack.
    first = last = slacks.index(low)
    while slacks[first - 1] < 0:
        first -= 1
    while slacks[(last + 1) % n] < 0:
        last += 1
    first %= n
    last %= n
    before, after = (first - 1) % n, (last + 1) % n
    if after <= before:
        out = list(verts[after : before + 1])
    else:
        out = list(verts[after:]) + list(verts[: before + 1])
    if slacks[before] > 0:
        out.append(_crossing(verts[before], verts[first], slacks[before], slacks[first]))
    if slacks[after] > 0:
        out.append(_crossing(verts[last], verts[after], slacks[last], slacks[after]))
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


def _clip(verts: Sequence[Triple], planes: Iterable[Triple]) -> Sequence[Triple]:
    """The boundary list cut by every plane triple in turn, stopping once it is
    empty; the input list itself when nothing is cut."""
    for plane in planes:
        verts = _cut(verts, plane)
        if not verts:
            break
    return verts


def clip_all(polygon: ConvexPolygon, planes: Iterable[HalfPlane]) -> Optional[ConvexPolygon]:
    """polygon intersected with every half-plane; None once nothing is left.

    The output is never re-canonicalised.  After each cut the boundary list
    (kept vertices plus crossing points, in order) is already in canonical
    form up to rotation, because its input is strictly convex: crossing
    points lie strictly inside distinct edges and at most two points lie
    on the line.  If no kept vertex is strictly inside, the list is a
    single vertex or the two ends of an edge on the line.  Rotating the
    final list to its smallest vertex therefore gives the canonical
    polygon, segment or point.  A polygon no plane cuts is returned as it
    is.
    """
    original = polygon._ts
    verts = _clip(original, (h.ints for h in planes))
    if verts is original:
        return polygon
    if not verts:
        return None
    k = _lex_min(verts)
    return _polygon(tuple(verts[k:]) + tuple(verts[:k]))


def clip(polygon: ConvexPolygon, half_plane: HalfPlane) -> Optional[ConvexPolygon]:
    """`clip_all` with one plane, kept as a name the per-layer tracer looks up."""
    return clip_all(polygon, (half_plane,))


def _extremes(
    ts: Sequence[Triple], a: int, b: int
) -> tuple[tuple[Triple, int], tuple[Triple, int]]:
    """The first triples of ts at which (a*X + b*Y)/W is smallest and
    largest, each with its a*X + b*Y, compared by cross-multiplication."""
    lo = hi = ts[0]
    lo_s = hi_s = a * lo[0] + b * lo[1]
    for t in ts[1:]:
        s = a * t[0] + b * t[1]
        if s * lo[2] < lo_s * t[2]:
            lo, lo_s = t, s
        elif s * hi[2] > hi_s * t[2]:
            hi, hi_s = t, s
    return (lo, lo_s), (hi, hi_s)


def _scaled(ts: Sequence[Triple]) -> tuple[int, list[tuple[int, int]]]:
    """L, the lcm of the triples' W, and each point times L as an integer pair."""
    scale = math.lcm(*{w for _, _, w in ts})
    return scale, [(x * (scale // w), y * (scale // w)) for x, y, w in ts]


@lru_cache(maxsize=8192)
def _site_forms(ts: tuple[Triple, ...]) -> tuple[Triple, ...]:
    """The integer form (a_c, b_c, q_c) of f_c for each site c of the point
    set whose sorted triples are ts, computed once per set.

    With the sites scaled to integers (x_c, y_c) = L*c, L the lcm of their
    W, a point p = (X/W, Y/W) has L^2*W*(|p|^2 - |p - c|^2) = f_c(X, Y, W)
    = a_c*X + b_c*Y - q_c*W, a_c = 2*L*x_c, b_c = 2*L*y_c and q_c = x_c^2 +
    y_c^2.  One positive factor scales every site's, so f_c is larger
    exactly where c is nearer.
    """
    scale, scaled = _scaled(ts)
    return tuple((2 * scale * x, 2 * scale * y, x * x + y * y) for x, y in scaled)


def project_point_set(point_set: PointSet, z: Point2) -> Point2:
    """Closest point of a finite set, ties broken lexicographically.

    The closest sites are those of largest `_site_forms` score at z's
    triple.  The points are sorted, so the first of them is the
    lexicographically smallest.
    """
    x, y, w = z._t
    scores = [a * x + b * y - q * w for a, b, q in _site_forms(point_set._ts)]
    return point_set.points[scores.index(max(scores))]


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
    zt = z._t
    if len(ts) == 1:
        return z if ts[0] == zt else polygon.vertices[0]
    if _holds(polygon, zt):
        return z
    zx, zy, zw = zt
    n = len(ts)
    dirs = _edge_table(polygon)[0]
    best_num = best_den = 0
    best_t: Triple = zt
    best_vertex: Optional[int] = None
    for i in range(1 if n == 2 else n):
        j = (i + 1) % n
        ux, uy, uw = ts[i]
        vx, vy, vw = ts[j]
        _, dx, dy = dirs[i]
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

