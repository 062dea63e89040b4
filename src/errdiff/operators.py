"""Set operators for accumulated-error dynamics and their fixed-point iteration.

Each feasible set S has one operator per prediction discipline:

* perfect prediction: the error-set operator maps a region Q through
  ``ch( U_c ((ch S + Q) ∩ cell(c)) - c )``,
* persistent prediction: the modified-request operator maps a region D
  through ``ch( ch S + U_c ((D ∩ cell(c)) - c) )``,

where ``cell(c)`` is the Voronoi cell of c with respect to S.
`apply_collection` applies the convexified union over a collection's sets,
and `apply_member` is it for a collection of one set.

Feasible sets may be finite point sets or continuous convex polygons.
Either way S has cached cell data; `cell_pieces` returns each cell's piece
of a region R, and their union is ``U_c ((R ∩ cell(c)) - c)``.  No cell
takes a Minkowski sum.

A point set's cells are not clipped one at a time.  Its data are each
site's integer form f_c, larger exactly where c is nearer (the forms
`geometry._site_forms` that the projection scores by), its Voronoi
neighbours, and its Voronoi vertices with their incident sites.  One pass
labels every vertex of R with its nearest sites, walks each edge of R whose
end labels share no site from nearest site to nearest site, scanning only
the current site's neighbours, and adds the Voronoi vertices that lie in R
(nearest-site labelling; Aurenhammer, "Voronoi diagrams", ACM Comput.
Surv. 23(3), 1991).  The piece of c is the hull of the points c collected,
moved by -c.  Whether a Voronoi vertex lies in R, or in ch S, and whether
Q holds the origin, is `geometry._holds`.  A perfect-mode region R = ch S
+ Q with the origin in Q contains ch S, so the Voronoi vertices inside
ch S are taken without a test, and a convex member's meet piece below is
present.

A convex member's cells are:

* vertex cells: a vertex v of a polygon, a point member or a segment end,
  with its normal cone (no plane for a point, one for a segment end).  R
  is clipped by the planes, around v, and the kept vertices move by -v;
* edge cells: an edge [u, w], whose points c have the normal line through
  c as their cell.  R is cut to the slab d.u <= d.p <= d.w, d = w - u, and
  a kept point p maps to its offset from the edge line, t*n with n the
  edge's outer normal and t = n.(p - u) / |n|^2.  The piece is the segment
  over the extent of t on the kept vertices, cut to t >= 0 (the outer ray)
  for a polygon;
* the meet cell: the interior points of a member with two or more vertices
  have singleton cells, so their piece is {0} exactly when S meets R,
  which is when R clipped by the member's half-planes is non-empty.

A piece is a raw list of vertex triples, never made a canonical polygon:
one operator application takes a single hull over the points of all its
pieces.  A member of one point, a one-point set or a one-vertex polygon,
has the plane as its only cell, so both its operators are the identity and
its image is the region itself, with no sum and no piece.

Iterating either collection operator from a seed grows a monotone chain of
convex polygons whose limit is the minimal (convex) invariant set.  The
chain is exact: the iteration stops as soon as an image equals its iterate,
or as soon as an exact extrapolation of the chain's limit (minimal
polynomial extrapolation on its recent iterates) is verified to be a fixed
point that contains the seed.  A chain that outgrows the bit budget
restarts once from the newest extrapolation it refused, and a fixed point
reached from there is an answer too.  An iterate is scaled to integers
and floats for the extrapolation only once some stride reads it.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from itertools import chain, combinations, takewhile
from operator import mul
from typing import Literal, Optional, Sequence, Union

from .geometry import (
    ConvexPolygon,
    PointSet,
    Triple,
    _add,
    _clip,
    _crossing,
    _drop_edge_table,
    _edge_table,
    _extremes,
    _holds,
    _hull,
    _hull_of_triples,
    _line,
    _normalised,
    _polygon,
    _scaled,
    _site_forms,
    _text,
    minkowski_sum,
)

FeasibleSet = Union[PointSet, ConvexPolygon]
Mode = Literal["perfect", "persistent"]

MODES = ("perfect", "persistent")


def feasible_hull(feasible: FeasibleSet) -> ConvexPolygon:
    """Convex hull of a feasible set (identity for convex polygons)."""
    return feasible.hull() if isinstance(feasible, PointSet) else feasible


@dataclass(frozen=True)
class Collection:
    """A finite collection of possible feasible sets plus its prediction mode."""

    sets: tuple[FeasibleSet, ...]
    mode: Mode = "perfect"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets:
            raise ValueError("collection must contain at least one set")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class IterationConfig:
    """Stopping-rule parameters for the invariant-set iteration."""

    max_iterations: int = 1000
    # Abort (converged=False) once any coordinate's numerator or denominator
    # outgrows this many bits.  Arbitrary collections can drift toward
    # limits that extrapolation never catches, with representations
    # compounding every iteration; the budget turns that into a clean
    # non-convergence.
    max_coordinate_bits: int = 4096

    def __post_init__(self) -> None:
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.max_coordinate_bits < 16:
            raise ValueError("coordinate bit budget is unreasonably small")


StopStatus = Literal["converged", "extrapolated", "budget", "bits"]


@dataclass
class IterationResult:
    """Outcome of the fixed-point iteration.

    ``iterations`` counts the applications that strictly grew the iterate;
    it is reported for information only, since operation order can
    legitimately perturb it.  ``status`` says why the run stopped:

    * ``converged``: the image of the iterate equals it;
    * ``extrapolated``: the returned set is an extrapolated limit of the
      chain, verified to contain the seed and the last iterate and to be
      mapped to itself, or a fixed point reached by a chain restarted from
      such a limit (``iterations`` is the step it was found at, counting
      both chains);
    * ``budget``: the iteration budget ran out;
    * ``bits``: a coordinate outgrew the bit budget.

    ``converged`` and ``aborted`` are read from it: on ``converged`` and
    ``extrapolated`` the collection operator maps ``invariant_set`` to
    itself, and ``aborted`` means ``bits``.

    ``iterates`` is the exact chain from the seed, ending with the image
    equal to its iterate on ``converged`` and without the image over budget
    on ``bits``; a restarted chain adds none.  ``history_hashes`` (each
    iterate's `_digest`), ``vertex_counts``, ``inner`` and ``gap`` are
    derived from it when read.
    """

    invariant_set: ConvexPolygon
    iterations: int
    status: StopStatus
    iterates: list[ConvexPolygon] = field(default_factory=list, repr=False)
    # Always empty; perfbench/tracing.py still reads it.
    rounding_events = ()

    @property
    def converged(self) -> bool:
        return self.status in ("converged", "extrapolated")

    @property
    def aborted(self) -> bool:
        return self.status == "bits"

    @cached_property
    def history_hashes(self) -> list[str]:
        return [_digest(poly) for poly in self.iterates]

    @property
    def vertex_counts(self) -> list[int]:
        return [len(poly._ts) for poly in self.iterates]

    @property
    def inner(self) -> ConvexPolygon:
        """The last exact iterate; on ``converged`` and ``extrapolated`` it
        lies in the minimal invariant set, which lies in the answer."""
        return self.iterates[-1]

    @cached_property
    def gap(self) -> Optional[Fraction]:
        """The largest squared distance from an edge line of the answer to
        ``inner``, exact (`_gap`): along each of its edge normals the answer
        reaches at most the gap's square root beyond the minimal invariant
        set.  0 on ``converged``; None on ``budget`` and ``bits``, whose
        answer is not invariant."""
        if not self.converged:
            return None
        return _gap(self.invariant_set, self.inner)


def _gap(outer: ConvexPolygon, inner: ConvexPolygon) -> Fraction:
    """The largest squared distance from an edge line of outer to inner, for
    inner inside outer; 0 for a one-point outer.

    The line of the edge u -> v, `geometry._line(u, v)` = (a, b, c), has
    a*x + b*y + c*w >= 0 on outer and (-a, -b) as its outer normal, so the
    distance from it to inner is the smallest (a*x + b*y + c*w) / w over
    inner's vertices (`geometry._extremes`), divided by |(a, b)|, and its
    square is rational.  The squares stay integer pairs, compared by
    cross-multiplication, and only the widest becomes a Fraction.
    """
    ts = outer._ts
    if len(ts) == 1:
        return Fraction(0)
    num, den = 0, 1
    for u, v in zip(ts, ts[1:] + ts[:1]):
        a, b, c = _line(u, v)
        (low, low_s), _ = _extremes(inner._ts, a, b)
        w = low[2]
        n, d = (low_s + c * w) ** 2, w * w * (a * a + b * b)
        if n * den > num * d:
            num, den = n, d
    return Fraction(num, den)


class GeometryInconsistencyError(RuntimeError):
    """A step of the iteration violated guaranteed monotonicity."""


# ---------------------------------------------------------------------------
# Voronoi-cell pieces
# ---------------------------------------------------------------------------

# A vertex cell: the triple -v to translate by, and the planes of v's
# normal cone around v.  An edge cell [u, w]: the planes of its slab; its
# outer normal (nx, ny); with u = (X/W, Y/W), the integer nx*X + ny*Y, W and
# W*(nx^2 + ny^2); and whether its piece is cut to the outer ray.  Planes
# are coprime integer triples (A, B, C) of A*x + B*y <= C.
VertexCell = tuple[Triple, tuple[Triple, ...]]
EdgeCell = tuple[tuple[Triple, ...], int, int, int, int, int, bool]
Cells = tuple[tuple[VertexCell, ...], tuple[EdgeCell, ...], Optional[tuple[Triple, ...]]]
# A point set's sites c, in site order: the triples -c, the integer forms
# (a, b, q) of f_c and the sorted indices of c's Voronoi neighbours; and its
# Voronoi vertices p, each with the pairs (index of c, p - c) of its
# incident sites c, split into those in the closed hull ch S and the rest.
Corner = tuple[Triple, tuple[tuple[int, Triple], ...]]
Sites = tuple[
    tuple[Triple, ...], tuple[Triple, ...], tuple[tuple[int, ...], ...],
    tuple[Corner, ...], tuple[Corner, ...],
]

_ZERO: Triple = (0, 0, 1)


@lru_cache(maxsize=2048)
def _cells(member: FeasibleSet) -> Union[Cells, Sites]:
    """A point set's `Sites`, or a convex member's vertex cells, edge cells
    and meet planes; see the module docstring.

    Every plane is built from the member's triples and the directions d and
    lines of its edge table.  A vertex cell's planes are in the member's own
    frame, around v: the region is clipped first, and only the surviving
    vertices move.  The cone at v is d.q <= d.v for the outgoing edge and,
    in a polygon, -d.q <= -d.v for the incoming one; a segment's second
    edge runs back from its end.  The meet planes are the edge lines
    (a, b, c) as (-a, -b, c), a segment's also its slab, the end caps; None
    for a point member.
    """
    if isinstance(member, PointSet):
        return _sites(member._ts)
    ts = member._ts
    n = len(ts)
    if n == 1:
        ((x, y, w),) = ts
        return (((-x, -y, w), ()),), (), None
    dirs, lines = _edge_table(member)
    cones = []
    for i, v in enumerate(ts):
        _, dx, dy = dirs[i]
        cone = [_plane(dx, dy, v)]
        if n > 2:
            _, dx, dy = dirs[i - 1]
            cone.append(_plane(-dx, -dy, v))
        x, y, w = v
        cones.append(((-x, -y, w), tuple(cone)))
    edges = []
    for i in range(n if n > 2 else 1):
        # The slab d.u <= d.p <= d.w over the edge [u, w]; (dy, -dx) points out.
        _, dx, dy = dirs[i]
        u, w = ts[i], ts[(i + 1) % n]
        slab = (_plane(-dx, -dy, u), _plane(dx, dy, w))
        ux, uy, uw = u
        edges.append((slab, dy, -dx, dy * ux - dx * uy, uw, uw * (dx * dx + dy * dy), n > 2))
    meet = tuple(_normalised(-a, -b, c) for a, b, c in lines)
    if n == 2:
        meet += edges[0][0]
    return tuple(cones), tuple(edges), meet


def _plane(dx: int, dy: int, p: Triple) -> Triple:
    """The coprime triple of the half-plane d.q <= d.p, d = (dx, dy) != 0."""
    x, y, w = p
    return _normalised(dx * w, dy * w, dx * x + dy * y)


def _sites(ts: tuple[Triple, ...]) -> Sites:
    """The `Sites` of the point set whose sorted site triples are ts.

    The forms f_c are `geometry._site_forms`, the ones the projection
    scores by.  Every f_c is linear in the triple, so the point where three
    sites tie is the cross product of the planes f_i - f_j and f_i - f_k,
    and it is a Voronoi vertex when no site's f is larger there.

    No point is equidistant from three sites on one line, so a set on one
    line has no Voronoi vertex; its cells are strips in site order, and a
    site's neighbours are the sites just before and after it.  In any other
    set every Voronoi edge is a segment or a ray, so two sites whose cells
    meet are both incident to a Voronoi vertex, and a site's neighbours are
    the other sites incident to its vertices.  The vertices are split once,
    by the cached hull ch S, into those in it and the rest.
    """
    forms = _site_forms(ts)
    sweeps = tuple((-x, -y, w) for x, y, w in ts)
    corners: dict[Triple, tuple[tuple[int, Triple], ...]] = {}
    la, lb, lc = _line(ts[0], ts[-1])
    if any(la * x + lb * y + lc * w for x, y, w in ts):
        for i, j, k in combinations(range(len(ts)), 3):
            (ai, bi, qi), (aj, bj, qj), (ak, bk, qk) = forms[i], forms[j], forms[k]
            ux, uy, uq = ai - aj, bi - bj, qj - qi
            vx, vy, vq = ai - ak, bi - bk, qk - qi
            w = ux * vy - uy * vx
            if w == 0:
                continue
            x, y = uy * vq - uq * vy, uq * vx - ux * vq
            corner = _normalised(x, y, w) if w > 0 else _normalised(-x, -y, -w)
            if corner in corners:
                continue
            x, y, w = corner
            top = ai * x + bi * y - qi * w
            if all(a * x + b * y - q * w <= top for a, b, q in forms):
                corners[corner] = tuple(
                    (s, _add(corner, sweeps[s]))
                    for s, (a, b, q) in enumerate(forms)
                    if a * x + b * y - q * w == top
                )
    n = len(ts)
    links = [set() if corners else {d for d in (c - 1, c + 1) if 0 <= d < n} for c in range(n)]
    hull = _hull_of_triples(ts)
    inner, outer = [], []
    for corner, moved in corners.items():
        for c, _ in moved:
            links[c].update(d for d, _ in moved if d != c)
        (inner if _holds(hull, corner) else outer).append((corner, moved))
    return sweeps, forms, tuple(tuple(sorted(s)) for s in links), tuple(inner), tuple(outer)


def _extent(kept: Sequence[Triple], cell: EdgeCell) -> list[Triple]:
    """The edge cell's piece {t*n} over the kept vertices of the region's slab.

    A point p = (X/W, Y/W) of the slab maps to p - q, q its foot on the
    edge line: t*n with t = n.(p - u) / |n|^2.  With C = n.u*Wu, an
    integer, t*|n|^2*Wu*W is k = (nx*X + ny*Y)*Wu - C*W, so t orders as
    (nx*X + ny*Y) / W, has the sign of k, and t*n is the triple
    (k*nx, k*ny, W*Wu*|n|^2).  The extremes of t over the kept vertices,
    `geometry._extremes`, bound the piece; an outer edge keeps t >= 0.
    """
    _, nx, ny, c, uw, scale, outer = cell
    (lo, lo_s), (hi, hi_s) = _extremes(kept, nx, ny)
    k_hi = hi_s * uw - c * hi[2]
    if outer and k_hi < 0:
        return []
    k_lo = lo_s * uw - c * lo[2]
    ends = [_normalised(k_hi * nx, k_hi * ny, hi[2] * scale)]
    if outer and k_lo < 0:
        ends.append(_ZERO)
    elif lo is not hi:
        ends.append(_normalised(k_lo * nx, k_lo * ny, lo[2] * scale))
    return ends


def cell_pieces(
    feasible: FeasibleSet, region: ConvexPolygon, *, covers_hull: bool = False
) -> list[Sequence[Triple]]:
    """The non-empty convex pieces (region ∩ cell(c)) - c over the cells of S.

    Each piece is a raw list of vertex triples whose hull is the piece, in
    no particular order: a site's is what `_site_pieces` collected for it,
    a vertex cell's its clipped region, each translated by -c, an edge
    cell's the ends of its segment, and the meet piece [0].

    covers_hull says that the caller knows region to contain ch S, as a
    perfect-mode region ch S + Q does when Q holds the origin.  Then the
    Voronoi vertices in ch S are in region, and S ∩ region = S is not
    empty, so neither is tested.  By default every one is.
    """
    ts = region._ts
    cells = _cells(feasible)
    if isinstance(feasible, PointSet):
        return _site_pieces(cells, region, covers_hull)
    pieces = []
    cones, edges, meet = cells
    for sweep, planes in cones:
        piece = _clip(ts, planes)
        if piece:
            pieces.append([_add(t, sweep) for t in piece])
    for cell in edges:
        kept = _clip(ts, cell[0])
        if kept:
            piece = _extent(kept, cell)
            if piece:
                pieces.append(piece)
    if meet is not None and (covers_hull or _clip(ts, meet)):
        pieces.append([_ZERO])
    return pieces


def _site_pieces(sites: Sites, region: ConvexPolygon, covers_hull: bool) -> list[list[Triple]]:
    """The pieces (R ∩ cell(c)) - c of a point set's sites, in site order.

    R ∩ cell(c) is the hull of its vertices: the vertices of R nearest to c,
    the points where the boundary of R enters or leaves cell(c), and the
    Voronoi vertices of c inside R.  Each vertex of R is scored once by
    every f_c and goes to each site of largest score, its label.  An edge
    whose end labels share a site s lies in cell(s), and any other site
    whose cell meets it inside ties with s along all of it, so its ends are
    all such a site needs.  Every other edge is walked by `_walk`.  A
    Voronoi vertex in the closed region R goes to all its incident sites;
    the walk leaves some of those on the boundary to it.  When R covers
    ch S, the vertices in ch S go to their sites untested.
    """
    sweeps, forms, nbrs, inner, outer = sites
    ts = region._ts
    found: list[list[Triple]] = [[] for _ in sweeps]
    scores = [[a * x + b * y - q * w for a, b, q in forms] for x, y, w in ts]
    labels = []
    for t, f in zip(ts, scores):
        top = max(f)
        if f.count(top) == 1:
            label = (f.index(top),)
        else:
            label = tuple(c for c, v in enumerate(f) if v == top)
        for c in label:
            found[c].append(t)
        labels.append(label)
    m = len(ts)
    for i in range(m if m > 2 else m - 1):
        j = (i + 1) % m
        start, end = labels[i], labels[j]
        if start != end and set(start).isdisjoint(end):
            _walk(ts[i], ts[j], scores[i], scores[j], start, end, nbrs, found)
    pieces = [[_add(t, sweep) for t in piece] for piece, sweep in zip(found, sweeps)]
    for corners, known in ((inner, covers_hull), (outer, False)):
        for corner, moved in corners:
            if known or _holds(region, corner):
                for c, t in moved:
                    pieces[c].append(t)
    return [piece for piece in pieces if piece]


def _walk(
    u: Triple,
    v: Triple,
    fu: list[int],
    fv: list[int],
    start: tuple[int, ...],
    end: tuple[int, ...],
    nbrs: tuple[tuple[int, ...], ...],
    found: list[list[Triple]],
) -> None:
    """Give each point where the nearest site changes along u -> v to the sites tied there.

    On the triples p(s) = (1 - s)*u + s*v, 0 <= s <= 1, which run from u
    to v, every f_c is linear: f_c(u) + s*(f_c(v) - f_c(u)).  The nearest
    site leaves u as the site of u's label largest at v.  From site c the
    next change is at the smallest s where a neighbour d of larger slope
    overtakes c, s = (f_c(u) - f_d(u)) / (slope_d - slope_c), compared by
    cross-multiplication; the point goes to c and every d that overtakes
    there, and the walk goes on from the largest of those at v until its
    site is in v's label.  A site tied with c all along the edge ties with
    it at such a point too, which is then a Voronoi vertex of three sites.

    Only c's neighbours, in site order, are scanned, and only their slopes
    computed.  That is exact: c is nearest up to the first point z where
    any site overtakes it, and every site tied with c at z is then nearest
    at z too, so its cell meets cell(c) at z and it is a neighbour.  So the
    first overtake, and the sites tied there, are the same over the
    neighbours as over all sites.
    """
    site = start[0] if len(start) == 1 else max(start, key=fv.__getitem__)
    while site not in end:
        lead, rise = fu[site], fv[site] - fu[site]
        tied: list[int] = []
        for c in nbrs[site]:
            slope = fv[c] - fu[c]
            if slope > rise:
                gain, gap = slope - rise, lead - fu[c]
                if not tied or gap * den < num * gain:
                    num, den, tied = gap, gain, [c]
                elif gap * den == num * gain:
                    tied.append(c)
        point = _crossing(u, v, num, num - den)
        found[site].append(point)
        for c in tied:
            found[c].append(point)
        site = tied[0] if len(tied) == 1 else max(tied, key=fv.__getitem__)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _member_pieces(
    member: FeasibleSet, region: ConvexPolygon, mode: Mode, covers_hull: bool
) -> list[Sequence[Triple]]:
    """Vertex lists whose hull is the image of region under member's operator.

    covers_hull is true when every perfect-mode fattened region ch S +
    region contains ch S, which is when region holds the origin.  A
    persistent image, ch S + the hull of the cell pieces of region, is one
    list: the vertices of a Minkowski sum, already a canonical polygon,
    which `apply_collection` therefore takes as it is for a collection of
    one member.

    A member of one point c has the plane as its only cell, so its image is
    the region itself: (c + Q) - c = Q in perfect mode, {c} + (D - c) = D in
    persistent mode.  It is returned as it is, without a sum or a piece.
    """
    if len(member._ts) == 1:
        return [region._ts]
    if mode == "perfect":
        fattened = minkowski_sum(feasible_hull(member), region)
        return cell_pieces(member, fattened, covers_hull=covers_hull)
    inner = _polygon(_hull(chain.from_iterable(cell_pieces(member, region))))
    return [minkowski_sum(feasible_hull(member), inner)._ts]


def apply_member(member: FeasibleSet, region: ConvexPolygon, mode: Mode) -> ConvexPolygon:
    """One application of a single feasible set's operator in the given mode."""
    return apply_collection(Collection((member,), mode), region)


def apply_collection(collection: Collection, region: ConvexPolygon) -> ConvexPolygon:
    """Convexified union of the per-set operator results.

    Computed as one hull over the pieces of every member, which equals the
    hull of the per-set hulls.  Whether region holds the origin is tested
    once, for every member.  The persistent image of a single member is its
    one canonical list, taken without a hull.
    """
    mode, sets = collection.mode, collection.sets
    covers_hull = mode == "perfect" and _holds(region, _ZERO)
    pieces = [_member_pieces(member, region, mode, covers_hull) for member in sets]
    if len(sets) == 1 and mode == "persistent":
        return _polygon(pieces[0][0])
    return _polygon(_hull(chain.from_iterable(chain.from_iterable(pieces))))


def _digest(poly: ConvexPolygon) -> str:
    """The sha256 prefix of poly's vertices as `geometry._text` writes them."""
    return hashlib.sha256(_text(poly._ts).encode("ascii")).hexdigest()[:16]


def _within_bits(poly: ConvexPolygon, max_bits: int) -> bool:
    """True when no coordinate's numerator or denominator, in lowest terms,
    has more than max_bits bits.

    Lowest terms X/g and W/g are never longer than X and W, so the gcds run
    only when some raw X, Y or W of the triples is over the budget.  No
    value is written out in decimal, so no size is too large to count.
    """
    if max(map(int.bit_length, chain.from_iterable(poly._ts))) <= max_bits:
        return True
    for x, y, w in poly._ts:
        for c in (x, y):
            g = math.gcd(c, w)
            if (c // g).bit_length() > max_bits or (w // g).bit_length() > max_bits:
                return False
    return True


# ---------------------------------------------------------------------------
# Extrapolated limits
# ---------------------------------------------------------------------------

# Strides s and degrees m the extrapolation tries.  The window holds the
# (m + 1) * s + 1 newest iterates that the largest of them reads.  Without
# restarts, every extrapolated answer measured on family3, the benchmark
# population and operator-properties came from (1, 2), (2, 1) or (2, 2),
# and a search up to (4, 4) answered no collection that these miss.  Seed-1
# collections 2 and 38 of the benchmark population certify after a restart
# (see `iterate_to_invariance`) through a stride-2, degree-3 candidate.
_MAX_STRIDE = 2
_MAX_DEGREE = 3
_WINDOW = (_MAX_DEGREE + 1) * _MAX_STRIDE + 1


def _mpe_limit(samples: Sequence[tuple[int, Sequence[int]]]) -> Optional[tuple[list[int], int]]:
    """Exact minimal polynomial extrapolation (Cabay & Jackson, 1976).

    samples are m + 2 pairs (d, X): the vectors x_j = X_j / d_j.  The
    weights c_0 ... c_m, c_m = 1, must satisfy sum_j c_j (x_{j+1} - x_j) = 0
    in every coordinate.  The rows, one per coordinate, are built over the
    common denominator and eliminated one by one, fraction-free: a row that
    reduces to 0 = r with r != 0 is inconsistent and ends the solve.  Once
    m rows are independent the weights are unique; they are back-substituted
    then, and each later row holds exactly when its dot product with them is
    0, so it is checked by that one product instead of being reduced.  The
    limit is sum_j c_j x_j / sum_j c_j, returned as (numerators, den) with
    coordinate i equal to numerators[i] / den.  None when the system is
    inconsistent or the weights sum to 0.

    Fewer than m independent rows leave the weights undetermined, and the
    solve falls back to degree m - 1, on the m + 1 newest samples.  That is
    what every degree up to m decides together (the padding lemma): a
    solution of degree k < m, padded with m - k leading zero weights, solves
    degree m.  So when degree m is inconsistent, so is every lower degree;
    when its weights are unique with j leading zeros, degrees m - j ... m
    have the same weights, zero-padded, hence the same limit, and every
    lower degree is inconsistent (a solution there would pad to a second one
    of degree m).  Only an undetermined system says nothing of the degrees
    below it.
    """
    m = len(samples) - 2
    common = math.lcm(*(d for d, _ in samples))
    scaled = [(common // d, xs) for d, xs in samples]
    pivots: list[tuple[int, list[int]]] = []
    check: Optional[list[int]] = None
    for i in range(len(samples[0][1])):
        if check is not None:
            if sum(map(mul, check, (xs[i] for _, xs in scaled))):
                return None
            continue
        vals = [k * xs[i] for k, xs in scaled]
        r = [b - a for a, b in zip(vals, vals[1:])]
        for col, p in pivots:
            if r[col]:
                f, g = p[col], r[col]
                r = [f * a - g * b for a, b in zip(r, p)]
        lead = next((k for k in range(m) if r[k]), None)
        if lead is None:
            if r[m]:
                return None
            continue
        g = math.gcd(*r)
        pivots.append((lead, [a // g for a in r]))
        if len(pivots) == m:
            weights = _back_substitute(pivots, m)
            # sum_j c_j (x_{j+1} - x_j) = sum_j (c_{j-1} - c_j) x_j, over
            # the common denominator, with c_{-1} = c_{m+1} = 0.
            check = [
                k * (a - b) for (k, _), a, b in zip(scaled, [0, *weights], [*weights, 0])
            ]
    if check is None:
        return _mpe_limit(samples[1:]) if m > 1 else None
    total = sum(weights)
    if total == 0:
        return None
    if total < 0:
        weights, total = [-w for w in weights], -total
    weights = [w * k for w, (k, _) in zip(weights, scaled)]
    columns = zip(*(xs for _, xs in scaled))
    return [sum(map(mul, weights, c)) for c in columns], total * common


def _back_substitute(pivots: list[tuple[int, list[int]]], m: int) -> list[int]:
    """Integer weights (c_0 ... c_m) * D, c_m = 1, from m independent pivot rows.

    Each pivot row is zero in the lead columns of the rows before it.  The
    weights stay integers over a common scale: c[col] = -rest / p[col]
    scales them by p[col], and the primitive vector with c_m > 0 is returned.
    """
    c = [0] * m + [1]
    for col, p in reversed(pivots):
        rest = sum(map(mul, p, c))
        c = [p[col] * a for a in c]
        c[col] = -rest
    g = math.gcd(*c) if c[m] > 0 else -math.gcd(*c)
    return [a // g for a in c]


def _shift_to(flat: list[int], newest: list[int]) -> Optional[int]:
    """The cyclic vertex shift of flat nearest to newest, or None on a tie.

    The summed squared displacement differs from minus twice the summed dot
    product by a shift-independent constant, so the shift with the largest
    integer dot product is the nearest.
    """
    dots = _cyclic_dots(flat, newest)
    best = max(dots)
    return None if dots.count(best) > 1 else 2 * dots.index(best)


def _cyclic_dots(xs: Sequence, ys: Sequence) -> list:
    """ys dotted with xs under each cyclic vertex shift (two coordinates a step).

    Shift k pairs xs[k + i], cyclically, with ys[i]: one sum over the
    doubled list, which `map` stops at the end of ys.
    """
    doubled = [*xs, *xs]
    return [sum(map(mul, doubled[k:], ys)) for k in range(0, len(xs), 2)]


# Float coordinates are screened only inside [2**-500, 2**500] (or 0), so no
# product or sum of them underflows or overflows.
_FLOAT_RANGE = (2.0**-500, 2.0**500)


def _floats(d: int, flat: list[int]) -> Optional[tuple[list[float], float]]:
    """flat / d as correctly rounded floats and their Euclidean norm, or None
    when a coordinate lies outside `_FLOAT_RANGE`."""
    try:
        xs = [x / d for x in flat]
    except OverflowError:
        return None
    lo, hi = _FLOAT_RANGE
    # A non-zero coordinate must stay non-zero: 0.0 fails the range too.
    if any(not lo <= abs(x) <= hi for x, exact in zip(xs, flat) if exact):
        return None
    return xs, math.sqrt(sum(x * x for x in xs))


def _screened_shift(
    floats: tuple[list[float], float], newest: tuple[list[float], float]
) -> Optional[int]:
    """The shift `_shift_to` returns, when a float screen can certify it; else None.

    With u = 2**-53, each rounded coordinate is within u of the exact one,
    relatively, and `_FLOAT_RANGE` keeps every product and sum normal.  So
    a float dot product of n terms is within (gamma_n + 2u / (1 - u)^2)
    * sum |x_i * y_i| <= (n + 3) * u * |x| * |y| of the exact one (Higham,
    "Accuracy and Stability of Numerical Algorithms", section 3.1, and
    Cauchy-Schwarz; |x| is the same for every shift).  The bound used,
    (n + 8) * 2u times the float norms, is more than twice that, which also
    covers the rounding of the norms and of the final subtraction.  When
    the float argmax beats every other shift by more than twice the bound,
    its exact dot product is the unique largest, as in Shewchuk's filtered
    predicates; anything closer is left to the exact search.
    """
    xs, xnorm = floats
    ys, ynorm = newest
    dots = _cyclic_dots(xs, ys)
    bound = (len(xs) + 8) * 2.0**-52 * xnorm * ynorm
    best = max(dots)
    k = dots.index(best)
    runner_up = max(dots[:k] + dots[k + 1 :], default=-math.inf)
    return 2 * k if best - runner_up > 2 * bound else None


def _slot(entry: list) -> tuple[int, list[int], Optional[tuple[list[float], float]]]:
    """A window entry [poly, slot]'s slot, filled on first read: the common
    denominator d of poly's vertex coordinates, the coordinates x0, y0, x1,
    y1, ... over d and their `_floats` or None."""
    if entry[1] is None:
        d, scaled = _scaled(entry[0]._ts)
        flat = list(chain.from_iterable(scaled))
        entry[1] = d, flat, _floats(d, flat)
    return entry[1]


def _extrapolate(
    collection: Collection, window: deque, max_bits: int
) -> Optional[tuple[ConvexPolygon, bool]]:
    """MPE on the window of the newest iterates: the newest candidate that
    contains the newest iterate and fits the bit budget, and whether the
    collection operator maps it to itself; None when no candidate does.

    Every stride s reads the iterates s apart that end at the newest one, as
    far back as the window holds them, their vertex counts agree with the
    newest's (checked before any of them is read) and a degree m needs them
    (m + 2 of them, with more rows than unknowns and m up to `_MAX_DEGREE`).
    Each is aligned to the newest by its nearest cyclic vertex shift, which
    a float screen certifies where it can and `_shift_to` decides exactly
    where it cannot; the first one, newest first, that has no unique nearest
    shift ends the stride's samples there.  The window holds [iterate, slot]
    entries, and an iterate is scaled into its slot (`_slot`) the first time
    a stride reads it, so one that none reads is never scaled.

    One `_mpe_limit` solve at the largest degree the samples allow decides
    the stride: by the padding lemma in its docstring it returns exactly
    the one candidate that any degree of the stride, tried from 1 upward,
    would.  A candidate is the hull of the extrapolated vertices; it is
    refused when the hull is over the bit budget or does not contain the
    newest iterate.
    The strides are tried in order: the first candidate the operator maps
    to itself is returned with True, or else the last one with False.

    The chain grows, so the newest iterate contains the seed, and so does
    the candidate.  Since the operator is monotone, a candidate it maps to
    itself contains every iterate of the chain, so it is an exact fixed
    point containing the minimal invariant set.  One it does not map to
    itself still contains the seed, so a chain restarted from it that
    reaches a fixed point reaches one containing the minimal invariant set.
    """
    newest = window[-1][0]
    count, last = len(newest._ts), len(window) - 1
    aligned: dict[int, Optional[tuple[int, list[int]]]] = {}

    def sample(idx: int) -> Optional[tuple[int, list[int]]]:
        if idx not in aligned:
            d, flat, floats = _slot(window[idx])
            if idx == last:
                # The newest iterate's vertices are distinct, so shift 0 is
                # its own unique nearest shift.
                aligned[idx] = d, flat
                return aligned[idx]
            _, newest_flat, newest_floats = _slot(window[last])
            k = None
            if floats is not None and newest_floats is not None:
                k = _screened_shift(floats, newest_floats)
            if k is None:
                k = _shift_to(flat, newest_flat)
            aligned[idx] = None if k is None else (d, flat[k:] + flat[:k])
        return aligned[idx]

    # Rows (two per vertex) must outnumber the unknowns, or some weights
    # always fit.
    degree = min(_MAX_DEGREE, 2 * count - 1)
    refused = None
    for s in range(1, _MAX_STRIDE + 1):
        # Newest first: the vertex counts are checked before any iterate is
        # read, and reading stops at the first that has no unique shift.
        picks = range(last, max(-1, last - s * (degree + 2)), -s)
        agreeing = list(takewhile(lambda i: len(window[i][0]._ts) == count, picks))
        if len(agreeing) < 3:
            continue
        samples = list(takewhile(lambda x: x is not None, map(sample, agreeing)))
        if len(samples) < 3:
            continue
        limit = _mpe_limit(samples[::-1])
        if limit is None:
            continue
        nums, den = limit
        points = [_normalised(nums[i], nums[i + 1], den) for i in range(0, len(nums), 2)]
        candidate = _polygon(_hull(points))
        if not (_within_bits(candidate, max_bits) and candidate.contains_polygon(newest)):
            continue
        if apply_collection(collection, candidate) == candidate:
            return candidate, True
        refused = candidate, False
    return refused


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


def _chain(
    collection: Collection,
    start: ConvexPolygon,
    iterates: list[ConvexPolygon],
    budget: int,
    max_bits: int,
) -> tuple[ConvexPolygon, int, StopStatus, Optional[ConvexPolygon]]:
    """Iterate from start for at most budget steps, appending each image
    within the bit budget to iterates: (answer, iterations, status, restart).

    The iterates form a growing chain, checked exactly each step (a
    violation means a geometry bug and raises), so an iterate that is not a
    fixed point is never applied again.  The loop drops the edge table of
    each iterate it replaces, so a kept chain costs its vertices only.  It
    keeps the newest `_WINDOW` iterates, each with an empty slot for its
    scaled coordinates, and after each step `_extrapolate` tries to guess
    the chain's limit from them.  restart is the newest candidate it
    returned that the operator does not map to itself.
    """
    current, restart = start, None
    window = deque([[start, None]], maxlen=_WINDOW)
    for step in range(1, budget + 1):
        grown = apply_collection(collection, current)
        if not grown.contains_polygon(current):
            raise GeometryInconsistencyError(
                f"iterate {step} does not contain its predecessor"
            )
        if not _within_bits(grown, max_bits):
            return current, step, "bits", restart
        iterates.append(grown)
        if grown == current:
            return current, step - 1, "converged", None
        _drop_edge_table(current)
        current = grown
        window.append([current, None])
        found = _extrapolate(collection, window, max_bits)
        if found is not None:
            candidate, invariant = found
            if invariant:
                return candidate, step, "extrapolated", None
            restart = candidate
    return current, budget, "budget", restart


def iterate_to_invariance(
    collection: Collection,
    seed: ConvexPolygon,
    config: IterationConfig = IterationConfig(),
) -> IterationResult:
    """Iterate the collection operator from a seed until an image equals its
    iterate or an extrapolated limit is verified.

    The exact chain from the seed (`_chain`) stops on a fixed point, a
    verified extrapolated limit, the iteration budget or the bit budget.  On
    the bit budget it restarts once from the newest candidate its
    extrapolation refused as not invariant, with a fresh window and the
    steps left in the budget: that candidate contains the newest iterate of
    its step, hence the seed, and the operator is extensive, so a fixed
    point the restarted chain reaches contains the seed and is invariant,
    hence contains the minimal invariant set (Cousot & Cousot, "Constructive
    versions of Tarski's fixed point theorems", Pacific J. Math. 82(1),
    1979).  It is returned with status ``extrapolated`` and the steps of
    both chains; a restarted chain that stops any other way is dropped, and
    the exact chain's ``bits`` answer stands.  ``iterates`` is always the
    exact chain.  The loop drops the edge table of every polygon the result
    holds.
    """
    max_bits = config.max_coordinate_bits
    iterates = [seed]
    answer, iterations, status, restart = _chain(
        collection, seed, iterates, config.max_iterations, max_bits
    )
    if status == "bits" and restart is not None:
        limit, steps, how, _ = _chain(
            collection, restart, [restart], config.max_iterations - iterations, max_bits
        )
        if how in ("converged", "extrapolated"):
            answer, iterations, status = limit, iterations + steps, "extrapolated"
    for poly in (answer, seed, *iterates[-2:]):
        _drop_edge_table(poly)
    return IterationResult(answer, iterations, status, iterates)


def check_invariance(collection: Collection, candidate: ConvexPolygon) -> bool:
    """True exactly when every per-set operator maps candidate into itself.

    The candidate is convex, so it contains every member's image exactly
    when it contains the hull of their union, the collection image.
    """
    return candidate.contains_polygon(apply_collection(collection, candidate))


# ---------------------------------------------------------------------------
# Monotone families of convex sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneFamilyReport:
    ok: bool
    candidate: Optional[ConvexPolygon]
    reason: str = ""


def _inclusion(a: ConvexPolygon, b: ConvexPolygon) -> int:
    """Order a before b when b contains a; a total order on a chain."""
    if a == b:
        return 0
    return -1 if b.contains_polygon(a) else 1


def verify_monotone_family(family: Sequence[ConvexPolygon]) -> MonotoneFamilyReport:
    """Check the sufficient conditions under which the largest member of a
    nested family of convex sets is invariant for the persistent dynamics.

    The family must be totally ordered by inclusion, and for each member S
    the closure condition ``x + y - proj_S(y) in S_max`` must hold for all
    x in S and y in S_max.  The persistent operator of S maps S_max to the
    hull of exactly these points, so the condition is checked exactly as
    the persistent-mode invariance of S_max under the family.

    Nestedness takes O(n log n) containment tests, not one per pair: the
    members are sorted as if inclusion were a total order, and the family
    is nested exactly when each sorted member contains the one before it.
    Any sorted order in which it does is a chain, by transitivity, and a
    chain sorts into one.  The last member is then the largest.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be non-empty")
    ordered = sorted(members, key=cmp_to_key(_inclusion))
    if not all(b.contains_polygon(a) for a, b in zip(ordered, ordered[1:])):
        return MonotoneFamilyReport(False, None, "family is not nested")
    largest = ordered[-1]
    if not check_invariance(Collection(tuple(members), "persistent"), largest):
        return MonotoneFamilyReport(False, None, "closure condition fails")
    return MonotoneFamilyReport(True, largest, "")
