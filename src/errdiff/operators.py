"""Set operators for accumulated-error dynamics and their fixed-point iteration.

Each feasible set S has one operator per prediction discipline:

* perfect prediction: the error-set operator maps a region Q through
  ``ch( U_c ((ch S + Q) ∩ cell(c)) - c )``,
* persistent prediction: the modified-request operator maps a region D
  through ``ch( ch S + U_c ((D ∩ cell(c)) - c) )``,

where ``cell(c)`` is the Voronoi cell of c with respect to S.
`apply_member` applies one of them and `apply_collection` the convexified
union over a collection's sets.

Feasible sets may be finite point sets or continuous convex polygons.
Either way S has a cached list of cells, each a pair (sweep, planes) whose
piece of a region R is ``(R + sweep) ∩ planes``; `cell_pieces` returns
them, and their union is ``U_c ((R ∩ cell(c)) - c)``:

* a site c of a point set: the point -c, and the facet bisectors of
  cell(c) shifted by -c;
* a vertex v of a polygon, a point member or a segment end: the point -v,
  and the normal cone at v moved to the origin (no plane for a point, one
  for a segment end);
* an edge [u, w]: the segment [-u, -w], and the normal line through the
  origin, cut to its outer ray for a polygon;
* the interior points of a member with two or more vertices (their cells
  are singletons): the reflected member -S, and the point 0, so the piece
  is {0} exactly when S meets R.

Iterating either collection operator from a seed grows a monotone chain of
convex polygons whose limit is the minimal (convex) invariant set; the
iteration stops as soon as the canonical vertex representation repeats.  A
conditional per-coordinate rounding step can snap coordinates that creep
toward simple fractions, which is what makes the exact iteration terminate
in practice.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Optional, Sequence, Union

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    HalfPlane,
    PointSet,
    RationalLike,
    Triple,
    _hull,
    _normalised,
    _polygon,
    as_fraction,
    clip_all,
    convex_hull,
    hull_of_polygons,
    minkowski_sum,
    segment,
    voronoi_cell,
)
from .intervals import IntervalUnion

FeasibleSet = Union[PointSet, ConvexPolygon]
Mode = Literal["perfect", "persistent"]

MODES = ("perfect", "persistent")


def feasible_hull(feasible: FeasibleSet) -> ConvexPolygon:
    """Convex hull of a feasible set (identity for convex polygons)."""
    if isinstance(feasible, PointSet):
        return feasible.hull()
    if feasible.is_empty:
        raise ValueError("feasible set must be non-empty")
    return feasible


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
        for member in self.sets:
            if isinstance(member, ConvexPolygon) and member.is_empty:
                raise ValueError("collection members must be non-empty")


# The finite menu of proper fractions that conditional rounding may snap a
# coordinate's fractional part to: every denominator up to 6, sorted.
SNAP_FRACTIONS: tuple[Fraction, ...] = tuple(
    sorted({Fraction(num, den) for den in range(1, 7) for num in range(den)})
)

DEFAULT_EPSILON = Fraction(1, 10**8)


@dataclass(frozen=True)
class IterationConfig:
    """Stopping-rule parameters for the invariant-set iteration.

    ``epsilon`` is the tolerance within which conditional rounding snaps a
    coordinate to the ``SNAP_FRACTIONS`` menu; at 0 rounding changes
    nothing, so it is skipped.  Rounding never touches the seed.
    """

    epsilon: Fraction = DEFAULT_EPSILON
    max_iterations: int = 1000
    # Abort (converged=False) once any coordinate's numerator or denominator
    # outgrows this many bits.  Arbitrary collections can drift toward
    # limits the snap menu never catches, with representations compounding
    # every iteration; the budget turns that into a clean non-convergence.
    max_coordinate_bits: int = 4096
    # epsilon as (numerator, denominator), read by the integer snap.
    _epsilon_ratio: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(
            self, "_epsilon_ratio", (self.epsilon.numerator, self.epsilon.denominator)
        )
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.max_coordinate_bits < 16:
            raise ValueError("coordinate bit budget is unreasonably small")


@dataclass(frozen=True)
class RoundingEvent:
    iteration: int
    vertex: int
    coordinate: str
    before: Fraction
    after: Fraction


StopStatus = Literal["converged", "budget", "cycle", "bits", "rounding-stall"]


@dataclass
class IterationResult:
    """Outcome of the fixed-point iteration.

    ``iterations`` counts the applications that strictly grew the iterate;
    it is reported for information only, since operation order and rounding
    schedule can legitimately perturb it.  When ``converged`` is true the
    collection operator maps ``invariant_set`` to itself.  ``status`` says
    why the run stopped:

    * ``converged``: the unrounded image equals the iterate;
    * ``budget``: the iteration budget ran out;
    * ``cycle``: rounding brought back an iterate older than the last one;
    * ``bits``: a coordinate outgrew the bit budget (``aborted``);
    * ``rounding-stall``: rounding alone mapped the iterate to itself.
    """

    invariant_set: ConvexPolygon
    iterations: int
    converged: bool
    status: StopStatus
    rounding_events: list[RoundingEvent] = field(default_factory=list)
    history_hashes: list[str] = field(default_factory=list)
    vertex_counts: list[int] = field(default_factory=list)
    aborted: bool = False  # coordinate representations outgrew the budget


class GeometryInconsistencyError(RuntimeError):
    """A step of the iteration violated guaranteed monotonicity."""


# ---------------------------------------------------------------------------
# Voronoi-cell pieces
# ---------------------------------------------------------------------------

Cell = tuple[ConvexPolygon, tuple[HalfPlane, ...]]

# The point 0 as half-planes: a sweep clipped by them is {0} or empty.
_ORIGIN_PLANES = tuple(ConvexPolygon((ORIGIN,)).half_planes())


@lru_cache(maxsize=2048)
def _cells(member: FeasibleSet) -> tuple[Cell, ...]:
    """(sweep, planes) for every cell type of member; see the module docstring."""
    if isinstance(member, PointSet):
        return tuple(
            (ConvexPolygon((-c,)), tuple(h.translate(-c) for h in voronoi_cell(member, c)))
            for c in member.points
        )
    verts = member.vertices
    if not verts:
        raise ValueError("feasible set must be non-empty")
    n = len(verts)
    # Edge i runs from verts[i] to verts[i + 1]: a segment has one, a polygon n.
    # Its direction (X, Y) is the triple's: the edge vector times W > 0.
    steps = [(verts[(i + 1) % n] - verts[i])._t[:2] for i in range(n if n > 2 else n - 1)]
    cells: list[Cell] = []
    for i, v in enumerate(verts):
        # The normal cone of v: behind its outgoing edge, ahead of its incoming one.
        cone = []
        if i < len(steps):
            cone.append(HalfPlane(*steps[i], 0))
        if n > 2 or i > 0:
            dx, dy = steps[i - 1]
            cone.append(HalfPlane(-dx, -dy, 0))
        cells.append((ConvexPolygon((-v,)), tuple(cone)))
    for i, (dx, dy) in enumerate(steps):
        # The normal line through the edge's points; a polygon keeps its outer ray.
        strip = (HalfPlane(dx, dy, 0), HalfPlane(-dx, -dy, 0))
        if n > 2:
            strip += (HalfPlane(-dy, dx, 0),)
        cells.append((segment(-verts[i], -verts[(i + 1) % n]), strip))
    if n > 1:
        cells.append((convex_hull(-v for v in verts), _ORIGIN_PLANES))
    return tuple(cells)


def cell_pieces(feasible: FeasibleSet, region: ConvexPolygon) -> list[ConvexPolygon]:
    """The non-empty convex pieces (region + sweep) ∩ planes over the cells of S.

    Their union is { (region ∩ cell(c)) - c : c in S }.
    """
    pieces = []
    for sweep, planes in _cells(feasible):
        piece = clip_all(minkowski_sum(region, sweep), planes)
        if not piece.is_empty:
            pieces.append(piece)
    return pieces


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _member_pieces(
    member: FeasibleSet, region: ConvexPolygon, mode: Mode
) -> Iterator[ConvexPolygon]:
    """Polygons whose hull is the image of region under member's operator."""
    if region.is_empty:
        raise ValueError("region must be non-empty")
    if mode == "perfect":
        yield from cell_pieces(member, minkowski_sum(feasible_hull(member), region))
    elif mode == "persistent":
        yield minkowski_sum(feasible_hull(member), hull_of_polygons(cell_pieces(member, region)))
    else:
        raise ValueError(f"mode must be one of {MODES}")


def apply_member(member: FeasibleSet, region: ConvexPolygon, mode: Mode) -> ConvexPolygon:
    """One application of a single feasible set's operator in the given mode."""
    return hull_of_polygons(_member_pieces(member, region, mode))


def apply_collection(collection: Collection, region: ConvexPolygon) -> ConvexPolygon:
    """Convexified union of the per-set operator results.

    Computed as one hull over the pieces of every member, which equals the
    hull of the per-set hulls.
    """
    return hull_of_polygons(
        piece
        for member in collection.sets
        for piece in _member_pieces(member, region, collection.mode)
    )


# ---------------------------------------------------------------------------
# Conditional rounding
# ---------------------------------------------------------------------------


def conditional_round(q: RationalLike, config: IterationConfig) -> Fraction:
    """Snap q to floor(q) + t when the nearest menu fraction t is within epsilon.

    Ties between menu fractions go to the smaller fraction.  Values farther
    than epsilon from every menu fraction are returned unchanged.  The menu
    holds only proper fractions, so a value just below an integer never
    snaps up: 3 - 1/10**9 stays as it is, while 3 + 1/10**9 snaps to 3.
    """
    q = as_fraction(q)
    snapped = _snap(q.numerator, q.denominator, *config._epsilon_ratio)
    return q if snapped is None else Fraction(*snapped)


# The menu's denominators and their lcm L: every menu fraction is a multiple of 1/L.
_SNAP_DENOMINATORS = tuple(sorted({t.denominator for t in SNAP_FRACTIONS}))
_SNAP_LCM = math.lcm(*_SNAP_DENOMINATORS)


def _snap(x: int, w: int, eps_num: int, eps_den: int) -> Optional[tuple[int, int]]:
    """`conditional_round` of x/w (w > 0) on integers: the snapped value as
    (numerator, denominator), or None when the value does not change.

    With x = base*w + r the fractional part is r/w.  No menu fraction is
    nearer to it than the nearest multiple of 1/L, so when that is farther
    than epsilon nothing snaps.  Otherwise each menu denominator b offers
    its nearest numerator a in [0, b), at distance |a*w - r*b| / (b*w);
    candidates compare by cross-multiplication in (distance, fraction)
    order, and the winner is within epsilon when its distance n / (b*w)
    satisfies n*eps_den <= eps_num*b*w.
    """
    base, r = divmod(x, w)
    near = r * _SNAP_LCM % w
    if min(near, w - near) * eps_den > eps_num * _SNAP_LCM * w:
        return None
    best_n, best_a, best_b = w, 0, 1  # no candidate is as far as 1
    for b in _SNAP_DENOMINATORS:
        a, rem = divmod(r * b, w)
        if 2 * rem > w and a + 1 < b:
            a += 1
        n = abs(a * w - r * b)
        if (n * best_b, a * best_b) < (best_n * b, best_a * b):
            best_n, best_a, best_b = n, a, b
    if best_n == 0 or best_n * eps_den > eps_num * best_b * w:
        return None
    return base * best_b + best_a, best_b


def _round_polygon(
    poly: ConvexPolygon, config: IterationConfig, iteration: int
) -> tuple[ConvexPolygon, list[RoundingEvent]]:
    """Snap every vertex coordinate of poly; the polygon itself when none changes."""
    eps_num, eps_den = config._epsilon_ratio
    events: list[RoundingEvent] = []
    rounded: list[Triple] = []
    for idx, t in enumerate(poly._ts):
        x, y, w = t
        sx = _snap(x, w, eps_num, eps_den)
        sy = _snap(y, w, eps_num, eps_den)
        if sx is None and sy is None:
            rounded.append(t)
            continue
        (xn, xd), (yn, yd) = sx or (x, w), sy or (y, w)
        if sx is not None:
            events.append(RoundingEvent(iteration, idx, "x", Fraction(x, w), Fraction(xn, xd)))
        if sy is not None:
            events.append(RoundingEvent(iteration, idx, "y", Fraction(y, w), Fraction(yn, yd)))
        d = math.lcm(xd, yd)
        rounded.append(_normalised(xn * (d // xd), yn * (d // yd), d))
    if not events:
        return poly, events
    # Rounding can break strict convexity or canonical order; re-hull.
    return _polygon(_hull(rounded)), events


def _bits_and_digest(poly: ConvexPolygon) -> tuple[int, str]:
    """The most bits of any coordinate's numerator or denominator, and the digest.

    Both read each coordinate X/W of the triples in lowest terms, through
    gcd(X, W).  The digest is the sha256 prefix of "x,y;x,y;..." with each
    coordinate written as `str(Fraction)` writes it: n, or n/d.
    """
    worst = 0
    texts = []
    for x, y, w in poly._ts:
        pair = []
        for c in (x, y):
            g = math.gcd(c, w)
            n, d = c // g, w // g
            worst = max(worst, n.bit_length(), d.bit_length())
            pair.append(str(n) if d == 1 else f"{n}/{d}")
        texts.append(",".join(pair))
    return worst, hashlib.sha256(";".join(texts).encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


def iterate_to_invariance(
    collection: Collection,
    seed: ConvexPolygon,
    config: IterationConfig = IterationConfig(),
) -> IterationResult:
    """Iterate the collection operator from a seed until the vertex
    representation repeats.

    The iterates form a growing chain (checked exactly each step before
    rounding; a violation means a geometry bug and raises).  The seed is
    never rounded.  ``converged`` is true only when the unrounded image of
    the returned set equals it, which is exact invariance; a repeat that
    rounding alone produced (a rounding stall), a longer cycle, the bit
    budget or the iteration budget return the last iterate with
    ``converged`` false, and ``status`` names which of them stopped the run.
    """
    if seed.is_empty:
        raise ValueError("seed must be non-empty")
    current = seed
    events: list[RoundingEvent] = []
    hashes = [_bits_and_digest(current)[1]]
    seen = set(hashes)
    counts = [len(current._ts)]
    status: StopStatus = "budget"
    iterations = config.max_iterations
    rounding = config._epsilon_ratio[0] != 0
    for step in range(1, config.max_iterations + 1):
        grown = apply_collection(collection, current)
        if not grown.contains_polygon(current):
            raise GeometryInconsistencyError(
                f"iterate {step} does not contain its predecessor"
            )
        candidate = grown
        if rounding:
            candidate, step_events = _round_polygon(grown, config, step)
            events.extend(step_events)
        bits, digest = _bits_and_digest(candidate)
        if bits > config.max_coordinate_bits:
            iterations = step
            status = "bits"
            break
        hashes.append(digest)
        counts.append(len(candidate._ts))
        if candidate == current:
            status = "converged" if grown == current else "rounding-stall"
            iterations = step - 1
            break
        if digest in seen:
            # rounding produced a cycle longer than one step; no fixed point
            iterations = step
            status = "cycle"
            break
        seen.add(digest)
        current = candidate
    return IterationResult(
        invariant_set=current,
        iterations=iterations,
        converged=status == "converged",
        status=status,
        rounding_events=events,
        history_hashes=hashes,
        vertex_counts=counts,
        aborted=status == "bits",
    )


def check_invariance(collection: Collection, candidate: ConvexPolygon) -> bool:
    """True exactly when every per-set operator maps candidate into itself."""
    if candidate.is_empty:
        raise ValueError("candidate must be non-empty")
    return all(
        candidate.contains_polygon(apply_member(member, candidate, collection.mode))
        for member in collection.sets
    )


# ---------------------------------------------------------------------------
# Exact one-dimensional iteration
# ---------------------------------------------------------------------------


def _scalar_values(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    vals = tuple(sorted({as_fraction(v) for v in values}))
    if not vals:
        raise ValueError("1D feasible set must be non-empty")
    return vals


def apply_g_interval(values: Iterable[RationalLike], region: IntervalUnion) -> IntervalUnion:
    """One-dimensional error-set operator for a single finite set.

    Cells of the sorted sites are the midpoint intervals; the region is
    first fattened by the hull interval of the set, then each cell slice is
    recentered on its site and the slices are unioned.
    """
    vals = _scalar_values(values)
    if region.is_empty:
        raise ValueError("region must be non-empty")
    fattened = region.add_interval(vals[0], vals[-1])
    result = IntervalUnion.EMPTY
    for i, c in enumerate(vals):
        cell_lo = (vals[i - 1] + c) / 2 if i > 0 else None
        cell_hi = (c + vals[i + 1]) / 2 if i + 1 < len(vals) else None
        piece = fattened.clip(cell_lo, cell_hi).translate(-c)
        result = result.union(piece)
    return result


def iterate_1d(
    sets: Iterable[Iterable[RationalLike]],
    seed: IntervalUnion,
    max_iterations: int = 64,
) -> IntervalUnion:
    """Exact non-convex 1D iteration to its fixed point.

    Unlike the 2D path this keeps unions of intervals without convexifying,
    so it serves as an independent oracle for the interval [-gap/2, gap/2]
    predicted from the largest between-site gap of the collection.
    """
    members = [_scalar_values(s) for s in sets]
    if not members:
        raise ValueError("collection must contain at least one set")
    current = seed
    for _ in range(max_iterations):
        grown = IntervalUnion.EMPTY
        for vals in members:
            grown = grown.union(apply_g_interval(vals, current))
        if grown == current:
            return current
        current = grown
    raise RuntimeError(f"1D iteration did not reach a fixed point in {max_iterations} steps")


# ---------------------------------------------------------------------------
# Monotone families of convex sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneFamilyReport:
    ok: bool
    candidate: Optional[ConvexPolygon]
    reason: str = ""


def verify_monotone_family(family: Sequence[ConvexPolygon]) -> MonotoneFamilyReport:
    """Check the sufficient conditions under which the largest member of a
    nested family of convex sets is invariant for the persistent dynamics.

    The family must be totally ordered by inclusion, and for each member S
    the closure condition ``x + y - proj_S(y) in S_max`` must hold for all
    x in S and y in S_max.  The persistent operator of S maps S_max to the
    hull of exactly these points, so the condition is checked exactly as
    the persistent-mode invariance of S_max under the family.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be non-empty")
    if any(m.is_empty for m in members):
        raise ValueError("family members must be non-empty")
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i], members[j]
            if not (a.contains_polygon(b) or b.contains_polygon(a)):
                return MonotoneFamilyReport(False, None, "family is not nested")
    largest = members[0]
    for m in members[1:]:
        if m.contains_polygon(largest):
            largest = m
    if not check_invariance(Collection(tuple(members), "persistent"), largest):
        return MonotoneFamilyReport(False, None, "closure condition fails")
    return MonotoneFamilyReport(True, largest, "")
