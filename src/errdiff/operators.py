"""Set operators for accumulated-error dynamics and their fixed-point iteration.

Two pairs of operators are provided, one per prediction discipline:

* perfect prediction: the error-set operator maps a region Q through
  ``ch( U_c ((ch S + Q) ∩ cell(c)) - c )`` for each feasible set S,
* persistent prediction: the modified-request operator maps a region D
  through ``ch( ch S + U_c ((D ∩ cell(c)) - c) )``,

where ``cell(c)`` is the Voronoi cell of c with respect to S.  Feasible sets
may be finite point sets or continuous convex polygons; for polygons the
cells are handled analytically (singleton cells for interior points, normal
rays for facet points, normal cones for vertices).

Iterating either collection operator from a seed grows a monotone chain of
convex polygons whose limit is the minimal (convex) invariant set; the
iteration stops as soon as the canonical vertex representation repeats.  A
conditional per-coordinate rounding step can snap coordinates that creep
toward simple fractions, which is what makes the exact iteration terminate
in practice.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal, Optional, Sequence, Union

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    RationalLike,
    as_fraction,
    clip,
    clip_all,
    convex_hull,
    hull_of_polygons,
    minkowski_sum,
    polygon_intersection,
    project_convex_polygon,
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


DEFAULT_SNAP_FRACTIONS: tuple[Fraction, ...] = tuple(
    sorted({Fraction(num, den) for den in range(1, 7) for num in range(den)})
)

DEFAULT_EPSILON = Fraction(1, 10**8)


@dataclass(frozen=True)
class IterationConfig:
    """Stopping-rule parameters for the invariant-set iteration.

    ``snap_fractions`` is the finite menu of proper fractions that the
    conditional rounding step may snap a coordinate's fractional part to,
    and ``epsilon`` the snap tolerance.  Rounding never touches the seed.
    """

    epsilon: Fraction = DEFAULT_EPSILON
    snap_fractions: tuple[Fraction, ...] = DEFAULT_SNAP_FRACTIONS
    max_iterations: int = 1000
    rounding_enabled: bool = True
    # Snap to the simplest rational within epsilon instead of the fixed
    # menu.  Strictly more powerful on arbitrary instances (any rational
    # limit of moderate denominator gets caught); every stop is still
    # verified by the repeat-equality rule, so the mode is sound.
    snap_simplest: bool = False
    # Abort (converged=False) once any coordinate's numerator or denominator
    # outgrows this many bits.  Arbitrary collections can drift toward
    # limits the snap menu never catches, with representations compounding
    # every iteration; the budget turns that into a clean non-convergence.
    max_coordinate_bits: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        fractions = tuple(sorted(as_fraction(x) for x in self.snap_fractions))
        object.__setattr__(self, "snap_fractions", fractions)
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if any(not (0 <= x < 1) for x in fractions):
            raise ValueError("snap fractions must lie in [0, 1)")
        if not fractions and self.rounding_enabled:
            raise ValueError("rounding requires at least one snap fraction")
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


@lru_cache(maxsize=2048)
def _finite_cells(point_set: PointSet) -> tuple[tuple[Point2, tuple[HalfPlane, ...]], ...]:
    """(-c, the facet bisectors of cell(c)) for every site c."""
    return tuple((-c, tuple(voronoi_cell(point_set, c))) for c in point_set.points)


def cell_pieces(feasible: FeasibleSet, region: ConvexPolygon) -> list[ConvexPolygon]:
    """Convex pieces whose union is { (region ∩ cell(c)) - c : c in S }.

    For a finite set this is one clipped piece per site.  For a continuous
    convex set the union is assembled from the three cell types: vertex
    normal cones, facet normal rays swept along the facet, and the origin
    whenever the set meets the region (interior points have singleton cells).
    """
    if isinstance(feasible, PointSet):
        pieces = []
        for offset, planes in _finite_cells(feasible):
            piece = clip_all(region, planes)
            if not piece.is_empty:
                pieces.append(piece.translate(offset))
        return pieces
    return _convex_cell_pieces(feasible, region)


def _convex_cell_pieces(poly: ConvexPolygon, region: ConvexPolygon) -> list[ConvexPolygon]:
    verts = poly.vertices
    if not verts:
        raise ValueError("feasible set must be non-empty")
    if len(verts) == 1:
        return [region.translate(-verts[0])]

    pieces: list[ConvexPolygon] = []

    if len(verts) == 2:
        u, w = verts
        d = w - u
        # Endpoint cells are half-planes behind each endpoint.
        pieces.append(clip(region.translate(-u), HalfPlane(d.x, d.y, 0)))
        pieces.append(clip(region.translate(-w), HalfPlane(-d.x, -d.y, 0)))
        # Interior cells are perpendicular lines; swept along the segment
        # they contribute (region + (-segment)) restricted to d·p = 0.
        swept = minkowski_sum(region, segment(-u, -w))
        line = clip(clip(swept, HalfPlane(d.x, d.y, 0)), HalfPlane(-d.x, -d.y, 0))
        pieces.append(line)
    else:
        n = len(verts)
        normals = []
        for i in range(n):
            d = verts[(i + 1) % n] - verts[i]
            normals.append(Point2(d.y, -d.x))
        for i in range(n):
            v = verts[i]
            n_in = normals[i - 1]
            n_out = normals[i]
            cone_a = HalfPlane(n_in.y, -n_in.x, 0)
            cone_b = HalfPlane(-n_out.y, n_out.x, 0)
            pieces.append(clip(clip(region.translate(-v), cone_a), cone_b))
        for i in range(n):
            u, w = verts[i], verts[(i + 1) % n]
            nrm = normals[i]
            swept = minkowski_sum(region, segment(-u, -w))
            ray = clip(clip(swept, HalfPlane(-nrm.y, nrm.x, 0)), HalfPlane(nrm.y, -nrm.x, 0))
            ray = clip(ray, HalfPlane(-nrm.x, -nrm.y, 0))
            pieces.append(ray)

    if not polygon_intersection(poly, region).is_empty:
        pieces.append(ConvexPolygon((ORIGIN,)))
    return [p for p in pieces if not p.is_empty]


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def apply_G_single(feasible: FeasibleSet, region: ConvexPolygon) -> ConvexPolygon:
    """One application of the perfect-prediction error-set operator."""
    if region.is_empty:
        raise ValueError("region must be non-empty")
    shifted = minkowski_sum(feasible_hull(feasible), region)
    return hull_of_polygons(cell_pieces(feasible, shifted))


def apply_P_single(feasible: FeasibleSet, domain: ConvexPolygon) -> ConvexPolygon:
    """One application of the persistent-prediction modified-request operator."""
    if domain.is_empty:
        raise ValueError("domain must be non-empty")
    inner = hull_of_polygons(cell_pieces(feasible, domain))
    return minkowski_sum(feasible_hull(feasible), inner)


def apply_G_collection(collection: Collection, region: ConvexPolygon) -> ConvexPolygon:
    """Convexified union of the per-set operator results (perfect mode).

    Computed as one hull over all cell pieces of all member sets, which
    equals the hull of the per-set hulls.
    """
    if collection.mode != "perfect":
        raise ValueError("collection mode must be 'perfect'")
    if region.is_empty:
        raise ValueError("region must be non-empty")
    return hull_of_polygons(
        piece
        for member in collection.sets
        for piece in cell_pieces(member, minkowski_sum(feasible_hull(member), region))
    )


def apply_P_collection(collection: Collection, domain: ConvexPolygon) -> ConvexPolygon:
    """Convexified union of the per-set operator results (persistent mode)."""
    if collection.mode != "persistent":
        raise ValueError("collection mode must be 'persistent'")
    return hull_of_polygons(apply_P_single(member, domain) for member in collection.sets)


def apply_collection(collection: Collection, region: ConvexPolygon) -> ConvexPolygon:
    if collection.mode == "perfect":
        return apply_G_collection(collection, region)
    return apply_P_collection(collection, region)


def apply_single(collection: Collection, feasible: FeasibleSet, region: ConvexPolygon) -> ConvexPolygon:
    if collection.mode == "perfect":
        return apply_G_single(feasible, region)
    return apply_P_single(feasible, region)


# ---------------------------------------------------------------------------
# Conditional rounding
# ---------------------------------------------------------------------------


def snap_menu(max_denominator: int) -> tuple[Fraction, ...]:
    """All proper fractions in [0, 1) with denominator up to the bound."""
    if max_denominator < 1:
        raise ValueError("denominator bound must be positive")
    return tuple(
        sorted({Fraction(num, den) for den in range(1, max_denominator + 1) for num in range(den)})
    )


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator (then numerator) in [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    floor_lo = math.floor(lo)
    if lo == floor_lo:
        return lo
    if floor_lo + 1 <= hi:
        return Fraction(floor_lo + 1)
    inner = simplest_in_interval(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / inner


def conditional_round(q: RationalLike, config: IterationConfig) -> Fraction:
    """Snap q to floor(q) + t when the nearest menu fraction t is within epsilon.

    Ties between menu fractions go to the smaller fraction.  Values farther
    than epsilon from every menu fraction are returned unchanged.  The menu
    is sorted, so the nearest fraction is found by bisection.  In simplest
    mode the menu is replaced by the simplest rational within epsilon.
    """
    q = as_fraction(q)
    if config.snap_simplest:
        return simplest_in_interval(q - config.epsilon, q + config.epsilon)
    base = Fraction(math.floor(q))
    fractional = q - base
    menu = config.snap_fractions
    i = bisect.bisect_left(menu, fractional)
    best: Optional[tuple[Fraction, Fraction]] = None
    for j in (i - 1, i):
        if 0 <= j < len(menu):
            candidate = menu[j]
            key = (abs(candidate - fractional), candidate)
            if best is None or key < best:
                best = key
    if best is not None and best[0] <= config.epsilon:
        return base + best[1]
    return q


def _round_polygon(
    poly: ConvexPolygon, config: IterationConfig, iteration: int
) -> tuple[ConvexPolygon, list[RoundingEvent]]:
    events: list[RoundingEvent] = []
    rounded: list[Point2] = []
    for idx, v in enumerate(poly.vertices):
        nx = conditional_round(v.x, config)
        ny = conditional_round(v.y, config)
        if nx != v.x:
            events.append(RoundingEvent(iteration, idx, "x", v.x, nx))
        if ny != v.y:
            events.append(RoundingEvent(iteration, idx, "y", v.y, ny))
        rounded.append(Point2(nx, ny))
    if not events:
        return poly, events
    # Rounding can break strict convexity or canonical order; re-hull.
    return convex_hull(rounded), events


def _digest(poly: ConvexPolygon) -> str:
    text = ";".join(f"{v.x},{v.y}" for v in poly.vertices)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


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
    current = convex_hull(seed.vertices)
    events: list[RoundingEvent] = []
    hashes = [_digest(current)]
    seen = set(hashes)
    counts = [len(current.vertices)]
    status: StopStatus = "budget"
    iterations = config.max_iterations
    for step in range(1, config.max_iterations + 1):
        grown = apply_collection(collection, current)
        if not grown.contains_polygon(current):
            raise GeometryInconsistencyError(
                f"iterate {step} does not contain its predecessor"
            )
        candidate = grown
        if config.rounding_enabled:
            candidate, step_events = _round_polygon(grown, config, step)
            events.extend(step_events)
        if _coordinate_bits(candidate) > config.max_coordinate_bits:
            iterations = step
            status = "bits"
            break
        digest = _digest(candidate)
        hashes.append(digest)
        counts.append(len(candidate.vertices))
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


def _coordinate_bits(poly: ConvexPolygon) -> int:
    worst = 0
    for v in poly.vertices:
        for q in (v.x, v.y):
            worst = max(worst, q.numerator.bit_length(), q.denominator.bit_length())
    return worst


def check_invariance(collection: Collection, candidate: ConvexPolygon) -> bool:
    """True exactly when every per-set operator maps candidate into itself."""
    if candidate.is_empty:
        raise ValueError("candidate must be non-empty")
    return all(
        candidate.contains_polygon(apply_single(collection, member, candidate))
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


def _sample_grid(poly: ConvexPolygon) -> list[Point2]:
    verts = poly.vertices
    if not verts:
        raise ValueError("cannot sample an empty polygon")
    samples = list(verts)
    half = Fraction(1, 2)
    for u, w in poly.edges():
        samples.append((u + w) * half)
    if len(verts) >= 3:
        inv = Fraction(1, len(verts))
        centroid = Point2(
            sum((v.x for v in verts), Fraction(0)) * inv,
            sum((v.y for v in verts), Fraction(0)) * inv,
        )
        samples.append(centroid)
        samples.extend((centroid + v) * half for v in verts)
    return sorted(set(samples))


def verify_monotone_family(family: Sequence[ConvexPolygon]) -> MonotoneFamilyReport:
    """Check the sufficient conditions under which the largest member of a
    nested family of convex sets is invariant for the persistent dynamics.

    The family must be totally ordered by inclusion, and for each member S
    the sampled condition ``x + y - proj_S(y) in S_max`` must hold for grid
    points x of S and y of S_max.  Membership tests are exact; the grid is
    a finite proxy for the universally quantified condition.
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
    outer_grid = _sample_grid(largest)
    for member in members:
        projections = [(y, project_convex_polygon(member, y)) for y in outer_grid]
        for x in _sample_grid(member):
            for y, proj in projections:
                if not largest.contains_point(x + y - proj):
                    return MonotoneFamilyReport(
                        False, None, "closure condition fails on the sample grid"
                    )
    return MonotoneFamilyReport(True, largest, "")
