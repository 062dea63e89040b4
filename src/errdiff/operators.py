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
them, and their union is ``U_c ((R ∩ cell(c)) - c)``.  A point sweep -c
keeps its planes in the member's own frame, around c: R is clipped first
and only the surviving vertices are moved by -c, which gives the same
piece.  The cells are:

* a site c of a point set: the point -c, and the facet bisectors of
  cell(c);
* a vertex v of a polygon, a point member or a segment end: the point -v,
  and the normal cone at v (no plane for a point, one for a segment end);
* an edge [u, w]: the segment [-u, -w], and the normal line through the
  origin, cut to its outer ray for a polygon;
* the interior points of a member with two or more vertices (their cells
  are singletons): the reflected member -S, and the point 0, so the piece
  is {0} exactly when S meets R.

A piece is a raw counter-clockwise list of vertex triples, never made a
canonical polygon: one operator application takes a single hull over the
points of all its pieces.

Iterating either collection operator from a seed grows a monotone chain of
convex polygons whose limit is the minimal (convex) invariant set.  The
chain is exact: the iteration stops as soon as an image equals its iterate,
or as soon as an exact extrapolation of the chain's limit (minimal
polynomial extrapolation on its recent iterates) is verified to be a fixed
point that contains the seed.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Literal, Optional, Sequence, Union

from .geometry import (
    ORIGIN,
    ConvexPolygon,
    HalfPlane,
    PointSet,
    RationalLike,
    Triple,
    _add,
    _clip,
    _hull,
    _normalised,
    _polygon,
    as_fraction,
    convex_hull,
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
    legitimately perturb it.  When ``converged`` is true the collection
    operator maps ``invariant_set`` to itself.  ``status`` says why the run
    stopped:

    * ``converged``: the image of the iterate equals it;
    * ``extrapolated``: the returned set is an extrapolated limit of the
      chain, verified to contain the seed and the last iterate and to be
      mapped to itself (``iterations`` is the step it was found at);
    * ``budget``: the iteration budget ran out;
    * ``bits``: a coordinate outgrew the bit budget (``aborted``).
    """

    invariant_set: ConvexPolygon
    iterations: int
    converged: bool
    status: StopStatus
    history_hashes: list[str] = field(default_factory=list)
    vertex_counts: list[int] = field(default_factory=list)
    aborted: bool = False  # coordinate representations outgrew the budget
    # Always empty; perfbench/tracing.py still reads it.
    rounding_events = ()


class GeometryInconsistencyError(RuntimeError):
    """A step of the iteration violated guaranteed monotonicity."""


# ---------------------------------------------------------------------------
# Voronoi-cell pieces
# ---------------------------------------------------------------------------

# A cell's sweep is a point, as the triple to translate by, or a polygon to
# add; its planes are coprime integer triples (A, B, C) of A*x + B*y <= C.
Cell = tuple[Union[Triple, ConvexPolygon], tuple[Triple, ...]]

# The point 0 as half-planes: a sweep clipped by them is {0} or empty.
_ORIGIN_PLANES = tuple(h.ints for h in ConvexPolygon((ORIGIN,)).half_planes())


@lru_cache(maxsize=2048)
def _cells(member: FeasibleSet) -> tuple[Cell, ...]:
    """(sweep, planes) for every cell type of member; see the module docstring.

    A point sweep -c keeps its planes in the member's own frame, around c:
    the region is clipped first, and only the surviving vertices move.
    """
    if isinstance(member, PointSet):
        return tuple(
            ((-c)._t, tuple(h.ints for h in voronoi_cell(member, c))) for c in member.points
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
        # The normal cone v + N(v): behind its outgoing edge, ahead of its incoming one.
        cone = []
        if i < len(steps):
            cone.append(HalfPlane(*steps[i], 0))
        if n > 2 or i > 0:
            dx, dy = steps[i - 1]
            cone.append(HalfPlane(-dx, -dy, 0))
        cells.append(((-v)._t, tuple(h.translate(v).ints for h in cone)))
    for i, (dx, dy) in enumerate(steps):
        # The normal line through the edge's points; a polygon keeps its outer ray.
        strip = [HalfPlane(dx, dy, 0), HalfPlane(-dx, -dy, 0)]
        if n > 2:
            strip.append(HalfPlane(-dy, dx, 0))
        cells.append((segment(-verts[i], -verts[(i + 1) % n]), tuple(h.ints for h in strip)))
    if n > 1:
        cells.append((convex_hull(-v for v in verts), _ORIGIN_PLANES))
    return tuple(cells)


def cell_pieces(feasible: FeasibleSet, region: ConvexPolygon) -> list[Sequence[Triple]]:
    """The non-empty convex pieces (region + sweep) ∩ planes over the cells of S.

    Their union is { (region ∩ cell(c)) - c : c in S }.  Each piece is a
    raw CCW list of vertex triples, in no particular rotation.
    """
    pieces = []
    ts = region._ts
    for sweep, planes in _cells(feasible):
        if sweep.__class__ is tuple:
            piece = _clip(ts, planes)
            if piece:
                pieces.append([_add(t, sweep) for t in piece])
        else:
            piece = _clip(minkowski_sum(region, sweep)._ts, planes)
            if piece:
                pieces.append(piece)
    return pieces


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _member_pieces(
    member: FeasibleSet, region: ConvexPolygon, mode: Mode
) -> list[Sequence[Triple]]:
    """Vertex lists whose hull is the image of region under member's operator."""
    if region.is_empty:
        raise ValueError("region must be non-empty")
    if mode == "perfect":
        return cell_pieces(member, minkowski_sum(feasible_hull(member), region))
    if mode == "persistent":
        inner = _polygon(_hull(t for piece in cell_pieces(member, region) for t in piece))
        return [minkowski_sum(feasible_hull(member), inner)._ts]
    raise ValueError(f"mode must be one of {MODES}")


def apply_member(member: FeasibleSet, region: ConvexPolygon, mode: Mode) -> ConvexPolygon:
    """One application of a single feasible set's operator in the given mode."""
    return _polygon(_hull(t for piece in _member_pieces(member, region, mode) for t in piece))


def apply_collection(collection: Collection, region: ConvexPolygon) -> ConvexPolygon:
    """Convexified union of the per-set operator results.

    Computed as one hull over the pieces of every member, which equals the
    hull of the per-set hulls.
    """
    mode = collection.mode
    return _polygon(_hull(
        t
        for member in collection.sets
        for piece in _member_pieces(member, region, mode)
        for t in piece
    ))


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
# Extrapolated limits
# ---------------------------------------------------------------------------

# Strides s and degrees m the extrapolation tries.  The window holds the
# (m + 1) * s + 1 newest iterates that the largest of them reads.  Every
# extrapolated answer measured on family3, the benchmark population and
# operator-properties came from (1, 2), (2, 1) or (2, 2), and a search up to
# (4, 4) answered no collection that these miss.
_MAX_STRIDE = 2
_MAX_DEGREE = 2
_WINDOW = (_MAX_DEGREE + 1) * _MAX_STRIDE + 1


def _mpe_limit(samples: Sequence[tuple[int, Sequence[int]]]) -> Optional[tuple[list[int], int]]:
    """Exact minimal polynomial extrapolation (Cabay & Jackson, 1976).

    samples are m + 2 pairs (d, X): the vectors x_j = X_j / d_j.  The
    weights c_0 ... c_m, c_m = 1, must satisfy sum_j c_j (x_{j+1} - x_j) = 0
    in every coordinate.  The rows, one per coordinate, are built over the
    common denominator and eliminated one by one, fraction-free: a row that
    reduces to 0 = r with r != 0 is inconsistent and ends the solve.  Once
    m rows are independent every later row reduces to 0 = r, so r is its
    residual, and it must be exactly 0.  The limit is
    sum_j c_j x_j / sum_j c_j, returned as (numerators, den) with coordinate
    i equal to numerators[i] / den.  None when no unique weights exist or
    they sum to 0.
    """
    m = len(samples) - 2
    common = math.lcm(*(d for d, _ in samples))
    scaled = [(common // d, xs) for d, xs in samples]
    pivots: list[tuple[int, list[int]]] = []
    for i in range(len(samples[0][1])):
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
    if len(pivots) < m:
        return None
    weights = _back_substitute(pivots, m)
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

    Each pivot row is zero in the lead columns of the rows before it.
    """
    c: list[Fraction] = [Fraction(0)] * m + [Fraction(1)]
    for col, p in reversed(pivots):
        rest = sum(p[k] * c[k] for k in range(m + 1) if k != col)
        c[col] = -rest / p[col]
    d = math.lcm(*(q.denominator for q in c))
    return [q.numerator * (d // q.denominator) for q in c]


def _flat(poly: ConvexPolygon) -> tuple[int, list[int]]:
    """poly's vertex coordinates x0, y0, x1, y1, ... over their common denominator."""
    d = math.lcm(*(w for _, _, w in poly._ts))
    flat = []
    for x, y, w in poly._ts:
        k = d // w
        flat += (x * k, y * k)
    return d, flat


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
    """ys dotted with xs under each cyclic vertex shift (two coordinates a step)."""
    size = len(xs)
    return [
        sum(map(mul, xs[k:], ys)) + sum(map(mul, xs[:k], ys[size - k :]))
        for k in range(0, size, 2)
    ]


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


class _Extrapolation:
    """MPE on a window of the newest iterates, verified before it is trusted.

    Lives for one `iterate_to_invariance` call.  After each step, every
    stride s and degree m reads the m + 2 iterates s apart that end at the
    newest one, provided their vertex counts agree; each is aligned to the
    newest by its nearest cyclic vertex shift, which a float screen
    certifies where it can and `_shift_to` decides exactly where it cannot.
    A candidate, the hull of the extrapolated vertices, is returned only
    when it contains the seed and the newest iterate, stays within the bit
    budget and is mapped to itself by the collection operator.  Since the
    operator is monotone and the candidate contains the seed, it then
    contains every iterate of the chain, so it is an exact fixed point
    containing the minimal invariant set.
    """

    def __init__(self, collection: Collection, seed: ConvexPolygon, max_bits: int) -> None:
        self.collection, self.seed, self.max_bits = collection, seed, max_bits
        # (iterate, d, flat coordinates over d, their `_floats` or None)
        self.window: deque[tuple] = deque(maxlen=_WINDOW)
        self.push(seed)

    def push(self, poly: ConvexPolygon) -> None:
        d, flat = _flat(poly)
        self.window.append((poly, d, flat, _floats(d, flat)))

    def limit(self) -> Optional[ConvexPolygon]:
        window = self.window
        _, newest_d, newest_flat, newest_floats = window[-1]
        size = len(newest_flat)
        # The newest iterate's vertices are distinct, so shift 0 is its own
        # unique nearest shift.
        aligned: dict[int, Optional[tuple[int, list[int]]]] = {
            len(window) - 1: (newest_d, newest_flat)
        }

        def sample(idx: int) -> Optional[tuple[int, list[int]]]:
            if idx not in aligned:
                _, d, flat, floats = window[idx]
                k = None
                if len(flat) == size:
                    if floats is not None and newest_floats is not None:
                        k = _screened_shift(floats, newest_floats)
                    if k is None:
                        k = _shift_to(flat, newest_flat)
                aligned[idx] = None if k is None else (d, flat[k:] + flat[:k])
            return aligned[idx]

        for s in range(1, _MAX_STRIDE + 1):
            for m in range(1, _MAX_DEGREE + 1):
                picks = [len(window) - 1 - s * t for t in range(m + 1, -1, -1)]
                # Rows (two per vertex) must outnumber the unknowns, or
                # some weights always fit.
                if picks[0] < 0 or size <= m:
                    break
                samples = [sample(i) for i in picks]
                if None in samples:
                    break
                candidate = self._candidate(samples)
                if candidate is not None:
                    return candidate
        return None

    def _candidate(self, samples: list[tuple[int, list[int]]]) -> Optional[ConvexPolygon]:
        found = _mpe_limit(samples)
        if found is None:
            return None
        nums, den = found
        candidate = _polygon(_hull(
            _normalised(nums[i], nums[i + 1], den) for i in range(0, len(nums), 2)
        ))
        if not (
            candidate.contains_polygon(self.seed)
            and candidate.contains_polygon(self.window[-1][0])
            and _bits_and_digest(candidate)[0] <= self.max_bits
        ):
            return None
        return candidate if apply_collection(self.collection, candidate) == candidate else None


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


def iterate_to_invariance(
    collection: Collection,
    seed: ConvexPolygon,
    config: IterationConfig = IterationConfig(),
) -> IterationResult:
    """Iterate the collection operator from a seed until an image equals its
    iterate or an extrapolated limit is verified.

    The iterates form a growing chain, checked exactly each step (a
    violation means a geometry bug and raises), so an iterate that is not a
    fixed point is never seen again.  After each step `_Extrapolation`
    tries to guess the chain's limit.  ``converged`` is true only when the
    image of the returned set equals it, which is exact invariance: at a
    fixed point of the chain or at a verified extrapolated limit.  The bit
    budget or the iteration budget return the last iterate with
    ``converged`` false, and ``status`` names which of them stopped the run.
    """
    if seed.is_empty:
        raise ValueError("seed must be non-empty")
    current = seed
    hashes = [_bits_and_digest(current)[1]]
    counts = [len(current._ts)]
    status: StopStatus = "budget"
    iterations = config.max_iterations
    extrapolation = _Extrapolation(collection, seed, config.max_coordinate_bits)
    for step in range(1, config.max_iterations + 1):
        grown = apply_collection(collection, current)
        if not grown.contains_polygon(current):
            raise GeometryInconsistencyError(
                f"iterate {step} does not contain its predecessor"
            )
        bits, digest = _bits_and_digest(grown)
        if bits > config.max_coordinate_bits:
            iterations = step
            status = "bits"
            break
        hashes.append(digest)
        counts.append(len(grown._ts))
        if grown == current:
            status = "converged"
            iterations = step - 1
            break
        current = grown
        extrapolation.push(current)
        limit = extrapolation.limit()
        if limit is not None:
            current, iterations, status = limit, step, "extrapolated"
            break
    return IterationResult(
        invariant_set=current,
        iterations=iterations,
        converged=status in ("converged", "extrapolated"),
        status=status,
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
