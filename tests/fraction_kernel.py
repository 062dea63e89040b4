"""Reference kernel: the exact algorithms written over `Fraction` coordinates.

This is the straightforward form of `orient`, `clip`, `convex_hull`,
`minkowski_sum`, translation, polygon containment, `half_planes`,
`project_convex_polygon` and `project_feasible` that `errdiff.geometry`
and `errdiff.dynamics` run on integer homogeneous triples, of a site's
Voronoi cell as all of its bisectors (`bisectors`), of one
collection-operator step (`cell_pieces`, `apply_collection`) assembled
from them, of the iteration's coordinate bit count and digest, of its
extrapolation searched degree by degree from 1 upward (`mpe_limit`,
`nearest_shift`, `extrapolate`), which the package searches from the top
degree down, and of an answer's gap (`support_gap`), of the closed loop's
`uniform_request`, `central_step`, `heater_step`, `least_squares_slope`
and `compute_metrics`, and of the trace writers' `row` and `coords`,
which the package runs on integers.  Its
`run_resource_loop` is the controller loop without the package loop's
tables: each step projects afresh and appends a new record.  Only the
tests import it, as an oracle: every function here must return exactly
what its counterpart in the package returns.  It also holds the Fraction
helpers the tests measure with (`dist2`, `slack`, `diameter_sq`,
`polygon_intersection`, `edges`, `interval_contains`).  Of the package it
uses only value types, with their Fraction coordinates and arithmetic,
and exceptions and constants; it builds its polygons with the validating
`ConvexPolygon` constructor.  An empty intersection is None, as the
package's `clip_all` returns it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from errdiff.geometry import ORIGIN, ConvexPolygon, HalfPlane, Point2, PointSet
from errdiff.dynamics import ControllerTrace, InfeasibleRequestError, StepRecord
from errdiff.intervals import IntervalUnion
from errdiff.operators import Collection
from errdiff.resources import TEMP_RESOLUTION, HeaterParams, HeaterState
from errdiff.simulate import REQUEST_RESOLUTION, ResourceMetrics


def cross(u: Point2, v: Point2) -> Fraction:
    return u.x * v.y - u.y * v.x


def dot(u: Point2, v: Point2) -> Fraction:
    return u.x * v.x + u.y * v.y


def dist2(a: Point2, b: Point2) -> Fraction:
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


def orient(a: Point2, b: Point2, c: Point2) -> Fraction:
    """Twice the signed area of triangle abc; positive for a left turn."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def slack(plane: HalfPlane, p: Point2) -> Fraction:
    """c - a*x - b*y for the plane's integer triple; non-negative exactly when p lies inside."""
    a, b, c = plane.ints
    return c - a * p.x - b * p.y


def edges(polygon: ConvexPolygon) -> Iterator[tuple[Point2, Point2]]:
    """Directed boundary edges; a segment yields its single edge once."""
    verts = polygon.vertices
    n = len(verts)
    if n == 2:
        yield verts[0], verts[1]
    elif n >= 3:
        for i in range(n):
            yield verts[i], verts[(i + 1) % n]


def interval_contains(union: IntervalUnion, x) -> bool:
    """Whether the rational x lies in one of the union's closed intervals."""
    x = Fraction(x)
    return any(lo <= x <= hi for lo, hi in union.intervals)


def diameter_sq(polygon: ConvexPolygon) -> Fraction:
    """The largest squared distance between two vertices (0 for a point)."""
    pairs = itertools.combinations(polygon.vertices, 2)
    return max((dist2(a, b) for a, b in pairs), default=Fraction(0))


def polygon_intersection(p: ConvexPolygon, q: ConvexPolygon) -> Optional[ConvexPolygon]:
    """p clipped by every half-plane of q; None when they do not meet."""
    return clip_all(p, half_planes(q))


def segment(u: Point2, v: Point2) -> ConvexPolygon:
    if u == v:
        return ConvexPolygon((u,))
    return ConvexPolygon((u, v) if u < v else (v, u))


def convex_hull(points: Iterable[Point2]) -> ConvexPolygon:
    """Monotone chain with the Fraction orientation predicate."""
    pts = sorted(points)
    deduped: list[Point2] = []
    for p in pts:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) == 1:
        return ConvexPolygon((deduped[0],))
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
    return ConvexPolygon(tuple(lower[:-1] + upper[:-1]))


def canonical_from_ccw(points: Sequence[Point2]) -> ConvexPolygon:
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
    if len(pts) <= 2:
        return segment(pts[0], pts[-1])
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
    return ConvexPolygon(tuple(pts[k:] + pts[:k]))


def _edges_from_bottom(verts: Sequence[Point2]) -> tuple[list[Point2], Point2]:
    """Edge vectors traversed CCW from the bottom (then leftmost) vertex."""
    n = len(verts)
    k = min(range(n), key=lambda i: (verts[i].y, verts[i].x))
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
    """Edge-merge Minkowski sum, re-canonicalised from its boundary list."""
    if len(p.vertices) == 1:
        return translate(q, p.vertices[0])
    if len(q.vertices) == 1:
        return translate(p, q.vertices[0])
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
    return canonical_from_ccw(out)


def clip(polygon: ConvexPolygon, half_plane: HalfPlane) -> Optional[ConvexPolygon]:
    """Boundary-list clip with Fraction crossings, rotated to the smallest
    vertex; None when nothing is left.

    Vertices with non-negative slack are kept in order and each edge whose
    endpoints have strictly opposite signs adds its crossing point; a
    segment has one edge.
    """
    verts = polygon.vertices
    n = len(verts)
    slacks = [slack(half_plane, v) for v in verts]
    if n == 1:
        return polygon if slacks[0] >= 0 else None
    if n == 2:
        su, sv = slacks
        if su >= 0 and sv >= 0:
            return polygon
        if su < 0 and sv < 0:
            return None
        u, v = verts
        w = u + (v - u) * (su / (su - sv))
        return segment(u if su >= 0 else v, w)
    if all(s >= 0 for s in slacks):
        return polygon
    if all(s < 0 for s in slacks):
        return None
    out: list[Point2] = []
    for i in range(n):
        j = (i + 1) % n
        su, sv = slacks[i], slacks[j]
        if su >= 0:
            out.append(verts[i])
        if (su > 0 > sv) or (su < 0 < sv):
            out.append(verts[i] + (verts[j] - verts[i]) * (su / (su - sv)))
    k = min(range(len(out)), key=out.__getitem__)
    return ConvexPolygon(tuple(out[k:] + out[:k]))


def clip_all(polygon: ConvexPolygon, planes: Iterable[HalfPlane]) -> Optional[ConvexPolygon]:
    for plane in planes:
        polygon = clip(polygon, plane)
        if polygon is None:
            break
    return polygon


def contains_point(polygon: ConvexPolygon, p: Point2) -> bool:
    """Membership by the Fraction orientation of p against every edge."""
    verts = polygon.vertices
    n = len(verts)
    if n == 1:
        return verts[0] == p
    if n == 2:
        u, v = verts
        if orient(u, v, p) != 0:
            return False
        d = v - u
        t = dot(p - u, d)
        return 0 <= t <= dot(d, d)
    return all(orient(verts[i], verts[(i + 1) % n], p) >= 0 for i in range(n))


def contains_polygon(polygon: ConvexPolygon, other: ConvexPolygon) -> bool:
    return all(contains_point(polygon, v) for v in other.vertices)


def half_planes(polygon: ConvexPolygon) -> list[HalfPlane]:
    """The package's list: a point's four axis planes, a segment's right and
    left side and its caps at v and at u, a polygon's left sides in edge order."""
    verts = polygon.vertices
    if len(verts) == 1:
        (v,) = verts
        return [HalfPlane(1, 0, v.x), HalfPlane(-1, 0, -v.x), HalfPlane(0, 1, v.y), HalfPlane(0, -1, -v.y)]
    lefts = [HalfPlane(v.y - u.y, u.x - v.x, cross(u, v)) for u, v in edges(polygon)]
    if len(verts) == 2:
        (u, v), (left,) = verts, lefts
        d = v - u
        a, b, c = left.ints
        return [HalfPlane(-a, -b, -c), left, HalfPlane(d.x, d.y, dot(d, v)), HalfPlane(-d.x, -d.y, -dot(d, u))]
    return lefts


def translate(polygon: ConvexPolygon, d: Point2) -> ConvexPolygon:
    return ConvexPolygon(tuple(v + d for v in polygon.vertices))


def _hull_of_union(polygons: Iterable[ConvexPolygon]) -> ConvexPolygon:
    return convex_hull(v for polygon in polygons for v in polygon.vertices)


def _feasible_hull(feasible) -> ConvexPolygon:
    return convex_hull(feasible.points) if isinstance(feasible, PointSet) else feasible


def bisectors(point_set: PointSet, center: Point2) -> list[HalfPlane]:
    """center's bisector against every other site, redundant ones included.

    For a site o the plane is 2(o - c).p <= |o|^2 - |c|^2, the points no
    farther from c than from o, so the closed Voronoi cell of c is the
    intersection of the list; a singleton's list is empty (the whole plane).
    """
    if center not in point_set:
        raise ValueError("center must belong to the point set")
    return [
        HalfPlane(2 * (o.x - center.x), 2 * (o.y - center.y), dot(o, o) - dot(center, center))
        for o in point_set.points
        if o != center
    ]


def cell_pieces(feasible, region: ConvexPolygon) -> list[ConvexPolygon]:
    """The pieces (region ∩ cell(c)) - c of `errdiff.operators.cell_pieces`."""
    if isinstance(feasible, PointSet):
        pieces = [(clip_all(region, bisectors(feasible, c)), c) for c in feasible.points]
        return [translate(piece, -c) for piece, c in pieces if piece is not None]
    verts = feasible.vertices
    if len(verts) == 1:
        return [translate(region, -verts[0])]
    pieces = []
    if len(verts) == 2:
        u, w = verts
        d = w - u
        pieces.append(clip(translate(region, -u), HalfPlane(d.x, d.y, 0)))
        pieces.append(clip(translate(region, -w), HalfPlane(-d.x, -d.y, 0)))
        swept = minkowski_sum(region, segment(-u, -w))
        pieces.append(clip_all(swept, [HalfPlane(d.x, d.y, 0), HalfPlane(-d.x, -d.y, 0)]))
    else:
        n = len(verts)
        normals = [Point2(verts[(i + 1) % n].y - verts[i].y, verts[i].x - verts[(i + 1) % n].x) for i in range(n)]
        for i in range(n):
            n_in, n_out = normals[i - 1], normals[i]
            cone = [HalfPlane(n_in.y, -n_in.x, 0), HalfPlane(-n_out.y, n_out.x, 0)]
            pieces.append(clip_all(translate(region, -verts[i]), cone))
        for i in range(n):
            nrm = normals[i]
            swept = minkowski_sum(region, segment(-verts[i], -verts[(i + 1) % n]))
            ray = [HalfPlane(-nrm.y, nrm.x, 0), HalfPlane(nrm.y, -nrm.x, 0), HalfPlane(-nrm.x, -nrm.y, 0)]
            pieces.append(clip_all(swept, ray))
    if clip_all(feasible, half_planes(region)) is not None:
        pieces.append(ConvexPolygon((ORIGIN,)))
    return [p for p in pieces if p is not None]


def apply_collection(collection: Collection, region: ConvexPolygon) -> ConvexPolygon:
    """One step of the perfect or persistent collection operator."""
    if collection.mode == "perfect":
        return _hull_of_union(
            piece
            for member in collection.sets
            for piece in cell_pieces(member, minkowski_sum(_feasible_hull(member), region))
        )
    return _hull_of_union(
        minkowski_sum(_feasible_hull(member), _hull_of_union(cell_pieces(member, region)))
        for member in collection.sets
    )


def coordinate_bits(poly: ConvexPolygon) -> int:
    """The most bits of any vertex coordinate's numerator or denominator."""
    return max(
        (max(q.numerator.bit_length(), q.denominator.bit_length())
         for v in poly.vertices for q in (v.x, v.y)),
        default=0,
    )


def digest(poly: ConvexPolygon) -> str:
    """sha256 prefix of the vertices written as "x,y;x,y;..."."""
    text = ";".join(f"{v.x},{v.y}" for v in poly.vertices)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def project_convex_polygon(polygon: ConvexPolygon, z: Point2) -> Point2:
    """Closest point: z itself inside, else the best vertex or edge foot by (dist^2, point)."""
    if contains_point(polygon, z):
        return z
    if len(polygon.vertices) == 1:
        return polygon.vertices[0]
    best = None
    for u, v in edges(polygon):
        d = v - u
        t = dot(z - u, d) / dot(d, d)
        if t < 0:
            t = Fraction(0)
        elif t > 1:
            t = Fraction(1)
        candidate = u + d * t
        key = (dist2(candidate, z), candidate)
        if best is None or key < best:
            best = key
    return best[1]


def project_feasible(feasible, z: Point2) -> Point2:
    """Closest feasible point: a site by (dist^2, point), or the polygon projection."""
    if isinstance(feasible, PointSet):
        return min(feasible.points, key=lambda p: (dist2(p, z), p))
    return project_convex_polygon(feasible, z)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def uniform_request(rng, denominator: int):
    """Requests drawn by Fraction arithmetic: the same draws, in the same order, as the package."""

    def rand_unit() -> Fraction:
        return Fraction(rng.randrange(denominator + 1), denominator)

    def policy(advertised: ConvexPolygon) -> Point2:
        verts = advertised.vertices
        if len(verts) == 1:
            return verts[0]
        if len(verts) == 2:
            u, v = verts
            return u + (v - u) * rand_unit()
        xs, ys = [v.x for v in verts], [v.y for v in verts]
        xmin, ymin, xmax, ymax = min(xs), min(ys), max(xs), max(ys)
        for _ in range(200):
            p = Point2(xmin + (xmax - xmin) * rand_unit(), ymin + (ymax - ymin) * rand_unit())
            if contains_point(advertised, p):
                return p
        weights = [Fraction(rng.randrange(1, max(denominator, 2))) for _ in verts]
        total = sum(weights)
        x = sum((v.x * w for v, w in zip(verts, weights)), Fraction(0)) / total
        y = sum((v.y * w for v, w in zip(verts, weights)), Fraction(0)) / total
        return Point2(x, y)

    return policy


def central_step(policy, advertised: ConvexPolygon, x_prev: Point2) -> Point2:
    """One projected gradient step, snapped by rounding the Fraction ratio to the grid."""
    target = x_prev - policy.cost.gradient(x_prev) * policy.step_size
    res = REQUEST_RESOLUTION
    snapped = Point2(round(target.x / res) * res, round(target.y / res) * res)
    return project_convex_polygon(advertised, snapped)


def _room_classes(params: HeaterParams, state: HeaterState):
    """Locked rooms, forced-on contribution, and toggle-eligible rooms."""
    locked = [i for i in range(params.rooms) if state.lock_remaining[i] > 0]
    unlocked = [i for i in range(params.rooms) if state.lock_remaining[i] == 0]
    cold = [i for i in unlocked if state.temps[i] < params.t_min]
    comfort = [i for i in unlocked if params.t_min <= state.temps[i] <= params.t_max]
    base = -sum(
        (params.powers[i] for i in locked if state.on[i]), Fraction(0)
    ) - sum((params.powers[i] for i in cold), Fraction(0))
    return locked, cold, comfort, base


def heater_feasible_set(params: HeaterParams, state: HeaterState) -> tuple[Fraction, ...]:
    _, _, comfort, base = _room_classes(params, state)
    sums = {Fraction(0)}
    for i in comfort:
        sums |= {s + params.powers[i] for s in sums}
    return tuple(sorted({base - s for s in sums}))


def _coldest_subset(order, powers, target):
    def search(idx, remaining, chosen):
        if remaining == 0:
            return chosen
        if idx == len(order):
            return None
        room = order[idx]
        if powers[room] <= remaining:
            found = search(idx + 1, remaining - powers[room], chosen + [room])
            if found is not None:
                return found
        return search(idx + 1, remaining, chosen)

    return search(0, target, [])


def heater_step(params: HeaterParams, state: HeaterState, setpoint: Fraction) -> HeaterState:
    """Decode to the coldest matching rooms, then round the thermal model with round()."""
    setpoint = Fraction(setpoint)
    _, cold, comfort, base = _room_classes(params, state)
    order = sorted(comfort, key=lambda i: (state.temps[i], i))
    heated = _coldest_subset(order, params.powers, base - setpoint)
    if heated is None:
        raise ValueError(f"setpoint {setpoint} is not implementable in this state")
    res = TEMP_RESOLUTION
    on, locks, temps = [], [], []
    for i, (was_on, lock, t) in enumerate(zip(state.on, state.lock_remaining, state.temps)):
        now_on = was_on if lock else (i in cold or i in heated)
        on.append(now_on)
        locks.append(params.lock_steps if now_on != was_on else max(lock - 1, 0))
        heat = params.gain * params.powers[i] if now_on else 0
        temps.append(round((t + params.leak * (params.t_out - t) + heat) / res) * res)
    return HeaterState(on=tuple(on), lock_remaining=tuple(locks), temps=tuple(temps))


def run_resource_loop(source, requests, horizon: int, *, diffusion: bool = True) -> ControllerTrace:
    """The controller loop with no table: every step checks its request by
    the Fraction `contains_point`, implements the projection of error plus
    request, carries the remainder and appends a record of its own, so no
    two steps share a record.  Without diffusion the projection is of the
    request alone and the remainders add up.  The source and the request
    policy are called in the package loop's order."""
    records = []
    error, previous = ORIGIN, None
    for n in range(horizon):
        if source.prediction == "persistent" and n > 0:
            advertised = _feasible_hull(previous)
            request = requests(advertised)
            feasible = source.feasible_set()
        else:
            feasible = source.feasible_set()
            advertised = _feasible_hull(feasible)
            request = requests(advertised)
        if not contains_point(advertised, request):
            raise InfeasibleRequestError(f"request {request} outside advertised set")
        target = error + request if diffusion else request
        implemented = project_feasible(feasible, target)
        residual = target - implemented
        records.append(StepRecord(feasible, advertised, request, implemented, error))
        error = residual if diffusion else error + residual
        source.advance(implemented)
        previous = feasible
    return ControllerTrace(records, error)


def least_squares_slope(ys: Sequence[float]) -> float:
    """Least-squares slope of the points (i, ys[i]) by the centred formula,
    in exact rationals, rounded once."""
    qs = [Fraction(y) for y in ys]
    n = len(qs)
    i_bar = Fraction(n - 1, 2)
    y_bar = sum(qs) / n
    num = sum((i - i_bar) * (y - y_bar) for i, y in enumerate(qs))
    return float(num / sum((i - i_bar) ** 2 for i in range(n)))


def compute_metrics(trace: ControllerTrace, bound_sq) -> ResourceMetrics:
    """The metrics by Point2 sums and Fraction norms."""
    steps = len(trace.records)
    if steps == 0:
        raise ValueError("cannot compute metrics for an empty trace")
    errors = trace.errors()
    norms2 = [e.norm2() for e in errors]
    max_err2 = max(norms2)
    requested = implemented = ORIGIN
    longest = current = 0
    prev = None
    for r in trace.records:
        requested += r.requested
        implemented += r.implemented
        pair = (r.requested, r.implemented)
        current = current + 1 if pair == prev else 1
        prev = pair
        longest = max(longest, current)
    inv = Fraction(1, steps)
    avg_req = requested * inv
    avg_imp = implemented * inv
    if avg_imp - avg_req != (errors[0] - errors[-1]) * inv:
        raise AssertionError("trace violates the exact averaging identity")
    return ResourceMetrics(
        steps=steps,
        max_error_norm2=max_err2,
        final_error=errors[-1],
        average_requested=avg_req,
        average_implemented=avg_imp,
        error_slope=least_squares_slope([math.sqrt(float(q)) for q in norms2]),
        stagnation_steps=longest,
        error_bound_sq=bound_sq,
        bound_satisfied=max_err2 <= bound_sq,
    )


# ---------------------------------------------------------------------------
# Extrapolated limits
# ---------------------------------------------------------------------------


def mpe_limit(samples: Sequence[Sequence[Fraction]]) -> Optional[list[Fraction]]:
    """Minimal polynomial extrapolation of degree m = len(samples) - 2.

    The weights c_0 ... c_m, c_m = 1, with sum_j c_j (x_{j+1} - x_j) = 0 in
    every coordinate, by Gauss-Jordan elimination; the limit sum_j c_j x_j
    / sum_j c_j.  None when the weights are not unique, do not exist or sum
    to 0.
    """
    m = len(samples) - 2
    diffs = [[b - a for a, b in zip(x, y)] for x, y in zip(samples, samples[1:])]
    rows = [[u[i] for u in diffs[:m]] + [-diffs[m][i]] for i in range(len(samples[0]))]
    for col in range(m):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        lead[:] = [v / lead[col] for v in lead]
        for r, other in enumerate(rows):
            if r != col and other[col]:
                rows[r] = [a - other[col] * b for a, b in zip(other, lead)]
    if any(row[m] for row in rows[m:]):
        return None
    weights = [row[m] for row in rows[:m]] + [Fraction(1)]
    total = sum(weights)
    if total == 0:
        return None
    return [sum(c * x[i] for c, x in zip(weights, samples)) / total for i in range(len(samples[0]))]


def nearest_shift(polygon: ConvexPolygon, newest: ConvexPolygon) -> Optional[list[Point2]]:
    """polygon's vertices, cyclically shifted so that the summed squared
    distance to newest's vertices in order is smallest; None on a tie."""
    vs, ws = polygon.vertices, newest.vertices
    costs = [sum(dist2(vs[(k + i) % len(vs)], w) for i, w in enumerate(ws)) for k in range(len(vs))]
    best = min(costs)
    if costs.count(best) > 1:
        return None
    k = costs.index(best)
    return list(vs[k:] + vs[:k])


def extrapolate(
    collection: Collection,
    window: Sequence[ConvexPolygon],
    max_bits: int,
    max_stride: int,
    max_degree: int,
) -> Optional[tuple[ConvexPolygon, bool]]:
    """The extrapolation's search bottom-up: every stride s and degree m from
    1 upward, each on the m + 2 iterates s apart that end at the newest.

    A stride stops at the first degree whose iterates the window does not
    hold, whose rows do not outnumber its unknowns, whose vertex counts
    differ or one of whose iterates has no unique nearest shift.  A
    candidate, the hull of the limit's vertices, counts when it fits the
    bit budget and contains the newest iterate.  The first one the
    collection operator maps to itself is returned with True, or else the
    last one with False; None when none counts.
    """
    newest = window[-1]
    count, last = len(newest.vertices), len(window) - 1
    found = None
    for s in range(1, max_stride + 1):
        for m in range(1, max_degree + 1):
            picks = [last - s * t for t in range(m + 1, -1, -1)]
            if picks[0] < 0 or 2 * count <= m:
                break
            if any(len(window[i].vertices) != count for i in picks):
                break
            aligned = [nearest_shift(window[i], newest) for i in picks]
            if None in aligned:
                break
            limit = mpe_limit([coords(*vs) for vs in aligned])
            if limit is None:
                continue
            candidate = convex_hull(Point2(*limit[i : i + 2]) for i in range(0, len(limit), 2))
            if coordinate_bits(candidate) > max_bits or not contains_polygon(candidate, newest):
                continue
            if apply_collection(collection, candidate) == candidate:
                return candidate, True
            found = candidate, False
    return found


def support_gap(outer: ConvexPolygon, inner: ConvexPolygon) -> Fraction:
    """The largest squared distance from an edge line of outer to inner, for
    inner inside outer; 0 for a one-point outer."""
    return max(
        (
            min(cross(v - u, w - u) for w in inner.vertices) ** 2 / dist2(u, v)
            for u, v in edges(outer)
        ),
        default=Fraction(0),
    )


# ---------------------------------------------------------------------------
# The trace writers
# ---------------------------------------------------------------------------


def row(index: Sequence, values: Sequence[Fraction]) -> list:
    """Index columns, then each rational exactly, then each as a float."""
    return [*index, *map(str, values), *map(float, values)]


def coords(*points: Point2) -> list[Fraction]:
    return [c for p in points for c in (p.x, p.y)]
