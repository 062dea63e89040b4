"""Reference kernel: the exact 2-D algorithms written over `Fraction` coordinates.

This is the straightforward form of `clip`, `convex_hull`, `minkowski_sum`,
translation and polygon containment that `errdiff.geometry` runs on
integer homogeneous triples, and of one collection-operator step
(`cell_pieces`, `apply_collection`) assembled from them.  Only the tests
import it, as an oracle: every function here must return exactly what its
counterpart in the package returns.  Of the package it uses the value
types, their Fraction arithmetic, `orient` and `voronoi_cell`, and it
builds its polygons with the validating `ConvexPolygon` constructor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from errdiff.geometry import (
    EMPTY_POLYGON,
    ORIGIN,
    ConvexPolygon,
    HalfPlane,
    Point2,
    PointSet,
    orient,
    voronoi_cell,
)
from errdiff.operators import Collection


def cross(u: Point2, v: Point2) -> Fraction:
    return u.x * v.y - u.y * v.x


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
    n = len(deduped)
    if n == 0:
        return EMPTY_POLYGON
    if n == 1:
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
    if not pts:
        return EMPTY_POLYGON
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
    return canonical_from_ccw(out)


def clip(polygon: ConvexPolygon, half_plane: HalfPlane) -> ConvexPolygon:
    """Boundary-list clip with Fraction crossings, rotated to the smallest vertex.

    Vertices with non-negative slack are kept in order and each edge whose
    endpoints have strictly opposite signs adds its crossing point; a
    segment has one edge.
    """
    verts = polygon.vertices
    n = len(verts)
    if n == 0:
        return EMPTY_POLYGON
    slacks = [half_plane.slack(v) for v in verts]
    if n == 1:
        return polygon if slacks[0] >= 0 else EMPTY_POLYGON
    if n == 2:
        su, sv = slacks
        if su >= 0 and sv >= 0:
            return polygon
        if su < 0 and sv < 0:
            return EMPTY_POLYGON
        u, v = verts
        w = u + (v - u) * (su / (su - sv))
        return segment(u if su >= 0 else v, w)
    if all(s >= 0 for s in slacks):
        return polygon
    if all(s < 0 for s in slacks):
        return EMPTY_POLYGON
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


def clip_all(polygon: ConvexPolygon, planes: Iterable[HalfPlane]) -> ConvexPolygon:
    for plane in planes:
        polygon = clip(polygon, plane)
        if polygon.is_empty:
            break
    return polygon


def contains_point(polygon: ConvexPolygon, p: Point2) -> bool:
    """Membership by the Fraction orientation of p against every edge."""
    verts = polygon.vertices
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
    return all(orient(verts[i], verts[(i + 1) % n], p) >= 0 for i in range(n))


def contains_polygon(polygon: ConvexPolygon, other: ConvexPolygon) -> bool:
    return all(contains_point(polygon, v) for v in other.vertices)


def translate(polygon: ConvexPolygon, d: Point2) -> ConvexPolygon:
    return ConvexPolygon(tuple(v + d for v in polygon.vertices))


def _hull_of_union(polygons: Iterable[ConvexPolygon]) -> ConvexPolygon:
    return convex_hull(v for polygon in polygons for v in polygon.vertices)


def _feasible_hull(feasible) -> ConvexPolygon:
    return convex_hull(feasible.points) if isinstance(feasible, PointSet) else feasible


def cell_pieces(feasible, region: ConvexPolygon) -> list[ConvexPolygon]:
    """The pieces (region ∩ cell(c)) - c of `errdiff.operators.cell_pieces`."""
    if isinstance(feasible, PointSet):
        pieces = [(clip_all(region, voronoi_cell(feasible, c)), c) for c in feasible.points]
        return [translate(piece, -c) for piece, c in pieces if not piece.is_empty]
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
    if not clip_all(feasible, region.half_planes()).is_empty:
        pieces.append(ConvexPolygon((ORIGIN,)))
    return [p for p in pieces if not p.is_empty]


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
