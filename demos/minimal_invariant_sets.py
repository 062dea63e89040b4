#!/usr/bin/env python3
"""Minimal invariant error sets for greedy setpoint tracking.

A local controller that implements the feasible point closest to
request-plus-carried-error keeps its accumulated error inside a fixed
region: the minimal invariant set of the error dynamics.  This script
computes that region exactly for two collections of feasible sets and
prints the iteration behavior.
"""

from errdiff import ConvexPolygon, ORIGIN, PointSet
from errdiff.operators import Collection, IterationConfig, check_invariance, iterate_to_invariance

SEED = ConvexPolygon((ORIGIN,))


def show(label, result):
    print(f"\n{label}")
    print(f"  status:      {result.status} after {result.iterations} growing iterations")
    print("  vertices:")
    for v in result.invariant_set.vertices:
        print(f"    ({v.x}, {v.y})")


# ---------------------------------------------------------------------------
# One feasible set: eight points on a rectangular grid.
# The minimal invariant set appears after a single growing iteration.
# ---------------------------------------------------------------------------
grid = PointSet.from_coords([(x, y) for x in (-1, 1, 3, 5) for y in (-1, 1)])
single = Collection((grid,), "perfect")
result = iterate_to_invariance(single, SEED)
show("8-point grid, one feasible set", result)
assert result.iterations == 1

# ---------------------------------------------------------------------------
# Three feasible sets: a ring of eight points with one, then two, points
# missing.  The joint invariant set is much larger than any single-set one,
# and the exact chain never repeats; extrapolation finds its limit at step
# 6 and verifies it as an exact fixed point.
# ---------------------------------------------------------------------------
ring = [(-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0)]
s1 = PointSet.from_coords(ring)
s2 = PointSet.from_coords([c for c in ring if c != (0, -1)])
s3 = PointSet.from_coords([c for c in ring if c not in ((0, -1), (-1, -1))])

family = Collection((s1, s2, s3), "perfect")
joint = iterate_to_invariance(family, SEED, IterationConfig(max_iterations=600))
show("three-set family (ring with dropouts)", joint)
assert check_invariance(family, joint.invariant_set)

for label, member in (("full ring", s1), ("one point removed", s2), ("two removed", s3)):
    solo = iterate_to_invariance(Collection((member,), "perfect"), SEED, IterationConfig(max_iterations=600))
    width = max(v.x for v in solo.invariant_set.vertices) - min(v.x for v in solo.invariant_set.vertices)
    print(f"  single-set invariant width for {label}: {width}")

width = max(v.x for v in joint.invariant_set.vertices) - min(v.x for v in joint.invariant_set.vertices)
print(f"  joint invariant width: {width}  (the price of switching between the sets)")
