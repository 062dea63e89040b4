#!/usr/bin/env python3
"""Exact one-dimensional theory: the largest gap decides everything.

For finite 1D feasible sets the minimal invariant error interval is
[-gap/2, gap/2], where gap is the largest distance between consecutive
points across the whole collection.  The interval engine iterates unions
of intervals exactly (no convexification) and lands on that answer; random
closed-loop simulation never escapes it.
"""

import random
from fractions import Fraction

from errdiff.intervals import IntervalUnion, apply_g_interval, iterate_1d, max_step_size
from errdiff.resources import heater_error_bound

collection = [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(3))]
print(f"collection: {[[str(v) for v in s] for s in collection]}")

# watch the non-convex iterates fill in
region = IntervalUnion.singleton(0)
for k in range(4):
    pieces = [f"[{a}, {b}]" for a, b in region.intervals]
    print(f"  iterate {k}: {' u '.join(pieces)}")
    grown = IntervalUnion(
        tuple(iv for values in collection for iv in apply_g_interval(values, region).intervals)
    )
    if grown == region:
        break
    region = grown

gap = max_step_size(collection)
fixed = iterate_1d(collection, IntervalUnion.singleton(0))
print(f"fixed point: [{fixed.bounds()[0]}, {fixed.bounds()[1]}]  (gap/2 = {gap / 2})")

# closed-loop: the trajectory never leaves the fixed point
rng = random.Random(1)
e = Fraction(0)
worst = Fraction(0)
for _ in range(20000):
    values = collection[rng.randrange(len(collection))]
    lo, hi = min(values), max(values)
    x = lo + (hi - lo) * Fraction(rng.randrange(1001), 1000)
    z = e + x
    y = min(values, key=lambda v: (abs(v - z), v))
    e = z - y
    worst = max(worst, abs(e))
print(f"20000 random steps: max |e| = {worst} <= {gap / 2}")

# the heater special case: the bound is half the largest heater power
print(f"\nheater bank (1, 2, 3) kW error bound: {heater_error_bound([1, 2, 3])} kW")
