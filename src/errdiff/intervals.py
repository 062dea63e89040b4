"""The exact one-dimensional theory: interval unions and their error-set iteration.

For a finite 1D feasible set the error-set operator maps a region R to
``U_c ((R + [min S, max S]) ∩ cell(c)) - c``, the cells being the midpoint
intervals of the sorted sites.  Its iterates are genuinely non-convex
(unions of intervals) before they fill in, and its fixed point from {0} is
[-gap/2, gap/2], gap the largest step between consecutive sites of the
collection (`max_step_size`).

The module is the independent oracle for the 2-D kernel: it shares none of
its code, and takes only `as_fraction` and `RationalLike` from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .geometry import RationalLike, as_fraction


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint, non-touching closed intervals [lo, hi].

    The constructor normalizes: intervals are coerced to Fractions, sorted,
    and overlapping or touching intervals are merged, so structural equality
    coincides with set equality.  A union is never empty: the constructor
    refuses one with no interval.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pairs = []
        for lo, hi in self.intervals:
            lo, hi = as_fraction(lo), as_fraction(hi)
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] is inverted")
            pairs.append((lo, hi))
        pairs.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                prev_lo, prev_hi = merged[-1]
                merged[-1] = (prev_lo, max(prev_hi, hi))
            else:
                merged.append((lo, hi))
        if not merged:
            raise ValueError("an interval union needs at least one interval")
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def singleton(cls, x: RationalLike) -> "IntervalUnion":
        x = as_fraction(x)
        return cls(((x, x),))

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        return cls(((as_fraction(lo), as_fraction(hi)),))

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.intervals + other.intervals)

    def bounds(self) -> tuple[Fraction, Fraction]:
        return self.intervals[0][0], self.intervals[-1][1]


def _scalar_values(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """The distinct sites of a 1D feasible set, sorted."""
    vals = tuple(sorted({as_fraction(v) for v in values}))
    if not vals:
        raise ValueError("1D feasible set must be non-empty")
    return vals


def max_step_size(sets: Iterable[Iterable[RationalLike]]) -> Fraction:
    """Largest gap between consecutive points over all 1D sets (0 for singletons)."""
    members = [_scalar_values(values) for values in sets]
    if not members:
        raise ValueError("collection must be non-empty")
    return max((b - a for vals in members for a, b in zip(vals, vals[1:])), default=Fraction(0))


def apply_g_interval(values: Iterable[RationalLike], region: IntervalUnion) -> IntervalUnion:
    """One-dimensional error-set operator for a single finite set.

    Each interval of the region is fattened by the hull [min S, max S] of
    the set, cut to each site's midpoint cell and recentred on the site;
    the pieces are normalised once, into their union.  The cells tile the
    line, so the image of a union is never empty.
    """
    vals = _scalar_values(values)
    fattened = [(a + vals[0], b + vals[-1]) for a, b in region.intervals]
    pieces = []
    for i, c in enumerate(vals):
        cell_lo = (vals[i - 1] + c) / 2 if i > 0 else None
        cell_hi = (c + vals[i + 1]) / 2 if i + 1 < len(vals) else None
        for a, b in fattened:
            if cell_lo is not None:
                a = max(a, cell_lo)
            if cell_hi is not None:
                b = min(b, cell_hi)
            if a <= b:
                pieces.append((a - c, b - c))
    return IntervalUnion(tuple(pieces))


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
        grown = IntervalUnion(
            tuple(iv for vals in members for iv in apply_g_interval(vals, current).intervals)
        )
        if grown == current:
            return current
        current = grown
    raise RuntimeError(f"1D iteration did not reach a fixed point in {max_iterations} steps")
