"""Finite unions of closed rational intervals: the exact 1D region type.

Used by the one-dimensional set iteration, where iterates are genuinely
non-convex (unions of intervals) before they fill in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional

from .geometry import RationalLike, as_fraction


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint, non-touching closed intervals [lo, hi].

    The constructor normalizes: intervals are coerced to Fractions, sorted,
    and overlapping or touching intervals are merged, so structural equality
    coincides with set equality.  The empty union is allowed (it shows up as
    an intermediate value when clipping).
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
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def singleton(cls, x: RationalLike) -> "IntervalUnion":
        x = as_fraction(x)
        return cls(((x, x),))

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        return cls(((as_fraction(lo), as_fraction(hi)),))

    EMPTY: ClassVar["IntervalUnion"]

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion(self.intervals + other.intervals)

    def translate(self, d: RationalLike) -> "IntervalUnion":
        d = as_fraction(d)
        return IntervalUnion(tuple((lo + d, hi + d) for lo, hi in self.intervals))

    def add_interval(self, lo: RationalLike, hi: RationalLike) -> "IntervalUnion":
        """Minkowski sum with the closed interval [lo, hi]."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError("interval is inverted")
        return IntervalUnion(tuple((a + lo, b + hi) for a, b in self.intervals))

    def clip(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> "IntervalUnion":
        """Intersection with [lo, hi]; None leaves that side unbounded."""
        kept = []
        for a, b in self.intervals:
            if lo is not None:
                a = max(a, lo)
            if hi is not None:
                b = min(b, hi)
            if a <= b:
                kept.append((a, b))
        return IntervalUnion(tuple(kept))

    def bounds(self) -> tuple[Fraction, Fraction]:
        if self.is_empty:
            raise ValueError("empty interval union has no bounds")
        return self.intervals[0][0], self.intervals[-1][1]


IntervalUnion.EMPTY = IntervalUnion(())
