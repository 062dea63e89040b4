import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errdiff import intervals
from errdiff.intervals import IntervalUnion, apply_g_interval

from fraction_kernel import interval_contains


def iu(*pairs):
    return IntervalUnion(tuple((Fraction(a), Fraction(b)) for a, b in pairs))


class TestNormalization:
    def test_sorted_and_merged(self):
        u = iu((3, 4), (0, 1), (1, 2))
        assert u.intervals == ((Fraction(0), Fraction(2)), (Fraction(3), Fraction(4)))

    def test_touching_intervals_merge(self):
        assert iu((0, 1), (1, 2)) == iu((0, 2))

    def test_overlap_merges(self):
        assert iu((0, 3), (1, 2), (2, 5)) == iu((0, 5))

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            iu((2, 1))

    def test_empty_refused(self):
        with pytest.raises(ValueError, match="at least one interval"):
            IntervalUnion(())
        assert iu((0, 0)).intervals == ((Fraction(0), Fraction(0)),)


class TestOperations:
    def test_union(self):
        assert iu((0, 1)).union(iu((1, 3))) == iu((0, 3))

    def test_contains(self):
        u = iu((0, 1), (2, 3))
        assert interval_contains(u, Fraction(1, 2))
        assert interval_contains(u, 1)
        assert not interval_contains(u, Fraction(3, 2))

    def test_bounds(self):
        assert iu((0, 1), (4, 9)).bounds() == (Fraction(0), Fraction(9))
        assert iu((2, 2)).bounds() == (Fraction(2), Fraction(2))


def in_image(values, region, t) -> bool:
    """t in G(R), by definition: some site c has t + c in its midpoint cell
    and in R + [min S, max S]."""
    sites = sorted(set(values))
    lo, hi = sites[0], sites[-1]
    for i, c in enumerate(sites):
        x = t + c
        if i > 0 and x < (sites[i - 1] + c) / 2:
            continue
        if i + 1 < len(sites) and x > (c + sites[i + 1]) / 2:
            continue
        if any(a + lo <= x <= b + hi for a, b in region.intervals):
            return True
    return False


halves = st.integers(-20, 20).map(lambda k: Fraction(k, 2))


@st.composite
def regions(draw):
    pairs = draw(st.lists(st.tuples(halves, st.integers(0, 6)), min_size=1, max_size=4))
    return IntervalUnion(tuple((a, a + Fraction(w, 2)) for a, w in pairs))


class TestApplyG:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(halves, min_size=1, max_size=6), regions())
    def test_equals_pointwise_definition(self, values, region):
        """Probed at every endpoint the image can have (the result's, each
        cell's and each fattened region interval's, moved by -c), at every
        midpoint between neighbouring probes and just outside each probe."""
        got = apply_g_interval(values, region)
        sites = sorted(set(values))
        ends = {e for pair in got.intervals for e in pair}
        for i, c in enumerate(sites):
            for a, b in region.intervals:
                ends.update((a + sites[0] - c, b + sites[-1] - c))
            ends.update((s - c) / 2 for s in sites[max(i - 1, 0) : i + 2])
        ends = sorted(ends)
        gap = min((b - a for a, b in zip(ends, ends[1:])), default=Fraction(1))
        probes = set(ends)
        probes.update((a + b) / 2 for a, b in zip(ends, ends[1:]))
        probes.update(e + d for e in ends for d in (-gap / 3, gap / 3))
        for t in probes:
            assert interval_contains(got, t) == in_image(values, region, t), t

    def test_fills_a_gap(self):
        # Sites 0 and 1: the fattened region [0, 1] splits at the midpoint 1/2.
        assert apply_g_interval([0, 1], IntervalUnion.singleton(0)) == iu(("-1/2", "1/2"))
        assert apply_g_interval([0, 3], iu((0, 0))) == iu(("-3/2", "3/2"))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            apply_g_interval([], iu((0, 0)))


def test_shares_no_kernel_code():
    """The 1D theory is an independent oracle for the 2D kernel: it takes
    only the rational coercion from the package."""
    tree = ast.parse(Path(intervals.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("errdiff")):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("errdiff") for alias in node.names)
    assert imported == {"as_fraction", "RationalLike"}
