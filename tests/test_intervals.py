from fractions import Fraction

import pytest

from errdiff.intervals import IntervalUnion

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

    def test_empty_allowed(self):
        assert IntervalUnion.EMPTY.is_empty
        assert not iu((0, 0)).is_empty


class TestOperations:
    def test_translate(self):
        assert iu((0, 1), (3, 4)).translate(Fraction(-1, 2)) == iu(("-1/2", "1/2"), ("5/2", "7/2"))

    def test_add_interval_merges_gaps(self):
        assert iu((0, 0), (2, 2)).add_interval(Fraction(-1), Fraction(1)) == iu((-1, 3))

    def test_clip_bounded_and_unbounded(self):
        u = iu((0, 2), (4, 6))
        assert u.clip(Fraction(1), Fraction(5)) == iu((1, 2), (4, 5))
        assert u.clip(None, Fraction(1)) == iu((0, 1))
        assert u.clip(Fraction(5), None) == iu((5, 6))
        assert u.clip(Fraction(10), None).is_empty

    def test_union(self):
        assert iu((0, 1)).union(iu((1, 3))) == iu((0, 3))

    def test_contains(self):
        u = iu((0, 1), (2, 3))
        assert interval_contains(u, Fraction(1, 2))
        assert interval_contains(u, 1)
        assert not interval_contains(u, Fraction(3, 2))

    def test_bounds(self):
        assert iu((0, 1), (4, 9)).bounds() == (Fraction(0), Fraction(9))
        with pytest.raises(ValueError):
            IntervalUnion.EMPTY.bounds()
