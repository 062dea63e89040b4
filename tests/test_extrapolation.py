"""Exact limits by minimal polynomial extrapolation, verified before use."""

import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errdiff.certificate import certify_invariant
from errdiff.geometry import ORIGIN, ConvexPolygon, Point2, PointSet, convex_hull
from errdiff.operators import (
    _MAX_DEGREE,
    _MAX_STRIDE,
    _WINDOW,
    Collection,
    IterationConfig,
    _cyclic_dots,
    _extrapolate,
    _floats,
    _gap,
    _mpe_limit,
    _screened_shift,
    _shift_to,
    check_invariance,
    iterate_to_invariance,
)
from errdiff.verify import load_golden_polygon, three_set_family

import fraction_kernel as oracle
from conftest import BENCHMARK_COLLECTIONS, STALL_COLLECTION, points, poly
from test_population import CONFIG as POPULATION_CONFIG
from test_population import EXACT_CHAIN_ENDS, _collections, _results

ORIGIN_POLY = ConvexPolygon((ORIGIN,))
# The budgets of the benchmark's random collections and of operator-properties.
TIGHT = IterationConfig(max_iterations=250, max_coordinate_bits=192)
FAMILY3 = IterationConfig(max_iterations=600)


def _limit(samples):
    """_mpe_limit of Fraction vectors, as Fractions."""
    den = math.lcm(*(q.denominator for x in samples for q in x))
    found = _mpe_limit([(den, [int(q * den) for q in x]) for x in samples])
    if found is None:
        return None
    nums, total = found
    return [Fraction(n, total) for n in nums]


X_STAR = [Fraction(3), Fraction(-1, 2), Fraction(5, 7), Fraction(0), Fraction(2, 3)]
A = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(0)]
B = [Fraction(-2), Fraction(1), Fraction(0), Fraction(4), Fraction(1, 5)]


def _two_rates(k):
    lam, mu = Fraction(1, 2), Fraction(-1, 3)
    return [x + a * lam**k + b * mu**k for x, a, b in zip(X_STAR, A, B)]


class TestMPE:
    @pytest.mark.parametrize("start", [0, 1, 5])
    def test_degree_two_returns_the_limit_exactly(self, start):
        assert _limit([_two_rates(k) for k in range(start, start + 4)]) == X_STAR

    @pytest.mark.parametrize("start", [0, 1, 5])
    def test_degree_one_is_rejected_on_two_rates(self, start):
        assert _limit([_two_rates(k) for k in range(start, start + 3)]) is None

    def test_one_rate_needs_degree_one(self):
        seq = [[x + a * Fraction(2, 3) ** k for x, a in zip(X_STAR, A)] for k in range(3)]
        assert _limit(seq) == X_STAR

    def test_no_finite_recurrence_is_never_accepted(self):
        # x_k = (1/k, 1/k^2, ..., 1/k^5) obeys no recurrence of degree <= 4.
        def harmonic(k):
            return [Fraction(1, k**p) for p in range(1, 6)]

        for m in range(1, 5):
            for start in range(1, 30):
                assert _limit([harmonic(k) for k in range(start, start + m + 2)]) is None

    def test_arithmetic_growth_has_no_limit(self):
        # The weights exist but sum to zero: the chain grows without bound.
        d = [Fraction(1), Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)]
        seq = [[x + k * dx for x, dx in zip(X_STAR, d)] for k in range(3)]
        assert _limit(seq) is None


def _swapped(p):
    return Point2(p.y, p.x)


def _swap(member):
    if isinstance(member, PointSet):
        return PointSet(tuple(_swapped(p) for p in member.points))
    return convex_hull(_swapped(p) for p in member.vertices)


CASES = {"family3": (three_set_family(), FAMILY3)}
CASES.update({f"collection-{i}": (c, TIGHT) for i, c in BENCHMARK_COLLECTIONS.items()})


@pytest.mark.parametrize("name", sorted(CASES))
def test_axis_swap_equivariance(name):
    collection, config = CASES[name]
    mirrored = Collection(tuple(_swap(m) for m in collection.sets), collection.mode)
    result = iterate_to_invariance(collection, ORIGIN_POLY, config)
    swapped = iterate_to_invariance(mirrored, ORIGIN_POLY, config)
    assert result.status == swapped.status == "extrapolated"
    assert result.iterations == swapped.iterations
    assert swapped.invariant_set == _swap(result.invariant_set)


@pytest.mark.parametrize("name", sorted(CASES))
def test_extrapolated_answers_are_verified(name):
    collection, config = CASES[name]
    result = iterate_to_invariance(collection, ORIGIN_POLY, config)
    answer = result.invariant_set
    assert result.converged and not result.aborted
    assert answer.contains_polygon(ORIGIN_POLY)
    assert check_invariance(collection, answer)
    assert certify_invariant(collection, answer)
    assert not certify_invariant(collection, convex_hull(answer.vertices[1:]))


def test_no_state_survives_a_call():
    family = three_set_family()
    first = iterate_to_invariance(family, ORIGIN_POLY, FAMILY3)
    other = iterate_to_invariance(BENCHMARK_COLLECTIONS[19], ORIGIN_POLY, TIGHT)
    assert first == iterate_to_invariance(family, ORIGIN_POLY, FAMILY3)
    assert other == iterate_to_invariance(BENCHMARK_COLLECTIONS[19], ORIGIN_POLY, TIGHT)


# Collections drawn like operator-properties whose limits are found late: at
# stride 2 and degree 2, stride 1 and degree 2, and stride 2 and degree 1.
# Every stride and degree must stay in the search at every step to reach them.
LATE = {
    23: Collection((points((-1, 2), (1, -1), (3, -2), (6, -6)),), "perfect"),
    19: Collection((points((0, 3)), points((0, 6), (2, 3), (4, -6), (4, 0))), "perfect"),
    14: Collection((points((-5, -5), (-5, 4), (1, 6), (2, 4), (3, -6), (4, 6)),), "perfect"),
}


@pytest.mark.parametrize("step", sorted(LATE))
def test_late_limits_are_found(step):
    collection = LATE[step]
    result = iterate_to_invariance(collection, ORIGIN_POLY, TIGHT)
    assert (result.status, result.iterations) == ("extrapolated", step)
    assert check_invariance(collection, result.invariant_set)
    assert certify_invariant(collection, result.invariant_set)


def test_family3_golden_polygon_at_step_six():
    result = iterate_to_invariance(three_set_family(), ORIGIN_POLY, FAMILY3)
    assert (result.status, result.iterations) == ("extrapolated", 6)
    assert result.invariant_set == load_golden_polygon()
    assert result.vertex_counts == [1, 6, 8, 8, 8, 8, 8]


def test_four_point_set_answered_at_step_six():
    collection = Collection((points((0, 0), (3, 1), (-1, 2), (2, -2)),), "perfect")
    result = iterate_to_invariance(collection, ORIGIN_POLY, IterationConfig(max_iterations=200))
    answer = result.invariant_set
    assert (result.status, result.iterations) == ("extrapolated", 6)
    assert len(answer.vertices) == 7
    assert max(q.denominator for v in answer.vertices for q in (v.x, v.y)) == 238
    assert certify_invariant(collection, answer)


def test_rounding_overshoots_where_extrapolation_is_minimal():
    # operator-properties collection 58.  Rounding snapped the chain past
    # its limit onto a larger fixed point; it still passes both checks.
    collection = Collection((points((-3, -1), (0, 1), (5, 0)),), "perfect")
    rounded = poly(
        (Fraction(-9, 2), Fraction(158779571549, 45365592064)),
        (Fraction(-33, 10), Fraction(-61, 10)),
        (Fraction(47, 10), Fraction(-51, 10)),
        (Fraction(7, 2), Fraction(9, 2)),
        (Fraction(-3, 2), Fraction(11, 2)),
        (Fraction(-9, 2), Fraction(7, 2)),
    )
    result = iterate_to_invariance(collection, ORIGIN_POLY, TIGHT)
    answer = result.invariant_set
    assert result.status == "extrapolated" and len(answer.vertices) == 5
    assert rounded.contains_polygon(answer) and rounded != answer
    for q in (rounded, answer):
        assert check_invariance(collection, q) and certify_invariant(collection, q)


class TestScreenedAlignment:
    """The float screen of the cyclic alignment certifies a shift or defers to `_shift_to`."""

    @staticmethod
    def _screen(flat, newest):
        return _screened_shift(_floats(1, flat), _floats(1, newest))

    def test_exact_tie_is_left_to_the_exact_path(self):
        flat, newest = [1, 0, -1, 0], [0, 1, 0, -1]
        assert _shift_to(flat, newest) is None
        assert self._screen(flat, newest) is None

    def test_dots_one_apart_at_200_bits_are_not_certified(self):
        """dot(shift 0) - dot(shift 2) is -1, 0 or 1 while both are near 2**400."""
        rng = random.Random(3)
        big = 2**200
        for _ in range(100):
            p, q, t, a, b = (rng.randint(-big, big) for _ in range(5))
            newest = [p, q, p - 1, t]
            for diff in (-1, 0, 1):
                flat = [a, b, a - diff + q - t, b - 1]
                dots = [sum(x * y for x, y in zip(flat[k:] + flat[:k], newest)) for k in (0, 2)]
                assert dots[0] - dots[1] == diff
                assert _shift_to(flat, newest) == {-1: 2, 0: None, 1: 0}[diff]
                assert self._screen(flat, newest) is None

    def test_agrees_with_the_exact_shift(self):
        rng = random.Random(11)
        certified = 0
        for _ in range(300):
            n = 2 * rng.randint(1, 8)
            scale = rng.choice([1, 2**60, 2**200])
            flat = [rng.randint(-9, 9) * scale + rng.randint(-3, 3) for _ in range(n)]
            newest = [rng.randint(-9, 9) * scale for _ in range(n)]
            screened = self._screen(flat, newest)
            if screened is not None:
                certified += 1
                assert screened == _shift_to(flat, newest)
        assert certified > 200

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-(2**200), 2**200), min_size=2 * n, max_size=2 * n),
                min_size=2,
                max_size=2,
            )
        )
    )
    def test_cyclic_dots_equal_the_two_slice_sums(self, pair):
        """Each shift's one sum over the doubled list equals its sum over
        the two slices of xs either side of the shift."""
        xs, ys = pair
        size = len(xs)
        want = [
            sum(x * y for x, y in zip(xs[k:], ys)) + sum(x * y for x, y in zip(xs[:k], ys[size - k :]))
            for k in range(0, size, 2)
        ]
        assert _cyclic_dots(xs, ys) == want

    def test_floats_out_of_range_are_not_screened(self):
        assert _floats(1, [10**400, 0]) is None
        assert _floats(10**400, [1, 0]) is None  # would underflow to 0.0
        assert _floats(1, [0, 3]) == ([0.0, 3.0], 3.0)


# ---------------------------------------------------------------------------
# The top-down search against the bottom-up oracle
# ---------------------------------------------------------------------------

# A strictly convex octagon: shrinking each vertex of any subset of it
# toward the origin by up to a tenth keeps the subset strictly convex.
OCTAGON = [(100, 0), (70, 70), (0, 100), (-70, 70), (-100, 0), (-70, -70), (0, -100), (70, -70)]
# The operator of a one-point member maps every region to itself, so it
# accepts every candidate that counts; the stall collection's maps none of
# these windows' candidates to itself, so they become restart points.
IDENTITY = Collection((points((0, 0)),), "perfect")


def _shrink(family, k, a, b):
    """The shrink factor at step k of one vertex, following a `TestMPE`
    family with coefficients 0 < a <= 1/10 and |b| <= a/2: positive, so
    the window grows inside the octagon, except under arithmetic growth."""
    if family == "two rates":
        return a * Fraction(1, 2) ** k + b * Fraction(-1, 3) ** k
    if family == "one rate":
        return a * Fraction(2, 3) ** k
    if family == "harmonic":
        return a / k**2
    return -k * a / 16  # arithmetic growth


@st.composite
def family_windows(draw):
    """Windows of polygons whose vertices shrink toward a subset of
    `OCTAGON` by a `TestMPE` family, one pair of coefficients per vertex.
    On the one-rate and two-rate families the top degree is undetermined,
    so the search falls back."""
    family = draw(st.sampled_from(["two rates", "one rate", "harmonic", "arithmetic"]))
    corners = sorted(draw(st.sets(st.sampled_from(OCTAGON), min_size=3)), key=OCTAGON.index)
    coefficients = []
    for _ in corners:
        a = draw(st.fractions(Fraction(1, 100), Fraction(1, 10), max_denominator=100))
        b = draw(st.fractions(-a / 2, a / 2, max_denominator=200))
        coefficients.append((a, b))
    start = draw(st.integers(1, 6))
    window = []
    for k in range(start, start + draw(st.integers(3, _WINDOW))):
        window.append(convex_hull(
            Point2(x, y) * (1 - _shrink(family, k, a, b))
            for (x, y), (a, b) in zip(corners, coefficients)
        ))
    return window


def _search(collection, window, max_bits):
    """`_extrapolate` on a window of these polygons, and the oracle's answer."""
    got = _extrapolate(collection, deque([[p, None] for p in window]), max_bits)
    return got, oracle.extrapolate(collection, window, max_bits, _MAX_STRIDE, _MAX_DEGREE)


@settings(max_examples=60, deadline=None)
@given(
    family_windows(),
    st.sampled_from([IDENTITY, STALL_COLLECTION]),
    st.sampled_from([24, 40, 192]),
)
def test_top_down_search_agrees_on_family_windows(window, collection, max_bits):
    """The same accepted candidate, or the same restart point, as the search
    from degree 1 upward."""
    got, want = _search(collection, window, max_bits)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_top_down_search_agrees_on_population_windows(data):
    results = _results(1)
    index = data.draw(st.sampled_from([i for i, r in enumerate(results) if len(r.iterates) > 2]))
    chain = results[index].iterates
    end = data.draw(st.integers(2, len(chain) - 1))
    window = chain[max(0, end + 1 - _WINDOW) : end + 1]
    got, want = _search(_collections(1)[index], window, POPULATION_CONFIG.max_coordinate_bits)
    assert got == want


@pytest.mark.parametrize("index", sorted(EXACT_CHAIN_ENDS))
def test_top_down_search_agrees_on_every_window_of_a_restarted_chain(index):
    """Every window of the exact chains that leave restart points, so every
    restart point they keep is the oracle's."""
    chain, kept = _results(1)[index].iterates, 0
    for end in range(2, len(chain)):
        window = chain[max(0, end + 1 - _WINDOW) : end + 1]
        got, want = _search(_collections(1)[index], window, POPULATION_CONFIG.max_coordinate_bits)
        assert got == want
        kept += want is not None and not want[1]
    assert kept > 0


coordinates = st.integers(-30, 30)


@given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=12), st.data())
def test_gap_equals_the_oracle_on_nested_polygons(coords, data):
    """inner is the hull of midpoints of outer's points, so it lies inside."""
    pts = [Point2(x, y) for x, y in coords]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), min_size=1))
    outer = convex_hull(pts)
    inner = convex_hull((p + q) * Fraction(1, 2) for p, q in pairs)
    assert _gap(outer, inner) == oracle.support_gap(outer, inner)



def test_strides_with_different_limits_keep_the_first_fixed_point_and_the_last_refusal():
    """Every vertex of the window shrinks toward the octagon by one factor,
    geometric over the newest four iterates, and iterate 4 is set so that
    iterates 4, 6 and 8 are geometric toward the octagon grown by 1/100.
    So stride 1 extrapolates the octagon and stride 2 the grown one."""
    a, r, grow = Fraction(1, 10), Fraction(1, 2), Fraction(1, 100)
    shrink = {k: a * r**k for k in range(5, 9)}
    shrink[4] = -grow + (shrink[6] + grow) ** 2 / (shrink[8] + grow)
    shrink.update({k: a * 2 ** (3 - k) for k in range(4)})
    window = [convex_hull(Point2(x, y) * (1 - shrink[k]) for x, y in OCTAGON) for k in range(9)]
    octagon = convex_hull(Point2(x, y) for x, y in OCTAGON)
    grown = convex_hull(Point2(x, y) * (1 + grow) for x, y in OCTAGON)
    for collection, want in ((IDENTITY, (octagon, True)), (STALL_COLLECTION, (grown, False))):
        got, oracle_got = _search(collection, window, 192)
        assert got == oracle_got == want
