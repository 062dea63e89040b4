"""The benchmark population's outcomes, pinned exactly.

The benchmark only checks that every batch of a run ends like its first, so
a kernel change that alters an outcome would pass it.  This test runs the
40 seed-1 collections of `perfbench/inputs.py` with the benchmark's budgets
and pins each one's stop status, iteration count and the sha256 prefix of
its answer's canonical vertex text ("x,y;x,y;..." with each coordinate
written as `str(Fraction)` writes it).  A second pin is the sha256 prefix
of each run's `history_hashes` joined by ";", so every iterate of every
chain is pinned, not only the answer.  The seed-2 collections, placed by
other translations and orderings, are pinned the same way.
"""

import hashlib
import importlib.util
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

from errdiff import operators
from errdiff.certificate import certify_invariant
from errdiff.geometry import ORIGIN, ConvexPolygon, _scaled
from errdiff.operators import (
    _MAX_DEGREE,
    _MAX_STRIDE,
    _WINDOW,
    IterationConfig,
    _digest,
    _floats,
    _within_bits,
    apply_collection,
    check_invariance,
    iterate_to_invariance,
)
from errdiff.serialize import parse_collection

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"

# (status, iterations, vertex-text digest) of each seed-1 collection in order.
PINNED = [
    ("bits", 19, "bf00334e39132479"),
    ("converged", 3, "1b73ead634efef2d"),
    ("extrapolated", 46, "b8f7f77662dbb18f"),
    ("bits", 8, "2f9e62f2efcc29ba"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 8, "6e72094792de763f"),
    ("extrapolated", 17, "d1af3ee75a0e8700"),
    ("converged", 2, "d8f9021a773e5fc5"),
    ("bits", 27, "f5ea5a793b7ec2a9"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 11, "2057f5ec5d376254"),
    ("bits", 8, "6b187b2d6e729016"),
    ("converged", 0, "7334821429a99561"),
    ("converged", 1, "a10f6fd399d86eb5"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 23, "c16a1a51d13a776f"),
    ("bits", 14, "dae93bca8f461179"),
    ("converged", 1, "fbeff9f690d7f190"),
    ("converged", 0, "7334821429a99561"),
    ("extrapolated", 9, "c0959493a576db02"),
    ("bits", 18, "dba149b941917a2f"),
    ("bits", 17, "168d162596112b48"),
    ("extrapolated", 41, "5032c082dd37d9ca"),
    ("extrapolated", 8, "359960d99354425a"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 12, "e1548928b434664e"),
    ("bits", 13, "0386b553f531e367"),
    ("bits", 8, "e9887aa3153588e3"),
    ("converged", 0, "7334821429a99561"),
    ("bits", 35, "796e745e15ebbc8e"),
    ("bits", 10, "d5bc9c34bb10ce58"),
    ("bits", 7, "ed64bd368e8cecf6"),
    ("converged", 0, "7334821429a99561"),
    ("converged", 1, "392181e1a59e0db2"),
    ("converged", 1, "553785d0f4ecacae"),
    ("bits", 8, "2ce0df1bf273073e"),
    ("bits", 20, "da0688d3cc4e9319"),
    ("bits", 9, "a559990c8c8c93dd"),
    ("extrapolated", 31, "483ca2767466088c"),
    ("converged", 1, "8f5af24404ed8da5"),
]


# sha256 prefix of the ";"-joined history_hashes of each seed-1 collection.
HISTORY_PINNED = [
    "20b977a3783a8484",
    "e585674637f6b458",
    "f1313b776c5cadc0",
    "fbb101d157d52724",
    "11f674842441b2e2",
    "75f25e0f5f9ded7d",
    "f3f9bd96a49f351b",
    "9219e81f77f6540a",
    "93e4482e521a00bd",
    "11f674842441b2e2",
    "b68e0a0e761628df",
    "2ed865c131af71c7",
    "11f674842441b2e2",
    "774acf8be0182053",
    "11f674842441b2e2",
    "a77e68387f3fb7d0",
    "f989f314cac80fe1",
    "0f33c4c89e82ba21",
    "11f674842441b2e2",
    "bf17d14233be0208",
    "0fbb4eb13ac56d28",
    "db18b9d7e912b7e5",
    "189be6cbf9234276",
    "29f5124792ad574f",
    "11f674842441b2e2",
    "ee97ceb28d3447bc",
    "bb732ae6419e5812",
    "84bdf7bc4c26881d",
    "11f674842441b2e2",
    "de5142efa0d7150f",
    "2e64957b0dc8c69e",
    "e31655cb907f22c2",
    "11f674842441b2e2",
    "c7ead6a9c793acb7",
    "ce348e5f34f7ffaf",
    "95c6c564120bca81",
    "8cd5ab265d2076f1",
    "ce5c26625930fae6",
    "5e776e49360fe7bb",
    "6df198f824726f1e",
]


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(poly: ConvexPolygon) -> str:
    text = ";".join(f"{v.x},{v.y}" for v in poly.vertices)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


CONFIG = IterationConfig(max_iterations=250, max_coordinate_bits=192)
SEED = ConvexPolygon((ORIGIN,))


@lru_cache(maxsize=2)
def _collections(seed):
    documents = _load_inputs().random_collection_documents(seed, len(PINNED))
    return [parse_collection(doc) for doc in documents]


@lru_cache(maxsize=2)
def _results(seed):
    return [iterate_to_invariance(c, SEED, CONFIG) for c in _collections(seed)]


def _outcomes(seed):
    return [(r.status, r.iterations, _digest(r.invariant_set)) for r in _results(seed)]


def _histories(seed):
    return [
        hashlib.sha256(";".join(r.history_hashes).encode("ascii")).hexdigest()[:16]
        for r in _results(seed)
    ]


def test_seed1_population_outcomes_are_pinned():
    assert _outcomes(1) == PINNED


def test_seed1_population_histories_are_pinned():
    assert _histories(1) == HISTORY_PINNED


# Seed 2 draws no axis swap, and the iteration is exactly equivariant under
# the translations and orderings it draws instead, so its pins, generated on
# their own, equal seed 1's: the arithmetic differs, the chains do not.
def test_seed2_population_outcomes_are_pinned():
    assert _collections(2) != _collections(1)
    assert _outcomes(2) == PINNED


def test_seed2_population_histories_are_pinned():
    assert _histories(2) == HISTORY_PINNED


# The collections that certify only after a restart, with the outcome of
# their exact chains, which stop on bits.  Each restarts from a stride-2
# candidate of a degree-3 solve.
EXACT_CHAIN_ENDS = {
    2: ("bits", 44, "65b3d07665aa346b"),
    22: ("bits", 40, "6f1e6f492053545b"),
    38: ("bits", 30, "7268cb4ee6c23d50"),
}


@pytest.mark.parametrize("index", sorted(EXACT_CHAIN_ENDS))
def test_restarted_answers_are_invariant_and_contain_the_chain(index):
    """The restarted answer is certified twice over, contains the seed and
    the last exact iterate, and was found after the exact chain stopped."""
    result, collection = _results(1)[index], _collections(1)[index]
    answer = result.invariant_set
    assert result.status == "extrapolated"
    assert result.iterations > EXACT_CHAIN_ENDS[index][1] == len(result.iterates)
    assert check_invariance(collection, answer) and certify_invariant(collection, answer)
    assert result.inner is result.iterates[-1] != answer
    assert answer.contains_polygon(result.inner) and answer.contains_polygon(SEED)
    assert result.gap > 0


def test_a_candidate_without_the_newest_iterate_is_never_a_restart_point(monkeypatch):
    """Pulled halfway to the origin, no limit of these chains gives a
    candidate that contains the newest iterate, so no step keeps one, and
    each chain ends on bits exactly as it did without restarts."""
    real = operators._mpe_limit
    depth = 0

    def halved(samples):
        # A fallback degree calls `_mpe_limit` again through the module, so
        # only the outermost call halves.
        nonlocal depth
        depth += 1
        try:
            found = real(samples)
        finally:
            depth -= 1
        return found if found is None or depth else (found[0], 2 * found[1])

    monkeypatch.setattr(operators, "_mpe_limit", halved)
    for index, outcome in EXACT_CHAIN_ENDS.items():
        result = iterate_to_invariance(_collections(1)[index], SEED, CONFIG)
        assert (result.status, result.iterations, _digest(result.invariant_set)) == outcome
        assert result.history_hashes == _results(1)[index].history_hashes


@pytest.mark.parametrize("index, status", [(1, "converged"), (6, "extrapolated"), (0, "bits")])
def test_history_is_read_from_the_kept_iterates(index, status):
    """The derived history equals eager digests of the chain run by hand."""
    result = _results(1)[index]
    assert result.status == status
    collection = _collections(1)[index]
    # A converged run keeps the image equal to its iterate, an extrapolated
    # one ends at the iterate it was found at, a bits one before the image
    # over budget.
    steps = {"converged": 1, "extrapolated": 0, "bits": -1}[status] + result.iterations
    chain = [SEED]
    for _ in range(steps):
        chain.append(apply_collection(collection, chain[-1]))
    assert result.history_hashes == [_digest(poly) for poly in chain]
    assert result.vertex_counts == [len(poly.vertices) for poly in chain]
    assert all(_within_bits(poly, CONFIG.max_coordinate_bits) for poly in chain)
    if status == "converged":
        assert chain[-1] == chain[-2] == result.invariant_set
    if status == "bits":
        over = apply_collection(collection, chain[-1])
        assert not _within_bits(over, CONFIG.max_coordinate_bits)


def _read_by_window(counts, newest):
    """The iterates some stride s and degree m read when iterate newest is
    the newest of the window: the m + 2 iterates s apart that end at it,
    while the window holds them and their vertex counts all agree."""
    first = max(0, newest - _WINDOW + 1)
    read = set()
    for s in range(1, _MAX_STRIDE + 1):
        for m in range(1, _MAX_DEGREE + 1):
            picks = [newest - s * t for t in range(m + 1, -1, -1)]
            if picks[0] < first or 2 * counts[newest] <= m:
                break
            if any(counts[i] != counts[newest] for i in picks):
                break
            read.update(picks)
    return read


def test_window_scales_and_screens_only_the_iterates_it_reads(monkeypatch):
    """Seed-1 collection 36 alternates between 12 and 13 vertices, then has
    12 long enough to fill the window, and stops on bits with nothing to
    restart from.  Each iterate is scaled at most once, when it is first
    read, and screened against the newest once per step that reads it; one
    that no stride or degree reads is neither."""
    collection, expected = _collections(1)[36], _results(1)[36]
    counts = expected.vertex_counts
    assert expected.status == "bits" and counts[7:11] == [13, 12, 13, 12]
    assert counts[10:-1] == [12] * _WINDOW
    index = {poly._ts: i for i, poly in enumerate(expected.iterates)}
    scaled, screened = [], []

    def scale(ts):
        if ts in index:
            scaled.append(index[ts])
        return _scaled(ts)

    def screen(floats, newest):
        screened.append((tuple(floats[0]), tuple(newest[0])))
        return real_screen(floats, newest)

    real_screen = operators._screened_shift
    monkeypatch.setattr(operators, "_scaled", scale)
    monkeypatch.setattr(operators, "_screened_shift", screen)
    result = iterate_to_invariance(collection, SEED, CONFIG)
    assert result.history_hashes == expected.history_hashes

    # The seed gets no extrapolation: it is never the newest.
    reads = {j: _read_by_window(counts, j) for j in range(1, len(counts))}
    read = set().union(*reads.values())
    assert max(Counter(scaled).values()) == 1
    assert set(scaled) == read
    assert read < set(range(len(counts)))

    def floats(i):
        d, pairs = _scaled(expected.iterates[i]._ts)
        return tuple(_floats(d, [c for pair in pairs for c in pair])[0])

    want = Counter((floats(i), floats(j)) for j, r in reads.items() for i in r if i != j)
    assert Counter(screened) == want
