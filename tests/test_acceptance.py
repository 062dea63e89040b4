"""Acceptance suite: the eight headline guarantees, at their exact tolerances.

Each test prints one CRITERION line so a log scrape shows the full table.
All comparisons are exact (rational equality / exact membership).  Every
check a criterion runs must also report the row pinned for it in
``tests/data/verify.csv``, the ``errdiff verify`` report without its
seconds column, so a change that moves a random draw, an iteration count
or a reported error moves a row and fails here.
"""

import csv
import hashlib
import time
from pathlib import Path

import pytest

from conftest import poly, pt
from errdiff import verify
from errdiff.verify import CHECKS, bounded_voronoi_polygon, interior_point_set, run_checks

_PINNED = Path(__file__).parent / "data" / "verify.csv"


def _pinned_rows() -> dict[str, list[str]]:
    """The pinned (check, expected, got, status) rows, by check name."""
    with _PINNED.open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["check", "expected", "got", "status"]
    return {row[0]: row for row in rows[1:]}


def _run(number: int, title: str, names: list[str]) -> list[str]:
    """Run the named checks, assert they pass and report their pinned rows,
    and return their ``got`` texts."""
    start = time.perf_counter()
    results = run_checks(names)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results)
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} [{status}] {title} ({elapsed:.1f}s)")
    for r in results:
        print(f"  - {r.name}: expected {r.expected}; got {r.got}")
    assert ok, f"criterion {number} failed: {[r.name for r in results if not r.passed]}"
    pinned = _pinned_rows()
    for r in results:
        # The row as `errdiff verify` prints it, which turns '"' into "'".
        row = [r.name, r.expected.replace('"', "'"), r.got.replace('"', "'"), "pass"]
        assert row == pinned[r.name]
    return [r.got for r in results]


def _hash_traces(monkeypatch) -> dict:
    """While the test runs, hash every trace a check builds through
    ``verify.run_trace`` or ``verify.run_resource_loop``: each step's
    requested, implemented and error points, in order, into one sha256 per
    check, returned by check name as the checks run.  A check that draws one
    request, set or level differently changes its digest even where its
    ``verify.csv`` row only counts runs within a bound."""
    hashes = {}
    running: list[str] = []

    def named(name, check):
        def run():
            running.append(name)
            return check()

        return run

    def hashed(loop):
        def run(*args, **kwargs):
            trace = loop(*args, **kwargs)
            h = hashes.setdefault(running[-1], hashlib.sha256())
            rows = {}
            for r in trace.records:
                row = rows.get(r)
                if row is None:
                    row = rows[r] = "".join(
                        f"{p.x},{p.y};" for p in (r.requested, r.implemented, r.error)
                    ).encode()
                h.update(row)
            return trace

        return run

    for name, check in CHECKS.items():
        monkeypatch.setitem(CHECKS, name, named(name, check))
    for loop in ("run_trace", "run_resource_loop"):
        monkeypatch.setattr(verify, loop, hashed(getattr(verify, loop)))
    return hashes


def test_every_check_has_one_pinned_row():
    """The pin holds one row per check, in the order ``verify`` runs them."""
    assert list(_pinned_rows()) == list(CHECKS)


def test_criterion_1_three_set_family_exact_polygon():
    """Exact reproduction of the seven-vertex minimal invariant polygon."""
    got = _run(1, "three-set family converges to the exact 7-vertex polygon", ["invariant-family3"])
    assert got == [
        "(-3,-7/2) (-1,-9/2) (1,-9/2) (1,1/2) (1/2,1) (-1/2,1) (-3,1/2)"
        " (converged=True, iterations=6)"
    ]


def test_criterion_2_grid_one_step_convergence():
    """The eight-point grid collection converges after one growing iteration."""
    _run(2, "8-point grid converges with iterations = 1", ["grid8-one-iteration"])


def test_criterion_3_one_dimensional_oracle_and_sim(monkeypatch):
    """200 random 1D collections match [-gap/2, gap/2]; long random
    simulations never exceed the bound, and every step they take is pinned."""
    hashes = _hash_traces(monkeypatch)
    _run(3, "1D fixed points equal the gap formula; sims within gap/2",
         ["interval-oracle", "interval-sim-bound"])
    assert {name: h.hexdigest() for name, h in hashes.items()} == {
        "interval-sim-bound": "58e42ccae2c4e2befaa25907883ec9bb2c9c45938da1cc8892f14ba1f9180091"
    }


def test_criterion_4_pv_triangle_invariance_and_sim(monkeypatch):
    """The full triangle is invariant for capped-triangle families, and
    persistent-prediction runs respect the squared-diameter bound; every
    step of those runs is pinned."""
    hashes = _hash_traces(monkeypatch)
    _run(4, "PV triangle invariance and persistent simulation bound",
         ["pv-invariance", "pv-sim-bound"])
    assert {name: h.hexdigest() for name, h in hashes.items()} == {
        "pv-sim-bound": "aaea2d37051d04231a093e3036914b8d979a82cc72d724c8845f3fac6c6150cf"
    }


def test_criterion_5_heater_bounds():
    """Single- and multi-heater closed loops stay within half the largest
    heater power, exactly."""
    _run(5, "heater bounds: P/2 single, 3/2 for powers (1,2,3)",
         ["heater-single-bound", "heater-multi-bound"])


def test_criterion_6_bounded_vs_unbounded_contrast():
    """Constant half-power requests: linear growth without diffusion,
    bounded error with it."""
    _run(6, "diffusion on/off contrast at constant -P/2 requests", ["diffusion-contrast"])


def test_criterion_7_voronoi_cell_coverage():
    """The minimal invariant set covers the shifted bounded cell of the
    interior point in all three configurations."""
    _run(7, "invariant set covers the interior point's cell", ["voronoi-coverage"])


@pytest.mark.parametrize(
    "p_y, vertices",
    [
        (0, [(-10, 0), (0, -10), (10, 0), (0, 10)]),
        (5, [("-35/4", 0), (0, "-35/6"), ("35/4", 0), (0, "35/2")]),
        (9, [("-119/20", 0), (0, "-119/38"), ("119/20", 0), (0, "119/2")]),
    ],
)
def test_voronoi_coverage_cell_is_pinned(p_y, vertices):
    """The row only checks that the invariant set contains the interior
    site's cell, so the cell itself is pinned."""
    assert bounded_voronoi_polygon(interior_point_set(p_y), pt(0, p_y)) == poly(*vertices)


def test_criterion_8_operator_property_suite():
    """Extensivity, monotonicity, 1D additivity, fixed-point invariance,
    and trajectory containment over random collections."""
    got = _run(8, "operator property suite on random collections", ["operator-properties"])
    assert got == ["47/100 converged; all properties hold"]
