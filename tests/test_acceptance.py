"""Acceptance suite: the eight headline guarantees, at their exact tolerances.

Each test prints one CRITERION line so a log scrape shows the full table.
All comparisons are exact (rational equality / exact membership).  Criteria
1 and 8 also pin their report text, iteration count and number of
converged collections included, so a change that moves either fails here.
"""

import time

from errdiff.verify import run_checks


def _run(number: int, title: str, names: list[str]) -> list[str]:
    """Run the named checks, assert they pass and return their ``got`` texts."""
    start = time.perf_counter()
    results = run_checks(names)
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results)
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} [{status}] {title} ({elapsed:.1f}s)")
    for r in results:
        print(f"  - {r.name}: expected {r.expected}; got {r.got}")
    assert ok, f"criterion {number} failed: {[r.name for r in results if not r.passed]}"
    return [r.got for r in results]


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


def test_criterion_3_one_dimensional_oracle_and_sim():
    """200 random 1D collections match [-gap/2, gap/2]; long random
    simulations never exceed the bound."""
    _run(3, "1D fixed points equal the gap formula; sims within gap/2",
         ["interval-oracle", "interval-sim-bound"])


def test_criterion_4_pv_triangle_invariance_and_sim():
    """The full triangle is invariant for capped-triangle families, and
    persistent-prediction runs respect the squared-diameter bound."""
    _run(4, "PV triangle invariance and persistent simulation bound",
         ["pv-invariance", "pv-sim-bound"])


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


def test_criterion_8_operator_property_suite():
    """Extensivity, monotonicity, 1D additivity, fixed-point invariance,
    and trajectory containment over random collections."""
    got = _run(8, "operator property suite on random collections", ["operator-properties"])
    assert got == ["40/100 converged; all properties hold"]
