#!/usr/bin/env python3
"""PV converter with volatile irradiance and a persistent predictor.

The feasible set is a triangle in the (P, Q) plane whose real-power cap
follows the available irradiance.  The controller advertises yesterday's
set (persistent prediction), so requests can be infeasible by the time
they arrive; the full triangle is nevertheless invariant for the carried
modified request, which bounds the accumulated error by its diameter.
"""

from fractions import Fraction

from errdiff.operators import Collection, check_invariance, verify_monotone_family
from errdiff.resources import (
    PVParams,
    pv_error_bound_sq,
    pv_triangle,
    pv_triangle_family,
)
from errdiff.simulate import (
    CentralPolicy,
    MaximizeActivePower,
    PVSpec,
    Scenario,
    SquareWave,
    run_scenario,
)

params = PVParams(p_max=Fraction(1), tan_phi=Fraction(1))
full = pv_triangle(params, params.p_max)

# The capped-triangle family is nested and closed under the projection
# displacement condition, so its largest member is the invariant set.
report = verify_monotone_family(pv_triangle_family(params, 8))
print(f"monotone family conditions hold: {report.ok}")
print(f"candidate invariant set vertices: {[(str(v.x), str(v.y)) for v in report.candidate.vertices]}")

for m in (1, 4, 16):
    family = Collection(tuple(pv_triangle_family(params, m)), "persistent")
    print(f"full triangle invariant for the {m + 1}-member cap family: "
          f"{check_invariance(family, full)}")

# Extreme scenario: irradiance square-waves between zero and full power
# every few steps while the dispatcher pushes for maximum output.
spec = PVSpec(
    resource_id="pv",
    params=params,
    availability=SquareWave(6, Fraction(0), params.p_max),
    policy=CentralPolicy(MaximizeActivePower(), Fraction(1, 4)),
)
result = run_scenario(Scenario(horizon=3000, resources=[spec], seed=7))
metrics = result.report.resources["pv"]
bound_sq = pv_error_bound_sq(params)
print(f"\nsquare-wave run: max|e|^2 = {metrics.max_error_norm2} "
      f"(bound {bound_sq}, respected: {metrics.max_error_norm2 <= bound_sq})")
print(f"time-averaged implemented P: {float(metrics.average_implemented.x):.4f} "
      f"vs requested {float(metrics.average_requested.x):.4f}")
