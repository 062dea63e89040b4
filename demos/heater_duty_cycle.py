#!/usr/bin/env python3
"""On/off heater under a central dispatcher: why error diffusion matters.

The dispatcher wants half the heater's power (a quadratic cost with its
minimum at -7.5 kW), but the heater can only be fully on or off.  Without
error diffusion the local controller parks on one side and the accumulated
energy error grows without bound; with it, the heater duty-cycles and the
error stays inside [-P/2, P/2] forever.
"""

from dataclasses import replace
from fractions import Fraction

from errdiff.geometry import Point2
from errdiff.resources import HeaterParams, HeaterState, heater_error_bound
from errdiff.scenario_io import emit_plot_data
from errdiff.simulate import CentralPolicy, HeaterSpec, QuadraticCost, Scenario, run_scenario

P_HEAT = Fraction(15000)

params = HeaterParams(
    powers=(P_HEAT,),
    t_min=Fraction(19),
    t_max=Fraction(22),
    lock_steps=10,              # one second of lock at a 100 ms control period
    leak=Fraction(1, 100),
    gain=Fraction(1, 20000),
    t_out=Fraction(8),
)

spec = HeaterSpec(
    resource_id="heater",
    params=params,
    initial=HeaterState.initial([Fraction(20)]),
    policy=CentralPolicy(QuadraticCost(Point2(-7500, 0), Fraction(1)), Fraction(1, 4)),
)

scenario = Scenario(horizon=2000, resources=[spec], seed=11)

for diffusion in (False, True):
    result = run_scenario(replace(scenario, resources=[replace(spec, diffusion=diffusion)]))
    m = result.report.resources["heater"]
    mode = "with diffusion" if diffusion else "no diffusion "
    print(
        f"{mode}: max|e| = {m.max_error_norm:12.1f} W   "
        f"slope of |e_n| = {m.error_slope:9.2f} W/step   "
        f"longest constant (x,y) stretch = {m.stagnation_steps}"
    )
    if diffusion:
        bound = heater_error_bound(params.powers)
        print(f"               analytic bound P/2 = {float(bound):.1f} W; "
              f"respected: {m.max_error_norm2 <= bound * bound}")
        # show the duty cycle over a short window
        ys = [r.implemented.x for r in result.traces["heater"].records[:80]]
        pattern = "".join("#" if y != 0 else "." for y in ys)
        print(f"               on/off pattern (first 80 steps): {pattern}")
        files = emit_plot_data(result, "demo_output/heater")
        print(f"               plot series written: {', '.join(p.name for p in files)}")
