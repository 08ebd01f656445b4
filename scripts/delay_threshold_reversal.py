#!/usr/bin/env python3
"""How shadowing bends mean delay in opposite directions per CCA threshold.

On a wide star (5 m spacing, heavy traffic) the model predicts that
increasing the shadowing spread *shortens* delay when neighbours sit above
the carrier-sense threshold (fading breaks up synchronised deferrals) but
*lengthens* it when they sit below (fading only adds outage and retries).
This script traces both analytic curves and checks the endpoint slopes
against the simulator.
"""

import argparse

import numpy as np

from csmafade.scenarios import compile_sim_network, parse_config, scenario_from_config
from csmafade.simulator import run_experiment
from csmafade.sweep import solve_points

SIGMAS = (0.0, 1.0, 2.0, 3.0)


def star_scenario(sigma, a_dbm, reps):
    return scenario_from_config(parse_config(f"""
scenario_id: reversal
topology: {{kind: star, n_nodes: 8, spacing_m: 5.0}}
lam: 10.0
channel: {{a_dbm: {a_dbm}}}
fading: {{sigma: {sigma}}}
sim: {{horizon_seconds: 200.0, replications: {reps}, master_seed: 1}}
"""))


def analytic_delays(scenarios):
    """Mean model delay of each scenario, all solved in one solve_points
    call; the first error met is raised."""
    delays = {}
    for i, sol in solve_points(scenarios):
        if isinstance(sol, Exception):
            raise sol
        delays[i] = float(np.nanmean(sol.report.delay_seconds))
    return [delays[i] for i in range(len(scenarios))]


def simulated_delay(scenario):
    result = run_experiment(compile_sim_network(scenario), scenario.sim)
    return float(np.nanmean(result.delay_mean_seconds))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--skip-sim", action="store_true", help="analytic curves only")
    args = parser.parse_args()

    for a_dbm in (-76.0, -56.0):
        curve = analytic_delays([star_scenario(s, a_dbm, args.reps) for s in SIGMAS])
        slope = "down" if curve[-1] < curve[0] else "up"
        print(f"a = {a_dbm:.0f} dBm  (model says delay goes {slope} with sigma)")
        for sigma, d in zip(SIGMAS, curve):
            print(f"  sigma={sigma:3.1f}  model {d*1e3:7.4f} ms")
        if not args.skip_sim:
            ends = [simulated_delay(star_scenario(s, a_dbm, args.reps))
                    for s in (SIGMAS[0], SIGMAS[-1])]
            agree = (ends[1] - ends[0]) * (curve[-1] - curve[0]) > 0
            print(f"  sim endpoints {ends[0]*1e3:.4f} -> {ends[1]*1e3:.4f} ms "
                  f"({'same' if agree else 'OPPOSITE'} direction)")
        print()


if __name__ == "__main__":
    main()
