#!/usr/bin/env python3
"""End-to-end reliability decay along a relay chain, model versus simulation.

Five sensors forward toward a sink over a line; every added hop multiplies
in another link failure probability, and relays also carry the forwarded
load.  Prints per-origin end-to-end reliability from both engines for a
calm and a strongly shadowed channel.
"""

import argparse

from csmafade.scenarios import compile_sim_network, parse_config, scenario_from_config
from csmafade.multihop import end_to_end_reliability, route
from csmafade.simulator import run_experiment
from csmafade.sweep import solve_points


def chain_scenario(sigma, reps):
    return scenario_from_config(parse_config(f"""
scenario_id: chain
topology: {{kind: line, n_nodes: 6, spacing_m: 1.0}}
lam: [0.0, 2.0, 2.0, 2.0, 2.0, 2.0]
fading: {{sigma: {sigma}}}
sim: {{horizon_seconds: 200.0, replications: {reps}, master_seed: 1}}
"""))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--sigmas", type=float, nargs="+", default=[0.0, 2.0])
    args = parser.parse_args()

    for sigma in args.sigmas:
        scenario = chain_scenario(sigma, args.reps)
        [sol] = solve_points([scenario])
        result = run_experiment(compile_sim_network(scenario), scenario.sim)
        sim_link = dict(zip(result.transmitters, result.reliability_mean))

        print(f"sigma = {sigma}")
        print(f"  {'origin':>6} {'hops':>5} {'model e2e':>10} {'sim e2e':>10} {'gap':>7}")
        for origin in sorted(sol.end_to_end, key=lambda n: len(route(scenario.hops, n))):
            hops = len(route(scenario.hops, origin)) - 1
            sim_e2e = end_to_end_reliability(scenario.hops, sim_link, origin)
            model = sol.end_to_end[origin]
            print(f"  {origin:>6} {hops:>5} {model:>10.5f} {sim_e2e:>10.5f}"
                  f" {abs(model - sim_e2e):>7.4f}")
        print()


if __name__ == "__main__":
    main()
