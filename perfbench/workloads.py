"""The benchmark's workloads: a shipped config, overrides, a sweep grid, a worker count.

Each workload stresses a different layer (see NOTES.md for why each was
chosen).  `TINY` shrinks every workload for the harness self-test while
keeping its engine, grid shape and worker count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    config: str  # path relative to the repository root
    overrides: tuple[str, ...]
    sweep: dict | None  # replaces the config's sweep block; None keeps it
    workers: int


def _grid(engine: str, *axes: tuple[str, list]) -> dict:
    return {"engine": engine, "parameters": [{"path": p, "values": v} for p, v in axes]}


WORKLOADS = {
    # The shipped star7 compare sweep (4 rates x 3 sigmas) with 3 instead of 20
    # replications, so that one run_sweep call fits several times in a run.
    "star7-sweep": Workload(
        config="configs/star7.yaml",
        overrides=("sim.replications=3",),
        sweep=None,
        workers=2,
    ),
    "star12-tables": Workload(
        config="configs/star7.yaml",
        overrides=("scenario_id=star12", "topology.n_nodes=12", "lam=10"),
        sweep=_grid("analytic", ("fading.kappa", [None, 2.0]), ("fading.sigma", [1.0, 2.0])),
        workers=1,
    ),
    "line9-traffic": Workload(
        config="configs/line5.yaml",
        overrides=("scenario_id=line9", "topology.n_nodes=9", "lam=2.0"),
        sweep=_grid("analytic", ("lam", [2.0, 5.0, 10.0, 20.0, 30.0]),
                    ("fading.sigma", [0.0, 1.0, 2.0])),
        workers=1,
    ),
}

TINY = {
    "star7-sweep": ("sim.replications=2", "sim.horizon_seconds=20"),
    "star12-tables": ("topology.n_nodes=5",),
    "line9-traffic": ("topology.n_nodes=4",),
}


def load(root: Path, name: str, seed: int | None = None, tiny: bool = False):
    """Load and validate a workload's config; returns (config, sweep spec, seed used)."""
    from csmafade import load_config, sweep_from_config
    from csmafade.scenarios import scenario_from_config

    workload = WORKLOADS[name]
    overrides = list(workload.overrides) + list(TINY[name] if tiny else ())
    if seed is not None:
        overrides.append(f"sim.master_seed={seed}")
    config = load_config(Path(root) / workload.config, overrides)
    if workload.sweep is not None:
        config["sweep"] = copy.deepcopy(workload.sweep)
    spec = sweep_from_config(config)
    scenario = scenario_from_config(config)
    return config, spec, scenario.sim.master_seed
