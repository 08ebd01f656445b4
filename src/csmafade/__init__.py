"""Performance models for unslotted CSMA/CA networks over fading channels.

Two engines share one scenario description: an analytic engine that solves
the coupled per-link MAC/PHY equations for all links at once, and a
discrete-event Monte Carlo simulator of the same system.  A command-line
front end runs single scenarios, parameter sweeps, and model-versus-simulation
comparisons.
"""

from .channel import ChannelParams, FadingParams, mean_rx_power
from .errors import ConvergenceError, NumericsError, ValidationError
from .macmodel import (
    Chain,
    MacParams,
    SolverConfig,
    TimingParams,
    arrival_probability,
    solve_fixed_point,
)
from .metrics import PowerProfile, expected_delay, report
from .multihop import NetworkSolution, end_to_end_reliability, solve_network
from .scenarios import Scenario, Topology, load_config
from .simulator import SimConfig, SimNetwork, SimStats, run_experiment, run_replication
from .sweep import SweepSpec, run_sweep, sweep_from_config

__all__ = [
    "Chain",
    "ChannelParams",
    "ConvergenceError",
    "FadingParams",
    "MacParams",
    "NetworkSolution",
    "NumericsError",
    "PowerProfile",
    "Scenario",
    "SimConfig",
    "SimNetwork",
    "SimStats",
    "SolverConfig",
    "SweepSpec",
    "TimingParams",
    "Topology",
    "ValidationError",
    "arrival_probability",
    "end_to_end_reliability",
    "expected_delay",
    "load_config",
    "mean_rx_power",
    "report",
    "run_experiment",
    "run_replication",
    "run_sweep",
    "solve_fixed_point",
    "solve_network",
    "sweep_from_config",
]
