"""Command-line front end: analyze, simulate, compare, and sweep scenarios.

Every command reads a YAML scenario file, applies --set overrides, runs one
or both engines, and writes a CSV next to (or into) --out.  `analyze` runs
the fixed-point model only, `simulate` the event simulator only, `compare`
both, and `sweep` evaluates the config's sweep block; `simulate --trace FILE`
also writes the event trace of replication 0.  On failure the exit code is
nonzero and a one-line JSON error summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConvergenceError, NumericsError, ValidationError
from .scenarios import compile_sim_network, load_config, scenario_from_config, scenario_id
from .simulator import run_replication
from .sweep import SweepSpec, run_sweep, sweep_from_config

ENGINE_FOR = {"analyze": "analytic", "simulate": "simulate", "compare": "compare"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario file (YAML)")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry by dotted path (repeatable)")
    sub.add_argument("--out", default=".", help="output directory for the CSV")
    sub.add_argument("--seed", type=int, default=None,
                     help="simulator master seed (overrides sim.master_seed)")
    sub.add_argument("--reps", type=int, default=None,
                     help="replication count (overrides sim.replications)")
    sub.add_argument("--workers", type=int, default=1,
                     help="simulator processes (replications, or sweep points); "
                          "the analytic engine always runs in one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmafade",
        description="CSMA/CA performance over composite fading: model and simulator.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("analyze", help="fixed-point model only")
    commands.add_parser("simulate", help="event simulator only")
    commands.add_parser("compare", help="both engines side by side")
    commands.add_parser("sweep", help="evaluate the config's sweep block")
    for name, sub in commands.choices.items():
        _add_common(sub)
    commands.choices["simulate"].add_argument(
        "--trace", metavar="FILE", help="write replication 0's event trace (TSV) to FILE")
    return parser


def _write_trace(config: dict, path: str) -> None:
    """Run replication 0 of the scenario again, writing its events to path."""
    scenario = scenario_from_config(config)
    try:
        with open(path, "w") as f:
            run_replication(compile_sim_network(scenario), scenario.sim, 0, trace=f)
    except OSError as exc:
        raise ValidationError(f"cannot write trace {path}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"sim.master_seed={args.seed}")
    if args.reps is not None:
        overrides.append(f"sim.replications={args.reps}")
    try:
        config = load_config(args.config, overrides)
        config.setdefault("scenario_id", Path(args.config).stem)
        if args.command == "sweep":
            spec = sweep_from_config(config)
        else:
            spec = SweepSpec(parameters=(), engine=ENGINE_FOR[args.command])
        out_path = run_sweep(
            config,
            spec,
            out_dir=args.out,
            workers=args.workers,
            out_name=f"{scenario_id(config)}_{args.command}.csv",
            strict=args.command != "sweep",
        )
        if getattr(args, "trace", None):
            _write_trace(config, args.trace)
    except (ValidationError, ConvergenceError, NumericsError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
