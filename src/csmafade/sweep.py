"""Parameter sweeps over scenarios, written as deterministic CSV tables.

A sweep takes a scenario config (the parsed mapping, see scenarios.py), a
list of (path, values) parameter axes, and an engine selector, and evaluates
the cross product of all axis values.  Each grid point yields one block of
rows: per-link metrics, network aggregates, and (on multihop topologies)
end-to-end reliabilities.  Rows are emitted in deterministic cross-product
order -- the first axis varies slowest, the last fastest -- so repeated runs
produce byte-identical files.

Engines:
  analytic  -- fixed-point model only (sim columns left empty)
  simulate  -- event simulator only (analytic column left empty)
  compare   -- both engines on every point

Every point reuses the same simulator master seed (common random numbers),
so differences between points reflect the parameters, not resampling noise.
A failing point does not stop the sweep.  A point whose config fails to
validate becomes one `error` row.  A point where an engine fails keeps its
usual block: that engine's cells are empty, its message is in the warnings
cell, and the other engine's cells are kept.
"""

from __future__ import annotations

import copy
import csv
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericsError, ValidationError
from .multihop import end_to_end_reliability, solve_network
from .scenarios import (assign, build_contention_tables, compile_sim_network,
                        scenario_from_config)
from .simulator import run_experiment

ENGINES = ("analytic", "simulate", "compare")

FIXED_COLUMNS = (
    "src",
    "dst",
    "metric",
    "analytic_value",
    "sim_mean",
    "sim_ci95_half",
    "replications",
    "warnings",
)

MAX_POINTS = 10_000


@dataclass(frozen=True)
class SweepSpec:
    """Cross-product parameter grid plus the engine to run on each point."""

    parameters: tuple[tuple[str, tuple], ...] = ()
    engine: str = "compare"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValidationError(f"unknown engine {self.engine!r}; pick one of {ENGINES}")
        seen = set()
        for path, values in self.parameters:
            if not isinstance(path, str) or not path:
                raise ValidationError("sweep parameter paths must be non-empty strings")
            if path in seen:
                raise ValidationError(f"duplicate sweep parameter {path!r}")
            seen.add(path)
            if len(values) == 0:
                raise ValidationError(f"sweep parameter {path!r} has no values")
        if self.n_points > MAX_POINTS:
            raise ValidationError(
                f"sweep has {self.n_points} points; the limit is {MAX_POINTS}"
            )

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(path for path, _ in self.parameters)

    @property
    def n_points(self) -> int:
        return math.prod(len(values) for _, values in self.parameters)

    def points(self) -> list[tuple]:
        """All grid points, first axis slowest, as tuples of (path, value)."""
        grids = [[(path, v) for v in values] for path, values in self.parameters]
        return [tuple(combo) for combo in itertools.product(*grids)]


def sweep_from_config(config: dict) -> SweepSpec:
    """Build a SweepSpec from a config's `sweep:` block."""
    block = config.get("sweep")
    if not isinstance(block, dict):
        raise ValidationError("config has no sweep block")
    unknown = set(block) - {"engine", "parameters"}
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in sweep block")
    axes = block.get("parameters", [])
    if not isinstance(axes, list):
        raise ValidationError("sweep parameters must be a list of {path, values} entries")
    parameters = []
    for entry in axes:
        if not isinstance(entry, dict) or set(entry) != {"path", "values"}:
            raise ValidationError("each sweep parameter needs exactly {path, values}")
        values = entry["values"]
        if not isinstance(values, list):
            raise ValidationError(f"values for {entry['path']!r} must be a list")
        parameters.append((str(entry["path"]), tuple(values)))
    return SweepSpec(parameters=tuple(parameters), engine=block.get("engine", "compare"))


def _fmt(value) -> str:
    """Serialize one CSV cell; floats get 9 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.9g}"
    return str(value)


LINK_METRICS = ("reliability", "delay_s", "power_mw")
AGGREGATE_METRICS = ("mean_reliability", "mean_delay_s", "mean_power_mw")


def _row_keys(scenario) -> list[tuple]:
    """(src, dst, metric) of every row in a point's block, in output order."""
    keys = [(src, dst, m) for src, dst in scenario.links for m in LINK_METRICS]
    keys += [("", "", m) for m in AGGREGATE_METRICS]
    paths = [scenario.routing.path(src) for src, _ in scenario.links]
    if any(len(path) > 1 for path in paths):
        keys += [(path[0][0], path[-1][1], "end_to_end_reliability") for path in paths]
    return keys


def _keyed(scenario, per_link, aggregates, end_to_end) -> dict:
    """Key values by row: per-link triples in link order, the aggregate
    triple, then end_to_end[origin] if the block has end-to-end rows."""
    keys = _row_keys(scenario)
    values = [v for triple in per_link for v in triple] + list(aggregates)
    values += [end_to_end[src] for src, _, _ in keys[len(values):]]
    return dict(zip(keys, values, strict=True))


# Contention tables built in this process, newest last; run_sweep empties it,
# so points of one sweep share tables but separate sweeps do not.
_table_cache: dict[tuple, list] = {}
TABLE_CACHE_SIZE = 8


def _contention_tables(scenario) -> list:
    """build_contention_tables, reused by points whose tables cannot differ.

    The tables read only the links, the mean gains, the channel and the
    fading, so points that differ in rates, MAC, timing or simulator
    settings share one build.  Shared arrays are made read-only.
    """
    key = (scenario.links, scenario.mean_gain_mw.tobytes(), scenario.channel, scenario.fading)
    tables = _table_cache.get(key)
    if tables is None:
        tables = build_contention_tables(scenario)
        for table in tables:
            table.p_det.flags.writeable = False
            table.p_out.flags.writeable = False
        if len(_table_cache) >= TABLE_CACHE_SIZE:
            del _table_cache[next(iter(_table_cache))]
        _table_cache[key] = tables
    return tables


def _analytic(scenario) -> tuple[dict, list[str]]:
    """Fixed-point model: {(src, dst, metric): value} plus warnings."""
    tables = _contention_tables(scenario)
    solution = solve_network(tables, scenario.routing, scenario.lam, scenario.mac,
                             scenario.timing, profile=scenario.power, config=scenario.solver)
    rep = solution.report
    values = _keyed(
        scenario,
        zip(rep.reliability, rep.delay_seconds, rep.power_mw),
        (rep.mean_reliability, rep.mean_delay_seconds, rep.mean_power_mw),
        solution.end_to_end,
    )
    warnings = list(solution.warnings)
    if np.isnan(rep.delay_seconds).any():
        warnings.append("delay undefined on some links")
    return values, warnings


def _simulate(scenario, workers: int) -> tuple[dict, list[str]]:
    """Event simulator: {(src, dst, metric): (mean, ci95_half)} plus warnings."""
    net = compile_sim_network(scenario)
    result = run_experiment(net, scenario.sim, scenario.power, workers=workers)
    # reliability and delay arrays are per link, in transmitter order; power is per node
    rel = list(zip(result.reliability_mean, result.reliability_ci95))
    delay = list(zip(result.delay_mean_seconds, result.delay_ci95_seconds))
    power = [(result.power_mean_mw[src], result.power_ci95_mw[src]) for src, _ in scenario.links]
    link_rel = {link: mean for link, (mean, _) in zip(scenario.links, rel)}
    end_to_end = {src: (end_to_end_reliability(scenario.routing, link_rel, src), math.nan)
                  for src, _ in scenario.links}
    aggregates = (_pooled(rel), _pooled(delay, finite_only=True), _pooled(power))
    values = _keyed(scenario, list(zip(rel, delay, power)), aggregates, end_to_end)
    if any(math.isnan(mean) for mean, _ in rel):
        return values, ["no completed packets on some links"]
    return values, []


def _pooled(pairs, finite_only: bool = False) -> tuple[float, float]:
    """Mean of per-link (mean, ci95_half) estimates, and its half-width.

    The half-width is NaN if any link's is.  finite_only averages over the
    links with a defined mean (delay is undefined where nothing completes).
    """
    means = [m for m, _ in pairs if not (finite_only and math.isnan(m))]
    mean = float(sum(means) / len(means)) if means else math.nan
    halves = [h for _, h in pairs]
    if any(math.isnan(h) for h in halves):
        return mean, math.nan
    return mean, math.sqrt(sum(h * h for h in halves)) / len(halves)


def evaluate_point(
    config: dict,
    assignments,
    engine: str,
    sim_workers: int = 1,
    strict: bool = False,
) -> list[list[str]]:
    """Evaluate one grid point and return its formatted CSV rows.

    With strict=False a failing point is reported inside the rows so a sweep
    can keep going: a config failure as one `error` row, an engine failure
    as empty cells for that engine with its message in the warnings column.
    strict=True re-raises instead, for single-scenario runs.
    """
    point = copy.deepcopy(config)
    point.pop("sweep", None)
    for path, value in assignments:
        assign(point, path, value)
    scenario_id = str(point.get("scenario_id", "scenario"))
    prefix = [_fmt(value) for _, value in assignments]
    try:
        scenario = scenario_from_config(point, default_id=scenario_id)
    except (ValidationError, NumericsError) as exc:
        if strict:
            raise
        return [[scenario_id, *prefix, "", "", "error", "", "", "", "", f"config: {exc}"]]

    runners = {"analytic": lambda: _analytic(scenario),
               "simulate": lambda: _simulate(scenario, sim_workers)}
    results, warnings = {}, []
    for name in runners if engine == "compare" else [engine]:
        try:
            results[name], notes = runners[name]()
        except (NumericsError, ValidationError) as exc:
            if strict:
                raise
            notes = [str(exc)]
        warnings += [f"{name}: {note}" for note in notes]
    analytic, sim = results.get("analytic", {}), results.get("simulate", {})

    rows = []
    for key in _row_keys(scenario):
        sim_mean, sim_ci = sim.get(key, (None, None))
        rows.append([
            scenario.scenario_id, *prefix, _fmt(key[0]), _fmt(key[1]), key[2],
            _fmt(analytic.get(key)), _fmt(sim_mean), _fmt(sim_ci),
            _fmt(scenario.sim.replications) if key in sim else "", "; ".join(warnings),
        ])
    return rows


def _point_task(args):
    config, assignments, engine, sim_workers, strict = args
    return evaluate_point(config, assignments, engine, sim_workers, strict)


def run_sweep(
    config: dict,
    spec: SweepSpec,
    out_dir: str | Path = ".",
    workers: int = 1,
    out_name: str | None = None,
    strict: bool = False,
) -> Path:
    """Evaluate every grid point and write one CSV; returns the file path."""
    points = spec.points()
    scenario_id = str(config.get("scenario_id", "scenario"))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (out_name or f"{scenario_id}_sweep.csv")

    _table_cache.clear()
    sim_workers = workers if len(points) == 1 else 1
    tasks = [(config, assignments, spec.engine, sim_workers, strict) for assignments in points]
    if workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_point_task, tasks))
    else:
        blocks = [_point_task(t) for t in tasks]

    header = ["scenario_id", *spec.paths, *FIXED_COLUMNS]
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for block in blocks:
            writer.writerows(block)
    return out_path
