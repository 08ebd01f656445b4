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

import csv
import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericsError, ValidationError
from .macmodel import _list_rows
from .multihop import NetworkSolution, end_to_end_reliability, route, solve_network
from .scenarios import (RowPlan, Scenario, _mean_gains, _next_hops, assign,
                        build_contention_tables, compile_sim_network, depths_at,
                        scenario_from_config, scenario_id, start_depths)
from .simulator import pool_size, run_experiment

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
            if path.split(".")[0] == "scenario_id":
                raise ValidationError(
                    f"sweep parameter {path!r}: scenario_id is the first column of every row"
                )
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


# Contention tables built in this process, newest last, and the row plans
# (see scenarios.RowPlan) they were built from, one per geometry, depth and
# gain rank pattern; the row keys of each geometry (_row_keys, next to the
# next hops and gains that scenarios caches); the stack of each point of a
# serial sweep (see _stacks) and the solutions of its points not yet read,
# by grid row.  run_sweep empties the tables, plans and geometries when it
# starts and the stacks and solutions when it ends, so points of one sweep
# share them but separate sweeps do not.  Pool workers are forked from the
# process that filled the tables, plans and geometries, and inherit them.
_table_cache: dict[tuple, np.recarray] = {}
_plan_cache: dict[tuple, RowPlan] = {}
_stack_of: dict[int, tuple] = {}
_solved: dict = {}
TABLE_CACHE_SIZE = 8

# A stack holds at most STACK_ELEMENTS entries, P points x L links x
# subset-list rows, in each of its arrays: the subset weights, each table
# it gathers (p_det and p_out) and the products of contention_terms.  So
# each array stays below the 128 KiB from which the C heap maps fresh pages
# for it.  At 2^18 the four 11-link points of the star12-tables benchmark
# form one stack, and a sweep then peaks 2 MiB higher with four times the
# minor page faults; at 2^14 the 15 points of line9-traffic form one stack,
# which peaks 0.15-0.4 MiB higher than stacks of 8 and 7 do.
STACK_ELEMENTS = 2**13


LINK_METRICS = ("reliability", "delay_s", "power_mw")
AGGREGATE_METRICS = ("mean_reliability", "mean_delay_s", "mean_power_mw")


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _row_keys(topology) -> tuple[tuple, ...]:
    """(src, dst, metric) of every row in the block of a point on this
    topology, in output order; worked out once per geometry per sweep."""
    next_hop = _next_hops(topology)
    routes = [route(next_hop, src) for src in np.flatnonzero(next_hop >= 0).tolist()]
    keys = [(nodes[0], nodes[1], m) for nodes in routes for m in LINK_METRICS]
    keys += [("", "", m) for m in AGGREGATE_METRICS]
    if any(len(nodes) > 2 for nodes in routes):
        keys += [(nodes[0], nodes[-1], "end_to_end_reliability") for nodes in routes]
    return tuple(keys)


def _keyed(scenario, per_link, aggregates, end_to_end) -> dict:
    """Key values by row: per-link triples in link order, the aggregate
    triple, then end_to_end[origin] if the block has end-to-end rows."""
    keys = _row_keys(scenario.topology)
    values = [v for triple in per_link for v in triple] + list(aggregates)
    values += [end_to_end[src] for src, _, _ in keys[len(values):]]
    return dict(zip(keys, values, strict=True))


def _table_key(scenario) -> tuple:
    """What a point's contention tables read besides their depth: the links,
    the mean gains, the channel and the fading."""
    return (scenario.links, scenario.mean_gain_mw.tobytes(), scenario.channel, scenario.fading)


def _contention_tables(scenario, depth: int) -> np.recarray:
    """build_contention_tables at `depth`, reused by points whose tables cannot differ.

    Points that differ in rates, MAC, timing or simulator settings share
    one build at each depth.  Points whose gains rank alike (say, that
    differ only in fading, thresholds or transmit power) share one row plan
    at each depth, so their builds only refit.  The tables are read-only,
    so they can be shared.
    """
    key = (_table_key(scenario), depth)
    tables = _table_cache.get(key)
    if tables is None:
        tables = build_contention_tables(scenario, _plan_cache, depth)
        if len(_table_cache) >= TABLE_CACHE_SIZE:
            del _table_cache[next(iter(_table_cache))]
        _table_cache[key] = tables
        if len(_plan_cache) > TABLE_CACHE_SIZE:  # a build adds at most one plan
            del _plan_cache[next(iter(_plan_cache))]
    return tables


def _parse_point(config: dict, assignments, strict: bool):
    """Assign a grid point's values into a copy of the sweep's config and validate it.

    Only the sections along the assigned paths are copied; the parse reads
    the rest of the config without changing it.  Returns the point's
    Scenario, or for a config error the error row's message; strict=True
    re-raises the error instead.
    """
    point = dict(config)
    try:
        for path, value in assignments:
            node = point
            for key in path.split(".")[:-1]:
                if not isinstance(node.get(key), dict):
                    break
                node[key] = dict(node[key])
                node = node[key]
            assign(point, path, value)
        return scenario_from_config(point, default_id="scenario")
    except (ValidationError, NumericsError) as exc:
        if strict:
            raise
        return f"config: {exc}"


def _prebuild_tables(parsed) -> None:
    """Build the distinct table sets of the parsed points at their start
    depths, as many as the cache holds.

    A point whose tables fail is skipped: it reports the failure itself when
    it runs.
    """
    for scenario in parsed:
        if len(_table_cache) >= TABLE_CACHE_SIZE:
            return
        if isinstance(scenario, Scenario):
            try:
                _contention_tables(scenario, start_depths([scenario])[0])
            except (ValidationError, NumericsError):
                pass


def _stacks(parsed) -> dict[int, tuple]:
    """{row: (rows, scenarios, depth)} of the stack each parsed point is solved in.

    A stack holds points that share their routes (and so their links), MAC,
    timing, power profile, solver and start depth, in grid order, and at
    most STACK_ELEMENTS entries in each array; rows are their grid indices.
    Their tables may differ.  The stacks follow from the grid alone, and no
    value depends on them.  Where some point's start depth is refused, the
    points that share its routes, MAC and so on are left to solve alone,
    each to report its own refusal or solution.
    """
    groups: dict[tuple, list[int]] = {}
    for row, scenario in enumerate(parsed):
        if isinstance(scenario, Scenario):
            key = (scenario.hops.tobytes(), scenario.mac, scenario.timing, scenario.power,
                   scenario.solver)
            groups.setdefault(key, []).append(row)
    stacks = {}
    for rows in groups.values():
        try:
            depths = start_depths([parsed[row] for row in rows])
        except (ValidationError, NumericsError):
            continue
        n = len(parsed[rows[0]].links)
        for depth in dict.fromkeys(depths):
            at = [row for row, d in zip(rows, depths) if d == depth]
            size = max(1, STACK_ELEMENTS // (n * _list_rows(n - 1)[depth]))
            for start in range(0, len(at), size):
                stack = tuple(at[start:start + size])
                points = [parsed[row] for row in stack]
                stacks.update(dict.fromkeys(stack, (stack, points, depth)))
    return stacks


def solve_points(scenarios, depth: int | None = None) -> list[NetworkSolution]:
    """The solved network of each of the points, which share their routes,
    MAC, timing, power profile and solver: build, solve, check.

    Each point's tables hold the subset lists of its start depth: `depth`
    for all of them, as _stacks gives it, or by default each point's own
    (scenarios.start_depths).  The points of one depth are solved as one
    stacked solve_network.  A point whose truncation bound at its solution
    exceeds solver.tol is built again at the depth that bound asks for
    (scenarios.depths_at) and solved again alone, cold, until its bound
    is within tol; so each point gets the solution it gets alone.
    """
    first = scenarios[0]
    depths = start_depths(scenarios) if depth is None else [depth] * len(scenarios)
    solutions = [None] * len(scenarios)
    for start in dict.fromkeys(depths):
        at = [i for i, d in enumerate(depths) if d == start]
        solved = solve_network([_contention_tables(scenarios[i], start) for i in at],
                               first.hops, [scenarios[i].lam for i in at], first.mac,
                               first.timing, profile=first.power, config=first.solver)
        for i, solution in zip(at, solved):
            solutions[i] = _grown(scenarios[i], solution)
    return solutions


def _grown(scenario, solution: NetworkSolution) -> NetworkSolution:
    """The solution, or while its truncation bound exceeds solver.tol, the
    lone cold solve at the deeper depth its bound asks for."""
    while solution.truncation_bound > scenario.solver.tol:
        state = solution.state
        [depth] = depths_at((state.tau * (1.0 - state.alpha))[None], scenario.timing,
                            scenario.solver.tol)
        solution = solve_network(_contention_tables(scenario, max(depth, solution.depth + 1)),
                                 scenario.hops, scenario.lam, scenario.mac, scenario.timing,
                                 profile=scenario.power, config=scenario.solver)
    return solution


def _solve_stack(scenarios, depth: int | None = None) -> list:
    """solve_points of a stack's points, each solution or the error it ends in.

    If the stack fails, each point is solved alone, so that each gets the
    solution, or the error, that it gets in a sweep of its own.
    """
    try:
        return solve_points(scenarios, depth)
    except (NumericsError, ValidationError) as exc:
        if len(scenarios) == 1:
            return [exc]
        return [solved for scenario in scenarios for solved in _solve_stack([scenario])]


def _sim_work(scenario) -> float:
    """Packets a point's replications generate: sum of rates x horizon x replications."""
    if not isinstance(scenario, Scenario):
        return 0.0
    return sum(scenario.lam) * scenario.sim.horizon_seconds * scenario.sim.replications


def _analytic(scenario, row: int) -> tuple[dict, list[str]]:
    """Fixed-point model of the point at grid row `row`: {(src, dst, metric):
    value} plus warnings.

    In a serial sweep the first point of a stack solves the whole stack,
    for the others to read.  A pool worker solves each point alone: which
    worker runs which point is not known in advance, and the result is
    the same.
    """
    if row not in _solved:
        rows, scenarios, depth = _stack_of.get(row, ((row,), [scenario], None))
        _solved.update(zip(rows, _solve_stack(scenarios, depth)))
    solution = _solved.pop(row)
    if isinstance(solution, Exception):
        raise solution
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
    by_node = {src: mean for (src, _), (mean, _) in zip(scenario.links, rel)}
    end_to_end = {src: (end_to_end_reliability(scenario.hops, by_node, src), math.nan)
                  for src in by_node}
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


def _point_task(args):
    """Run the engines on one parsed point: ({engine: values}, warnings).

    An engine that fails is left out, with its message in the warnings, or
    with strict=True is raised.  A config error runs nothing.
    """
    scenario, _, engine, sim_workers, strict, row = args
    results, warnings = {}, []
    if not isinstance(scenario, Scenario):
        return results, warnings
    runners = {"analytic": lambda: _analytic(scenario, row),
               "simulate": lambda: _simulate(scenario, sim_workers)}
    for name in runners if engine == "compare" else [engine]:
        try:
            results[name], notes = runners[name]()
        except (NumericsError, ValidationError) as exc:
            if strict:
                raise
            notes = [str(exc)]
        warnings += [f"{name}: {note}" for note in notes]
    return results, warnings


def _block(sweep_id: str, scenario, assignments, results: dict,
           warnings: list[str]) -> list[list[str]]:
    """A point's CSV rows, each starting with the sweep's id: one error row
    for a config error, else its block, with empty cells for an engine that
    did not run."""
    prefix = [_fmt(value) for _, value in assignments]
    if not isinstance(scenario, Scenario):
        return [[sweep_id, *prefix, "", "", "error", "", "", "", "", scenario]]
    analytic, sim = results.get("analytic", {}), results.get("simulate", {})
    replications, notes = _fmt(scenario.sim.replications), "; ".join(warnings)
    rows = []
    for key in _row_keys(scenario.topology):
        src, dst, metric = key  # src and dst are node numbers, or "" on aggregate rows
        sim_mean, sim_ci = sim.get(key, (None, None))
        rows.append([
            sweep_id, *prefix, str(src), str(dst), metric,
            _fmt(analytic.get(key)), _fmt(sim_mean), _fmt(sim_ci),
            replications if key in sim else "", notes,
        ])
    return rows


def _csv_path(out_dir, name: str) -> Path:
    """out_dir/name, once out_dir exists and a file can be opened there for writing.

    Checked before any point runs, and no file is left behind.  A name that
    is not a bare file name, or an OSError or ValueError (a null byte),
    becomes a ValidationError that names the path; the directories this
    call created for it are removed again, deepest first.
    """
    path = Path(out_dir) / name
    if Path(name).name != name:
        raise ValidationError(f"cannot write {path}: {name!r} is not a bare file name")
    missing = [d for d in (Path(out_dir), *Path(out_dir).parents) if not d.exists()]
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        open(path, "a").close()
    except (OSError, ValueError) as exc:
        for made in missing:
            if made.is_dir():
                made.rmdir()
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    if not existed:
        path.unlink()
    return path


def run_sweep(
    config: dict,
    spec: SweepSpec,
    out_dir: str | Path = ".",
    workers: int = 1,
    out_name: str | None = None,
    strict: bool = False,
) -> Path:
    """Evaluate every grid point and write one CSV; returns the file path.

    An output path that cannot be written, or a refused scenario_id (even
    with out_name given), is a ValidationError before any point runs.
    Each point is parsed once, here: a config error becomes its error row,
    or with strict=True is raised, as is an engine failure.  A serial sweep
    stacks its analytic fixed points (_stacks).  With workers > 1 the points
    run in a process pool of at most one worker per point and per CPU
    (simulator.pool_size).  Simulated points are
    dispatched heaviest first (by _sim_work), so that no worker is left alone
    with a long point at the end; the blocks are written in grid order all
    the same.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    points = spec.points()
    sweep_id = scenario_id(config)  # no axis can set it (see SweepSpec)
    out_path = _csv_path(out_dir, out_name or f"{sweep_id}_sweep.csv")

    _table_cache.clear()
    _plan_cache.clear()
    for cached in (_row_keys, _next_hops, _mean_gains):
        cached.cache_clear()
    parsed = [_parse_point(config, assignments, strict) for assignments in points]
    pooled = workers > 1 and len(points) > 1
    sim_workers = workers if len(points) == 1 else 1
    order = list(range(len(points)))
    if spec.engine != "analytic":
        order.sort(key=lambda i: _sim_work(parsed[i]), reverse=True)
    tasks = [(parsed[i], points[i], spec.engine, sim_workers, strict, i) for i in order]
    if pooled:
        if spec.engine != "simulate":
            _prebuild_tables(parsed)  # once here, not once per worker
        with ProcessPoolExecutor(max_workers=pool_size(workers, len(tasks))) as pool:
            done = dict(zip(order, pool.map(_point_task, tasks)))
    else:
        if spec.engine != "simulate":
            _stack_of.update(_stacks(parsed))
        try:
            done = dict(zip(order, map(_point_task, tasks)))
        finally:  # a point's solution is dropped once read; drop the rest too
            _stack_of.clear()
            _solved.clear()

    header = ["scenario_id", *spec.paths, *FIXED_COLUMNS]
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for i, (scenario, assignments) in enumerate(zip(parsed, points)):
            writer.writerows(_block(sweep_id, scenario, assignments, *done[i]))
    return out_path
