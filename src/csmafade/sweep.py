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
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericsError, ValidationError
from .macmodel import SubsetList, _list_rows
from .multihop import NetworkSolution, end_to_end_reliability, route, solve_network
from .scenarios import (ROW_BUDGET, RowPlan, Scenario, assign, build_contention_tables,
                        compile_sim_network, depths_at, scenario_from_config, scenario_id,
                        start_depths)
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


# How many table sets of ROW_BUDGET rows one pass may hold (_Pass.tables)
TABLE_CACHE_SIZE = 8

# A stack holds at most STACK_ELEMENTS entries, P points x L links x
# subset-list rows, in each of its arrays: the subset weights, each table
# it gathers (p_det and p_out) and the products of contention_terms.  The
# budget sits at the knee of a measured curve: a 16-point grid on the
# 11-link star (kappa x sigma x channel.b_db, mostly 386 rows per link)
# took 4.5, 3.3, 3.1 and 3.1 ms per point at 2^13, 2^14, 2^15 and 2^16,
# with a tracemalloc peak per sweep of 1.0, 1.2, 1.8 and 3.5 MiB: past
# 2^15 a stack is hardly faster, and its memory doubles.  At 2^15 the four
# points of the star12-tables benchmark and the 15 of line9-traffic each
# form one stack.
STACK_ELEMENTS = 2**15


LINK_METRICS = ("reliability", "delay_s", "power_mw")
AGGREGATE_METRICS = ("mean_reliability", "mean_delay_s", "mean_power_mw")


def _keyed(keys, outcome) -> tuple[dict, list[str]]:
    """An engine's (values, warnings) with its values keyed by row: values
    are per-link triples in link order, the aggregate triple, and
    end_to_end[origin] for the block's end-to-end rows.  An engine that did
    not run (None) or ran into an error (values None) keys nothing."""
    values, warnings = outcome or (None, [])
    if values is None:
        return {}, warnings
    per_link, aggregates, end_to_end = values
    cells = [v for triple in per_link for v in triple] + list(aggregates)
    cells += [end_to_end[src] for src, _, _ in keys[len(cells):]]
    return dict(zip(keys, cells, strict=True)), warnings


def _table_key(scenario) -> tuple:
    """What a point's contention tables read besides their depth, as parsed:
    the topology and transmit power (its links and mean gains), the channel
    and the fading."""
    return (scenario.topology, scenario.tx_power_dbm, scenario.channel, scenario.fading)


class _Pass:
    """What one run_sweep or solve_points call works out once for all its
    points, dropped when the call ends: the geometry memo the points are
    parsed with (parse), which holds only arrays that the parsed Scenarios
    reference and so needs no bound; each topology's CSV row keys
    (row_keys); one macmodel.SubsetList per contender count and depth
    (subset_list); and the contention tables built, oldest first, with
    their row plans (scenarios.RowPlan), one per geometry, depth and gain
    rank pattern (tables).
    """

    def __init__(self) -> None:
        self.geometry: dict = {}
        self.rows: dict = {}
        self.lists: dict[tuple[int, int], SubsetList] = {}
        self.sets: dict[tuple, np.recarray] = {}
        self.plans: dict[tuple, RowPlan] = {}
        self.entries = 0  # of p_det, over the sets held

    def parse(self, config: dict, assignments, strict: bool):
        """Assign a grid point's values into a copy of the sweep's config and validate it.

        Only the sections along the assigned paths are copied; the parse
        reads the rest of the config without changing it.  Returns the
        point's Scenario, or for a config error the error row's message;
        strict=True re-raises the error instead.
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
            return scenario_from_config(point, default_id="scenario", geometry=self.geometry)
        except (ValidationError, NumericsError) as exc:
            if strict:
                raise
            return f"config: {exc}"

    def row_keys(self, scenario) -> tuple[tuple, ...]:
        """(src, dst, metric) of every row in the block of a point on the
        scenario's topology, in output order; its routes are walked once."""
        if scenario.topology not in self.rows:
            next_hop = scenario.hops
            routes = [route(next_hop, src) for src in np.flatnonzero(next_hop >= 0).tolist()]
            keys = [(nodes[0], nodes[1], m) for nodes in routes for m in LINK_METRICS]
            keys += [("", "", m) for m in AGGREGATE_METRICS]
            if any(len(nodes) > 2 for nodes in routes):
                keys += [(nodes[0], nodes[-1], "end_to_end_reliability") for nodes in routes]
            self.rows[scenario.topology] = tuple(keys)
        return self.rows[scenario.topology]

    def subset_list(self, k: int, depth: int) -> SubsetList:
        if (k, depth) not in self.lists:
            self.lists[k, depth] = SubsetList(k, depth)
        return self.lists[k, depth]

    def tables(self, scenario, depth: int) -> np.recarray:
        """build_contention_tables of the point at the depth, read-only and
        shared by points whose tables cannot differ (that differ in rates,
        MAC, timing or simulator settings); points whose gains rank alike
        (say, that differ only in fading, thresholds or transmit power) share
        one row plan, so their builds only refit.  The pass holds at most
        TABLE_CACHE_SIZE x ROW_BUDGET entries of p_det, and no more plans
        than table sets; the oldest go first."""
        key = (_table_key(scenario), depth)
        tables = self.sets.get(key)
        if tables is None:
            subsets = self.subset_list(len(scenario.links) - 1, depth)
            tables = self.sets[key] = build_contention_tables(scenario, subsets, self.plans)
            self.entries += tables.p_det.size
            while self.entries > TABLE_CACHE_SIZE * ROW_BUDGET:
                self.entries -= self.sets.pop(next(iter(self.sets))).p_det.size
            while len(self.plans) > len(self.sets):
                del self.plans[next(iter(self.plans))]
        return tables

    def solve(self, scenarios, depth: int):
        """solve_network of a stack's points on their tables at the depth."""
        first = scenarios[0]
        return solve_network([self.tables(scenario, depth) for scenario in scenarios],
                             self.subset_list(len(first.links) - 1, depth), first.hops,
                             [scenario.lam for scenario in scenarios], first.mac,
                             first.timing, profile=first.power, config=first.solver)


def _stacks(parsed) -> list[tuple]:
    """(rows, scenarios, depth) of each stack that solve_points solves the
    parsed points in; every parsed Scenario is in one, and config errors
    are in none.

    A stack holds points that share their routes (and so their links), MAC,
    timing, power profile, solver and start depth, in grid order, and at
    most STACK_ELEMENTS entries in each array; rows are their grid indices.
    Their tables may differ.  The stacks follow from the grid alone, and no
    value depends on them.  Where some point's start depth is refused, the
    points that share its routes, MAC and so on are each a stack of their
    own, at depth None, to report its own refusal or solution.
    """
    groups: dict[tuple, list[int]] = {}
    for row, scenario in enumerate(parsed):
        if isinstance(scenario, Scenario):
            key = (scenario.hops.tobytes(), scenario.mac, scenario.timing, scenario.power,
                   scenario.solver)
            groups.setdefault(key, []).append(row)
    stacks = []
    for rows in groups.values():
        try:
            depths = start_depths([parsed[row] for row in rows])
        except (ValidationError, NumericsError):
            stacks += [((row,), [parsed[row]], None) for row in rows]
            continue
        n = len(parsed[rows[0]].links)
        for depth in dict.fromkeys(depths):
            at = [row for row, d in zip(rows, depths) if d == depth]
            size = max(1, STACK_ELEMENTS // (n * _list_rows(n - 1)[depth]))
            for start in range(0, len(at), size):
                stack = tuple(at[start:start + size])
                stacks.append((stack, [parsed[row] for row in stack], depth))
    return stacks


def solve_points(points):
    """(index, solution or error) of each Scenario among the parsed points,
    one stack (see _stacks) at a time, as the caller reads them.

    The points of a stack are solved as one stacked solve_network, on
    tables that hold the subset lists of their start depth
    (scenarios.start_depths); a point whose start depth is refused gives
    its refusal.  A point whose truncation bound at its solution exceeds
    solver.tol is built again at the depth that bound asks for and solved
    again alone, cold, until its bound is within tol (_grown).  If a stack
    fails, its points are solved alone, each only once the caller reads
    it.  So each point gets the solution, or the error, that it gets
    alone, and a caller that stops at an error pays for no further solve.
    The call is one pass (_Pass): its subset lists, tables and row plans
    are made for it and dropped when it ends.
    """
    return _solve(points, _Pass())


def _solve(points, run: _Pass):
    """solve_points within the pass `run`."""
    for rows, scenarios, depth in _stacks(points):
        yield from zip(rows, _stack_solutions(scenarios, depth, run))


def _stack_solutions(scenarios, depth: int | None, run: _Pass):
    """The solutions of a stack's points at `depth` (None: a lone point at
    its own start depth); or if the stack fails, an iterator that solves
    each point alone as it is read, and for a lone point, its error."""
    try:
        if depth is None:
            [depth] = start_depths(scenarios)
        solved = run.solve(scenarios, depth)
        return [_grown(scenario, solution, run) for scenario, solution in zip(scenarios, solved)]
    except (NumericsError, ValidationError) as exc:
        if len(scenarios) == 1:
            return [exc]
        return (_stack_solutions([scenario], depth, run)[0] for scenario in scenarios)


def _grown(scenario, solution: NetworkSolution, run: _Pass) -> NetworkSolution:
    """The solution, or while its truncation bound exceeds solver.tol, the
    lone cold solve at the deeper depth its bound asks for."""
    while solution.truncation_bound > scenario.solver.tol:
        state = solution.state
        [depth] = depths_at((state.tau * (1.0 - state.alpha))[None], scenario.timing,
                            scenario.solver.tol)
        [solution] = run.solve([scenario], max(depth, solution.depth + 1))
    return solution


def _sim_work(scenario) -> float:
    """Packets a point's replications generate: sum of rates x horizon x replications."""
    if not isinstance(scenario, Scenario):
        return 0.0
    return sum(scenario.lam) * scenario.sim.horizon_seconds * scenario.sim.replications


def _analytic(solution, strict: bool) -> tuple:
    """A point's analytic values in link order (see _keyed) plus warnings,
    from its solution, or no values (None) and the message of the error it
    ended in; strict=True raises that error instead."""
    if isinstance(solution, Exception):
        if strict:
            raise solution
        return None, [str(solution)]
    rep = solution.report
    values = (list(zip(rep.reliability, rep.delay_seconds, rep.power_mw)),
              (rep.mean_reliability, rep.mean_delay_seconds, rep.mean_power_mw),
              solution.end_to_end)
    warnings = list(solution.warnings)
    if np.isnan(rep.delay_seconds).any():
        warnings.append("delay undefined on some links")
    return values, warnings


def _simulate(scenario, workers: int) -> tuple:
    """Event simulator: (mean, ci95_half) values in link order (see _keyed)
    plus warnings."""
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
    values = (list(zip(rel, delay, power)), aggregates, end_to_end)
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
    """Simulate one parsed point: its (values, warnings) from _simulate, or
    None where the engine is analytic or the point has a config error.

    args are (scenario, assignments, engine, sim_workers, strict); the
    analytic engine runs in the sweep's own process (see run_sweep).  A
    simulation that fails leaves no values (None), with its message in
    the warnings, or with strict=True is raised.
    """
    scenario, _, engine, sim_workers, strict = args
    if engine == "analytic" or not isinstance(scenario, Scenario):
        return None
    try:
        return _simulate(scenario, sim_workers)
    except (NumericsError, ValidationError) as exc:
        if strict:
            raise
        return None, [str(exc)]


def _block(sweep_id: str, scenario, assignments, analytic, simulated,
           run: _Pass) -> list[list[str]]:
    """A point's CSV rows, each starting with the sweep's id: one error row
    for a config error, else its block of the pass's row keys from each
    engine's (values, warnings), with empty cells for an engine that did
    not run (None)."""
    prefix = [_fmt(value) for _, value in assignments]
    if not isinstance(scenario, Scenario):
        return [[sweep_id, *prefix, "", "", "error", "", "", "", "", scenario]]
    keys = run.row_keys(scenario)
    (analytic, a_notes), (sim, s_notes) = _keyed(keys, analytic), _keyed(keys, simulated)
    notes = "; ".join([f"analytic: {note}" for note in a_notes]
                      + [f"simulate: {note}" for note in s_notes])
    replications = _fmt(scenario.sim.replications)
    rows = []
    for key in keys:
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
    The call is one pass (_Pass).  Each point is parsed once, here: a config
    error becomes its error row, or with strict=True is raised.  Unless the
    engine is simulate, this process then solves the parsed points as
    solve_points does before any point runs, and keeps each point's values
    and warnings, or its error, once its stack is read; with strict=True the
    first point that fails raises its error, before any simulation.
    _point_task then runs once per point and simulates: in this process, or,
    when more than one point is simulated and workers > 1, in a process pool
    of at most one worker per point and per CPU (simulator.pool_size).  An
    analytic sweep never starts a pool.  Pooled points are dispatched
    heaviest first (by _sim_work), so that no worker is left alone with a
    long point at the end; each block is keyed by the pass's row keys and
    written in grid order.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    points = spec.points()
    sweep_id = scenario_id(config)  # no axis can set it (see SweepSpec)
    out_path = _csv_path(out_dir, out_name or f"{sweep_id}_sweep.csv")

    run = _Pass()
    parsed = [run.parse(config, assignments, strict) for assignments in points]
    analytic = {}
    if spec.engine != "simulate":
        for row, solved in _solve(parsed, run):
            analytic[row] = _analytic(solved, strict)
            del solved  # so that a stack's solutions are dropped once its points are read
    sim_workers = workers if len(points) == 1 else 1
    tasks = [(scenario, assignments, spec.engine, sim_workers, strict)
             for scenario, assignments in zip(parsed, points)]
    if spec.engine != "analytic" and workers > 1 and len(points) > 1:
        order = sorted(range(len(tasks)), key=lambda i: _sim_work(parsed[i]), reverse=True)
        with ProcessPoolExecutor(max_workers=pool_size(workers, len(tasks))) as pool:
            by_row = dict(zip(order, pool.map(_point_task, [tasks[i] for i in order])))
        simulated = [by_row[i] for i in range(len(tasks))]
    else:
        simulated = list(map(_point_task, tasks))

    header = ["scenario_id", *spec.paths, *FIXED_COLUMNS]
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for i, (scenario, assignments) in enumerate(zip(parsed, points)):
            writer.writerows(_block(sweep_id, scenario, assignments, analytic.get(i),
                                    simulated[i], run))
    return out_path
