"""Span tracing of csmafade's layers, installed from outside the package.

`Tracer.install` replaces the public functions of each layer with timing
wrappers, in the module namespace where callers look them up: `sweep`
imports `build_contention_tables`, `compile_sim_network`,
`scenario_from_config`, `solve_network` and `run_experiment` into its own
namespace, and `multihop` does the same with `solve_fixed_point`, so those
are patched on `sweep` and `multihop`, not where they are defined.

A span is the tuple (name, start, end, parent, point, attrs): `perf_counter`
times, the index of the enclosing span (-1 for none), the sweep point id, and
a small dict of counts read from the call's arguments or result.  Sweep
points may run in forked pool workers; there each point's spans are spooled
to a file when the point ends, and `Tracer.sweep` merges them back under the
`sweep.run_sweep` span.  On Linux `perf_counter` reads CLOCK_MONOTONIC, which
all processes share, so worker spans nest inside the parent's span.
"""

from __future__ import annotations

import functools
import os
import pickle
import statistics
import time
from collections import defaultdict
from pathlib import Path

NO_PARENT = -1
SWEEP_PARENT = -2  # placeholder for the run_sweep span of the merging process

NAME, START, END, PARENT, POINT, ATTRS = range(6)


class Tracer:
    """Collects spans for one traced sweep; spool is a private scratch directory."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.point = -1
        self.point_ids: dict[tuple, int] = {}
        self.pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, attrs=None):
        """Return fn wrapped in a span; attrs(args, kwargs, result) adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else NO_PARENT
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.point, None)
            if attrs is not None:
                tracer.spans[idx] = tracer.spans[idx][:ATTRS] + (attrs(args, kwargs, result),)
            return result

        return traced

    def _wrap_point(self, fn):
        """Span around sweep._point_task; a pool worker spools the point's spans."""
        tracer = self
        traced = self.wrap("sweep.point", fn)

        @functools.wraps(fn)
        def point_task(args):
            base = len(tracer.spans)
            outer_stack = tracer.stack
            tracer.point = tracer.point_ids[args[1]]
            tracer.stack = [SWEEP_PARENT]
            try:
                return traced(args)
            finally:
                if os.getpid() != tracer.pid:
                    chunk = [
                        s[:PARENT] + (s[PARENT] - base if s[PARENT] >= 0 else s[PARENT],)
                        + s[POINT:]
                        for s in tracer.spans[base:]
                    ]
                    del tracer.spans[base:]
                    with open(tracer.spool / f"point-{tracer.point}.pkl", "wb") as f:
                        pickle.dump(chunk, f)
                tracer.stack = outer_stack
                tracer.point = -1

        return point_task

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public entry points; undo with `uninstall`."""
        from csmafade import channel, multihop, simulator, sweep

        w = self.wrap
        self._patch(sweep, "_point_task", self._wrap_point(sweep._point_task))
        self._patch(sweep, "scenario_from_config", w("scenarios.parse", sweep.scenario_from_config))
        self._patch(sweep, "build_contention_tables",
                    w("scenarios.tables", sweep.build_contention_tables, _table_attrs))
        self._patch(sweep, "compile_sim_network",
                    w("scenarios.compile_sim", sweep.compile_sim_network))
        self._patch(sweep, "solve_network",
                    w("multihop.solve_network", sweep.solve_network,
                      lambda a, k, r: {"outer": r.outer_iterations}))
        self._patch(multihop, "solve_fixed_point",
                    w("macmodel.solve_fixed_point", multihop.solve_fixed_point, _solve_attrs))
        self._patch(sweep, "run_experiment", w("simulator.run_experiment", sweep.run_experiment))
        self._patch(simulator, "run_replication",
                    w("simulator.replication", simulator.run_replication, _replication_attrs))
        for fn_name, span_name in (
            ("detection_probability", "channel.detection"),
            ("outage_probability", "channel.outage"),
            ("mma_fit", "channel.mma_fit"),
            ("lognormal_expectation", "channel.quad"),
        ):
            self._patch(channel, fn_name, w(span_name, getattr(channel, fn_name)))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def sweep(self, run_sweep, config, spec, **kwargs):
        """Run one traced sweep, then merge the spooled point spans under it."""
        self.point_ids = {assignments: i for i, assignments in enumerate(spec.points())}
        idx = len(self.spans)
        out = self.wrap("sweep.run_sweep", run_sweep)(config, spec, **kwargs)
        self.spans[idx:] = [_reparent(s, idx, 0) for s in self.spans[idx:]]
        for path in sorted(self.spool.glob("point-*.pkl")):
            with open(path, "rb") as f:
                chunk = pickle.load(f)
            path.unlink()
            offset = len(self.spans)
            self.spans.extend(_reparent(s, idx, offset) for s in chunk)
        points = sum(1 for s in self.spans[idx:] if s[NAME] == "sweep.point")
        if points != spec.n_points:
            raise RuntimeError(f"traced {points} of {spec.n_points} sweep points")
        return out


def _reparent(span, sweep_idx: int, offset: int) -> tuple:
    """Point the placeholder parent at sweep_idx and shift other parents by offset."""
    parent = span[PARENT]
    if parent == SWEEP_PARENT:
        parent = sweep_idx
    elif parent >= 0:
        parent += offset
    return span[:PARENT] + (parent,) + span[POINT:]


def _table_attrs(args, kwargs, tables):
    scenario = args[0]
    key = repr((scenario.topology, scenario.channel, scenario.fading, scenario.tx_power_dbm))
    return {"subsets": sum(len(t.p_det) for t in tables), "key": key}


def _solve_attrs(args, kwargs, result):
    clamped = any("clamped" in w for w in result.warnings)
    return {"iterations": result.iterations, "clamped": int(clamped)}


def _replication_attrs(args, kwargs, stats):
    return {
        "generated": int(stats.generated.sum()),
        "cca_attempts": int(stats.cca_attempts.sum()),
        "data_attempts": int(stats.data_attempts.sum()),
        "sim_seconds": float(args[1].horizon_seconds),
    }


# -- analysis --------------------------------------------------------------


def children_of(spans) -> dict[int, list[int]]:
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(spans, kids, i: int) -> float:
    """Span duration minus the part of it that child spans cover."""
    s = spans[i]
    return (s[END] - s[START]) - covered((spans[c][START], spans[c][END]) for c in kids[i])


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sweep whose harness-timed wall is wall_s."""
    kids = children_of(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def total_self(name):
        return sum(self_time(spans, kids, i) for i in by_name[name])

    def attr_sum(name, key):
        return sum(spans[i][ATTRS][key] for i in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    tables = by_name["scenarios.tables"]
    solves = by_name["macmodel.solve_fixed_point"]
    reps = by_name["simulator.replication"]
    points = [dur(i) for i in by_name["sweep.point"]]
    top = [i for i, s in enumerate(spans) if s[PARENT] == NO_PARENT]
    rep_s = sum(dur(i) for i in reps)
    solve_s = total("macmodel.solve_fixed_point")
    iterations = attr_sum("macmodel.solve_fixed_point", "iterations")
    outages = len(by_name["channel.outage"])
    quad = len(by_name["channel.quad"])
    cca = attr_sum("simulator.replication", "cca_attempts")
    sweep_s = total("sweep.run_sweep")
    return {
        "scenarios.parse_s": total("scenarios.parse"),
        "scenarios.tables_s": total("scenarios.tables"),
        "scenarios.tables_self_s": total_self("scenarios.tables"),
        "scenarios.subsets": attr_sum("scenarios.tables", "subsets"),
        "scenarios.table_builds": len(tables),
        "scenarios.table_builds_unique": len({spans[i][ATTRS]["key"] for i in tables}),
        "scenarios.compile_sim_s": total("scenarios.compile_sim"),
        "channel.detection_calls": len(by_name["channel.detection"]),
        "channel.detection_s": total("channel.detection"),
        "channel.outage_calls": outages,
        "channel.outage_s": total("channel.outage"),
        "channel.mma_fits": len(by_name["channel.mma_fit"]),
        "channel.quad_evals": quad,
        "channel.quad_evals_per_outage": ratio(quad, outages),
        "macmodel.solves": len(solves),
        "macmodel.iterations": iterations,
        "macmodel.solve_s": solve_s,
        "macmodel.s_per_iteration": ratio(solve_s, iterations),
        "macmodel.clamped_solves": attr_sum("macmodel.solve_fixed_point", "clamped"),
        "multihop.solve_s": total("multihop.solve_network"),
        "multihop.self_s": total_self("multihop.solve_network"),
        "multihop.outer_iterations": attr_sum("multihop.solve_network", "outer"),
        "simulator.replications": len(reps),
        "simulator.replication_s.p50": _percentile([dur(i) for i in reps], 50),
        "simulator.replication_s.p90": _percentile([dur(i) for i in reps], 90),
        "simulator.experiment_self_s": total_self("simulator.run_experiment"),
        "simulator.sim_s_per_host_s": ratio(attr_sum("simulator.replication", "sim_seconds"), rep_s),
        "simulator.generated": attr_sum("simulator.replication", "generated"),
        "simulator.cca_attempts": cca,
        "simulator.data_attempts": attr_sum("simulator.replication", "data_attempts"),
        "simulator.cca_per_host_s": ratio(cca, rep_s),
        "sweep.point_s.p50": _percentile(points, 50),
        "sweep.point_s.max": max(points, default=0.0),
        "sweep.self_s": total_self("sweep.run_sweep"),
        "sweep.pool_speedup": ratio(sum(points), sweep_s),
        "unattributed_s": wall_s - sum(dur(i) for i in top),
    }
