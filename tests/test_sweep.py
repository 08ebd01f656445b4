"""Sweep grids, CSV determinism, and failure bookkeeping."""

import copy
import csv
import gc
import hashlib
import importlib
import itertools
import math
import os
import pathlib
import pkgutil
import time
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from one_point import network, whole
import csmafade
from csmafade import cli, multihop, scenarios, simulator, sweep
from csmafade.errors import NumericsError, ValidationError
from csmafade.macmodel import ALPHA_CAP, SubsetList
from csmafade.multihop import solve_network
from csmafade.scenarios import (
    build_contention_tables,
    compile_sim_network,
    load_config,
    parse_config,
    scenario_from_config,
)
from csmafade.simulator import SimConfig, run_experiment
from csmafade.sweep import SweepSpec, run_sweep, sweep_from_config

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "tiny3_sweep.csv"
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

TINY = """
scenario_id: tiny3
topology:
  kind: star
  n_nodes: 3
  spacing_m: 1.0
lam: 5.0
fading:
  sigma: 1.0
sim:
  horizon_seconds: 10.0
  replications: 4
  master_seed: 7
sweep:
  engine: compare
  parameters:
    - path: lam
      values: [2.0, 10.0]
"""


def tiny_config():
    return parse_config(TINY, "tiny3.yaml")


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_golden_csv_is_reproduced(tmp_path):
    config = tiny_config()
    out = run_sweep(config, sweep_from_config(config), out_dir=tmp_path)
    assert out.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "golden, config_name, overrides, axes",
    [
        # five transmitters: the closed-form tail, the incomplete gamma
        # (kappa 1.5), the integer-kappa series and the quadrature ladder
        ("star6_kappa_sweep.csv", "star7.yaml",
         ["scenario_id=star6", "topology.n_nodes=6", "lam=10"],
         [("fading.kappa", [None, 1.5, 2.0]), ("fading.sigma", [1.0, 2.0])]),
        # the 8-hop relay line: the traffic loop, end-to-end rows, and
        # aggregates over 8 links
        ("line9_sweep.csv", "line5.yaml", ["scenario_id=line9", "topology.n_nodes=9"],
         [("lam", [2.0, 30.0]), ("fading.sigma", [0.0, 2.0])]),
    ],
)
def test_analytic_golden_csv_is_reproduced(tmp_path, golden, config_name, overrides, axes,
                                           workers):
    # the points stack across their table sets, whatever the worker count
    config = load_config(CONFIGS / config_name, overrides)
    config["sweep"] = {"engine": "analytic",
                       "parameters": [{"path": p, "values": v} for p, v in axes]}
    out = run_sweep(config, sweep_from_config(config), out_dir=tmp_path, workers=workers)
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_rerun_and_parallel_assembly_are_byte_identical(tmp_path):
    config = tiny_config()
    spec = sweep_from_config(config)
    first = run_sweep(config, spec, out_dir=tmp_path, out_name="a.csv")
    again = run_sweep(config, spec, out_dir=tmp_path, out_name="b.csv")
    parallel = run_sweep(config, spec, out_dir=tmp_path, out_name="c.csv", workers=2)
    assert first.read_bytes() == again.read_bytes() == parallel.read_bytes()


def test_pooled_compare_sweep_runs_the_heaviest_points_first(tmp_path, monkeypatch):
    config = tiny_config()
    config["sweep"]["parameters"] = [{"path": "lam", "values": [2.0, 5.0, 10.0]}]
    spec = sweep_from_config(config)
    submitted = []  # recorded in this process, before the pool's workers see the tasks

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, tasks):
            tasks = list(tasks)
            submitted.extend(assignments for _, assignments, *_ in tasks)
            return super().map(fn, tasks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    pooled = run_sweep(config, spec, out_dir=tmp_path, out_name="pooled.csv", workers=2)
    serial = run_sweep(config, spec, out_dir=tmp_path, out_name="serial.csv", workers=1)
    assert pooled.read_bytes() == serial.read_bytes()
    # work is sum(lam) x horizon x replications, and only lam varies
    assert submitted == [(("lam", 10.0),), (("lam", 5.0),), (("lam", 2.0),)]


@pytest.fixture()
def inline_pool(monkeypatch):
    """Stand in for both process pools: record each pool's size and tasks, run
    the tasks in this process, and start no process.  The process may run on
    64 CPUs, so that only the task count caps a pool."""
    log = {"sizes": [], "tasks": []}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)

    class InlinePool:
        def __init__(self, max_workers):
            log["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            log["tasks"].append(tasks)
            return [fn(task) for task in tasks]

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", InlinePool)
    return log


def test_pools_are_capped_at_their_task_count(tmp_path, inline_pool):
    config = tiny_config()  # 2 points of 4 replications
    spec = sweep_from_config(config)
    run_sweep(config, spec, out_dir=tmp_path, out_name="points.csv", workers=5)
    one_point = SweepSpec(parameters=(), engine="simulate")
    run_sweep(config, one_point, out_dir=tmp_path, out_name="reps.csv", workers=9)
    assert inline_pool["sizes"] == [2, 4]
    net = compile_sim_network(scenario_from_config(config))
    run_experiment(net, SimConfig(horizon_seconds=1.0, replications=3), workers=8)
    assert inline_pool["sizes"] == [2, 4, 3]


def test_pools_are_capped_at_the_cpu_count(tmp_path, inline_pool, monkeypatch):
    # a fork pool starts all its processes at once, however few tasks are left
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    config = tiny_config()
    config["sweep"]["engine"] = "simulate"
    config["sweep"]["parameters"] = [{"path": "lam", "values": [1.0, 2.0, 5.0, 10.0, 20.0]}]
    run_sweep(config, sweep_from_config(config), out_dir=tmp_path, workers=5000)
    net = compile_sim_network(scenario_from_config(config))
    run_experiment(net, SimConfig(horizon_seconds=1.0, replications=5), workers=5000)
    run_experiment(net, SimConfig(horizon_seconds=1.0, replications=5), workers=2)
    assert inline_pool["sizes"] == [3, 3, 2]


def test_an_analytic_sweep_starts_no_pool_and_runs_its_points_in_grid_order(
        tmp_path, inline_pool, monkeypatch):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "lam", "values": [10.0, 2.0, 5.0]}]
    ran = []
    point_task = sweep._point_task

    def recording(args):
        ran.append(args[1])
        return point_task(args)

    monkeypatch.setattr(sweep, "_point_task", recording)
    run_sweep(config, sweep_from_config(config), out_dir=tmp_path, workers=2)
    assert inline_pool["sizes"] == [] and inline_pool["tasks"] == []
    assert ran == [(("lam", 10.0),), (("lam", 2.0),), (("lam", 5.0),)]


def test_workers_below_one_are_rejected(tmp_path):
    config = tiny_config()
    with pytest.raises(ValidationError, match="workers"):
        run_sweep(config, sweep_from_config(config), out_dir=tmp_path, workers=0)
    assert not list(tmp_path.iterdir())


def test_header_names_the_sweep_parameters(tmp_path):
    config = tiny_config()
    out = run_sweep(config, sweep_from_config(config), out_dir=tmp_path)
    header = out.read_text().splitlines()[0].split(",")
    assert header == [
        "scenario_id", "lam", "src", "dst", "metric", "analytic_value",
        "sim_mean", "sim_ci95_half", "replications", "warnings",
    ]


def test_cross_product_order_varies_last_axis_fastest(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"].append(
        {"path": "fading.sigma", "values": [0.0, 2.0]}
    )
    out = run_sweep(config, sweep_from_config(config), out_dir=tmp_path)
    pairs = [(r["lam"], r["fading.sigma"]) for r in read_rows(out)]
    order = []
    for p in pairs:
        if p not in order:
            order.append(p)
    assert order == [("2", "0"), ("2", "2"), ("10", "0"), ("10", "2")]


def test_analytic_engine_leaves_sim_columns_empty(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert rows and all(
        r["sim_mean"] == r["sim_ci95_half"] == r["replications"] == "" for r in rows
    )
    assert all(r["analytic_value"] != "" for r in rows)


def test_simulate_engine_leaves_analytic_column_empty(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "simulate"
    config["sweep"]["parameters"] = [{"path": "lam", "values": [2.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert rows and all(r["analytic_value"] == "" for r in rows)
    assert all(r["replications"] == "4" for r in rows)


def test_point_block_has_per_link_then_aggregate_rows(tmp_path):
    config = tiny_config()
    config["sweep"]["parameters"] = [{"path": "lam", "values": [2.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    metrics = [(r["src"], r["dst"], r["metric"]) for r in rows]
    assert metrics == [
        ("1", "0", "reliability"), ("1", "0", "delay_s"), ("1", "0", "power_mw"),
        ("2", "0", "reliability"), ("2", "0", "delay_s"), ("2", "0", "power_mw"),
        ("", "", "mean_reliability"), ("", "", "mean_delay_s"), ("", "", "mean_power_mw"),
    ]


def test_failing_point_is_reported_and_the_sweep_continues(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [
        {"path": "fading.sigma", "values": [-1.0, 1.0]}
    ]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad = [r for r in rows if r["fading.sigma"] == "-1"]
    good = [r for r in rows if r["fading.sigma"] == "1"]
    assert len(bad) == 1 and bad[0]["metric"] == "error"
    assert "sigma" in bad[0]["warnings"] and bad[0]["analytic_value"] == ""
    assert len(good) == 9 and all(r["warnings"] == "" for r in good)


def test_malformed_value_is_an_error_row_and_the_sweep_continues(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "lam", "values": ["abc", 2.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad = [r for r in rows if r["lam"] == "abc"]
    good = [r for r in rows if r["lam"] == "2"]
    assert len(bad) == 1 and bad[0]["metric"] == "error"
    assert "invalid config value" in bad[0]["warnings"]
    assert len(good) == 9 and all(r["warnings"] == "" for r in good)
    assert {r["scenario_id"] for r in rows} == {"tiny3"}  # error rows carry the sweep's id


def test_rate_that_is_not_a_number_is_an_error_row_naming_lam(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [
        {"path": "lam", "values": [True, None, {"a": 1}, [0.0, 1.0, False], 2.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad, good = rows[:4], rows[4:]
    assert [r["metric"] for r in bad] == ["error"] * 4
    for row, named in zip(bad, ("lam=True", "lam=None", "lam={'a': 1}", "lam[2]=False")):
        assert f"{named}: rates must be numbers" in row["warnings"]
    assert len(good) == 9 and all(r["warnings"] == "" for r in good)


def test_negative_seed_is_an_error_row_and_the_sweep_continues(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "sim.master_seed", "values": [-5, 7]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad = [r for r in rows if r["sim.master_seed"] == "-5"]
    good = [r for r in rows if r["sim.master_seed"] == "7"]
    assert len(bad) == 1 and bad[0]["metric"] == "error"
    assert "master_seed=-5 must be >= 0" in bad[0]["warnings"]
    assert len(good) == 9 and all(r["warnings"] == "" for r in good)


def test_routing_on_a_generated_topology_is_an_error_row(tmp_path):
    # a star or a line makes its own routing and placement, so an explicit
    # next_hop or positions_m would be ignored: the point is refused instead
    config = tiny_config()
    config["topology"] = {"kind": "explicit", "positions_m": [[0, 0], [1, 0], [0, 1]],
                          "next_hop": [-1, 0, 0]}
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "topology.kind", "values": ["line", "explicit"]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad = [r for r in rows if r["topology.kind"] == "line"]
    good = [r for r in rows if r["topology.kind"] == "explicit"]
    assert len(bad) == 1 and bad[0]["metric"] == "error"
    assert "positions_m is read by kind 'explicit' only, not 'line'" in bad[0]["warnings"]
    assert len(good) > 1 and all(r["metric"] != "error" for r in good)


def test_a_tree_only_key_is_an_error_row_on_a_star(tmp_path):
    config = tiny_config()
    config["topology"] = {"n_nodes": 4, "branching": 3}
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "topology.kind", "values": ["star", "tree"]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad = [r for r in rows if r["topology.kind"] == "star"]
    good = [r for r in rows if r["topology.kind"] == "tree"]
    assert len(bad) == 1 and bad[0]["metric"] == "error"
    assert "branching is read by kind 'tree' only, not 'star'" in bad[0]["warnings"]
    assert len(good) > 1 and all(r["metric"] != "error" for r in good)


def test_solver_damping_is_an_error_row_per_point(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "solver.damping", "values": [0.2]},
                                     {"path": "lam", "values": [1.0, 2.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert [r["metric"] for r in rows] == ["error", "error"]
    assert all("unknown key 'damping' in solver" in r["warnings"] for r in rows)


def test_timing_sb_seconds_is_an_error_row_per_point(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "timing.sb_seconds", "values": [0.00064]},
                                     {"path": "lam", "values": [1.0, 2.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert [r["metric"] for r in rows] == ["error", "error"]
    assert all("unknown key 'sb_seconds' in timing" in r["warnings"] for r in rows)


def test_topology_without_a_link_is_an_error_row(tmp_path):
    config = parse_config(
        "topology: {kind: explicit, positions_m: [[0, 0], [1, 0]], next_hop: [-1, 0]}\n"
        "lam: 0.0\n"
        "sweep: {engine: analytic, parameters: "
        "[{path: topology.next_hop, values: [[-1, -1], [-1, 0]]}]}\n"
    )
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert rows[0]["metric"] == "error" and "no link" in rows[0]["warnings"]
    assert len(rows) == 1 + 6 and all(r["warnings"] == "" for r in rows[1:])


def test_malformed_positions_are_error_rows(tmp_path):
    config = parse_config(
        "topology: {kind: explicit, positions_m: [[0, 0], [1, 0]], next_hop: [-1, 0]}\n"
        "lam: [0.0, 2.0]\n"
        "sweep: {engine: simulate, parameters: [{path: topology.positions_m, values: "
        "[[[0, 0], [1, 0, 0]], [[0, 0], [.nan, 0]], [[0, 0], [0, 0]], [[0, 0], [1, 0]]]}]}\n"
        "sim: {horizon_seconds: 2.0, replications: 1}\n"
    )
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert [r["metric"] for r in rows[:3]] == ["error"] * 3
    assert "(x, y) pairs" in rows[0]["warnings"] and "(x, y) pairs" in rows[1]["warnings"]
    assert "distance 0.0" in rows[2]["warnings"]
    assert len(rows) == 3 + 6 and all(r["warnings"] == "" for r in rows[3:])


@pytest.mark.parametrize("path, values, messages", [
    ("topology.positions_m", "['12', [[0, 0], '10'], [[0, 0], [1, 0]]]",
     ["positions_m must be a list of (x, y) pairs of numbers: got '12'",
      "topology.positions_m[1] is '10'"]),
    ("topology.next_hop", "[5, '10', [-1, 0]]",
     ["topology.next_hop must be a list of integers, got 5",
      "topology.next_hop must be a list of integers, got '10'"]),
])
def test_scalar_positions_and_hops_are_error_rows(tmp_path, path, values, messages):
    # a scalar is not read as a list of points, coordinates or hops: a string
    # was read character by character
    config = parse_config(
        "topology: {kind: explicit, positions_m: [[0, 0], [1, 0]], next_hop: [-1, 0]}\n"
        "lam: [0.0, 2.0]\n"
        f"sweep: {{engine: analytic, parameters: [{{path: {path}, values: {values}}}]}}\n"
    )
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert [r["metric"] for r in rows[:2]] == ["error"] * 2
    for row, text in zip(rows, messages):
        assert text in row["warnings"]
    assert len(rows) == 2 + 6 and all(r["warnings"] == "" for r in rows[2:])


def test_overflowing_geometry_is_an_error_row(tmp_path):
    config = parse_config(
        "topology: {kind: explicit, positions_m: [[0, 0], [1, 0]], next_hop: [-1, 0]}\n"
        "lam: [0.0, 2.0]\n"
        "sweep: {engine: analytic, parameters: [{path: topology.next_hop, values: "
        "[[-1, .inf], [-1, 0]]}]}\n"
    )
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert rows[0]["metric"] == "error" and "topology.next_hop" in rows[0]["warnings"]
    assert len(rows) == 1 + 6 and all(r["warnings"] == "" for r in rows[1:])

    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "topology.spacing_m", "values": [1e-300, 1.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad = [r for r in rows if r["topology.spacing_m"] == "1e-300"]
    good = [r for r in rows if r["topology.spacing_m"] == "1"]
    assert len(bad) == 1 and bad[0]["metric"] == "error"
    assert "topology.spacing_m" in bad[0]["warnings"]
    assert len(good) == 9 and all(r["warnings"] == "" for r in good)


@pytest.mark.parametrize(
    "path, default", [("tx_power_dbm", 0.0), ("channel.n0_dbm", -91.0), ("channel.b_db", 6.0)]
)
def test_level_beyond_the_float_range_is_an_error_row(tmp_path, path, default):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": path, "values": [1e308, -1e308, default]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert [(r[path], r["metric"]) for r in rows[:2]] == [("1e+308", "error"), ("-1e+308", "error")]
    assert all(path.split(".")[-1] in r["warnings"] for r in rows[:2])
    good = rows[2:]
    assert len(good) == 9 and all(r["warnings"] == "" and r["analytic_value"] for r in good)


def test_timing_off_the_symbol_grid_is_an_error_row(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "timing.packet_bytes", "values": [7.3, 70]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    bad = [r for r in rows if r["timing.packet_bytes"] == "7.3"]
    good = [r for r in rows if r["timing.packet_bytes"] == "70"]
    assert len(bad) == 1 and bad[0]["metric"] == "error"
    assert "whole number of symbols" in bad[0]["warnings"]
    assert len(good) == 9 and all(r["warnings"] == "" for r in good)


def test_one_engine_failing_keeps_the_other_engines_cells(tmp_path):
    config = tiny_config()
    config["solver"] = {"max_iter": 1}
    config["sim"]["replications"] = 2
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert len(rows) == 18
    for r in rows:
        assert r["analytic_value"] == ""
        assert r["sim_mean"] != "" and r["replications"] == "2"
        assert r["warnings"].startswith("analytic: fixed point did not converge")


def test_rows_match_the_engines_when_link_order_differs_from_node_order(tmp_path):
    # sink in the middle: links are (0, 1) and (2, 1), so link index 1 is node 2
    config = parse_config(
        """
scenario_id: mid
topology: {kind: explicit, positions_m: [[0, 0], [1, 0], [2.5, 0]], next_hop: [1, -1, 1]}
lam: [2.0, 0.0, 6.0]
fading: {sigma: 1.0}
sim: {horizon_seconds: 10.0, replications: 3, master_seed: 5}
""",
        "mid.yaml",
    )
    s = scenario_from_config(config)
    assert s.links == ((0, 1), (2, 1))
    sim = run_experiment(compile_sim_network(s), s.sim, s.power)
    report = network(
        build_contention_tables(s, whole(s)), s.hops, s.lam, s.mac, s.timing,
        profile=s.power, config=s.solver,
    ).report
    out = run_sweep(config, SweepSpec(parameters=(), engine="compare"), out_dir=tmp_path)
    with open(out, newline="") as f:
        rows = {(r[1], r[2], r[3]): r for r in list(csv.reader(f))[1:]}
    for l, (src, dst) in enumerate(s.links):
        expected = {
            "reliability": (report.reliability[l],
                            sim.reliability_mean[l], sim.reliability_ci95[l]),
            "delay_s": (report.delay_seconds[l],
                        sim.delay_mean_seconds[l], sim.delay_ci95_seconds[l]),
            "power_mw": (report.power_mw[l],
                         sim.power_mean_mw[src], sim.power_ci95_mw[src]),
        }
        for metric, (analytic, mean, ci) in expected.items():
            row = rows[str(src), str(dst), metric]
            assert row[4:7] == [f"{analytic:.9g}", f"{mean:.9g}", f"{ci:.9g}"]


def test_point_over_the_contender_cap_fails_fast_and_the_sweep_continues(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    # a 40-node star needs subsets of more than 2 of its 38 contenders,
    # whose lists would pass the row budget
    config["sweep"]["parameters"] = [{"path": "topology.n_nodes", "values": [40, 3]}]
    start = time.monotonic()
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert time.monotonic() - start < 5.0
    big = [r for r in rows if r["topology.n_nodes"] == "40"]
    small = [r for r in rows if r["topology.n_nodes"] == "3"]
    assert big and all(r["analytic_value"] == "" and "row budget" in r["warnings"] for r in big)
    assert len(small) == 9 and all(r["warnings"] == "" for r in small)


def test_points_that_differ_only_in_rate_share_their_tables(tmp_path, monkeypatch):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [
        {"path": "lam", "values": [2.0, 10.0, 20.0]},
        {"path": "fading.sigma", "values": [0.0, 1.0]},
    ]
    spec = sweep_from_config(config)
    builds = []

    def counting(scenario, subsets, plans=None):
        builds.append(scenario.fading.sigma)
        return build_contention_tables(scenario, subsets, plans)

    monkeypatch.setattr(sweep, "build_contention_tables", counting)
    plans = count_plans(monkeypatch)
    caches = watch_caches(monkeypatch)
    shared = run_sweep(config, spec, out_dir=tmp_path, out_name="shared.csv")
    assert sorted(builds) == [0.0, 1.0]
    assert len(plans) == 1
    [cache] = caches  # one pass
    for tables in cache.sets.values():
        assert not any(t.p_det.flags.writeable or t.p_out.flags.writeable for t in tables)

    # the same sweep with both caches emptied before every point
    build_every_point(monkeypatch)
    builds.clear()
    plans.clear()
    unshared = run_sweep(config, spec, out_dir=tmp_path, out_name="unshared.csv")
    assert len(builds) == len(plans) == 6
    assert shared.read_bytes() == unshared.read_bytes()


def build_every_point(monkeypatch) -> None:
    """Solve every point of later sweeps alone, and leave no room for any
    table set or plan in their caches, so that each lookup builds again."""
    monkeypatch.setattr(sweep, "TABLE_CACHE_SIZE", 0)
    monkeypatch.setattr(sweep, "STACK_ELEMENTS", 1)


def watch_caches(monkeypatch, lookup=None) -> list:
    """Record each pass that later sweeps make; with lookup, call
    lookup(cache, key, tables, built) after each of its table lookups."""
    made = []

    class Watched(sweep._Pass):
        def __init__(self):
            super().__init__()
            made.append(self)

        def tables(self, scenario, depth):
            key = (sweep._table_key(scenario), depth)
            built = key not in self.sets
            tables = super().tables(scenario, depth)
            if lookup is not None:
                lookup(self, key, tables, built)
            return tables

    monkeypatch.setattr(sweep, "_Pass", Watched)
    return made


def count_plans(monkeypatch, log=None) -> list:
    """Record each row plan worked out, as the pid that made it; with a log
    file, pool workers append their pids there too."""
    made = []
    row_plan = scenarios._row_plan

    def counting(*args):
        made.append(os.getpid())
        if log is not None:
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
        return row_plan(*args)

    monkeypatch.setattr(scenarios, "_row_plan", counting)
    return made


def test_fading_and_power_points_on_one_star_share_one_plan(tmp_path, monkeypatch):
    # kappa, sigma and tx_power_dbm move no gain's rank, so 8 table sets refit one plan
    config = tiny_config()
    config["topology"]["n_nodes"] = 5
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [
        {"path": "fading.kappa", "values": [None, 2.0]},
        {"path": "fading.sigma", "values": [1.0, 2.0]},
        {"path": "tx_power_dbm", "values": [0.0, -3.0]},
    ]
    spec = sweep_from_config(config)
    plans = count_plans(monkeypatch)
    caches = watch_caches(monkeypatch)
    planned = run_sweep(config, spec, out_dir=tmp_path, out_name="planned.csv")
    assert plans == [os.getpid()]
    [cache] = caches
    assert len(cache.sets) == 8 and len(cache.plans) == 1

    # the same sweep, each point from scratch
    build_every_point(monkeypatch)
    plans.clear()
    unplanned = run_sweep(config, spec, out_dir=tmp_path, out_name="unplanned.csv")
    assert len(plans) == 8
    assert planned.read_bytes() == unplanned.read_bytes()


def test_each_geometry_has_its_own_plan_and_the_cache_stays_bounded(tmp_path, monkeypatch):
    # stars of 3 to 12 nodes at two sigmas: 20 table sets of 4 to 5 120 entries
    n_geometries = sweep.TABLE_CACHE_SIZE + 2
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [
        {"path": "topology.n_nodes", "values": list(range(3, 3 + n_geometries))},
        {"path": "fading.sigma", "values": [0.0, 1.0]},
    ]
    spec = sweep_from_config(config)
    built = {}  # the p_det entries of each set built, oldest first

    def bounded(cache, key, tables, was_built):
        if was_built:
            built[key] = tables.p_det.size
        limit = sweep.TABLE_CACHE_SIZE * sweep.ROW_BUDGET
        held = [held_tables.p_det.size for held_tables in cache.sets.values()]
        assert cache.entries == sum(held) <= limit
        # the newest sets that fit in the limit, the oldest dropped first
        newest = list(built)
        while sum(built[k] for k in newest) > limit:
            newest.pop(0)
        assert list(cache.sets) == newest
        assert len(cache.plans) <= len(cache.sets)

    plans = count_plans(monkeypatch)
    caches = watch_caches(monkeypatch, bounded)
    roomy = run_sweep(config, spec, out_dir=tmp_path, out_name="roomy.csv")
    assert len(plans) == n_geometries and len(built) == 2 * n_geometries
    assert len(caches[0].sets) == 2 * n_geometries  # all 20 sets, 23 990 entries, fit
    # each topology's next hops and mean gains, and its row keys
    assert len(caches[0].geometry) == 2 * n_geometries and len(caches[0].rows) == n_geometries
    assert max(built.values()) == 5120 and sum(built.values()) == 23_990

    # a limit of 8 x 1 024 entries holds some of the sets: the oldest go first
    monkeypatch.setattr(sweep, "ROW_BUDGET", 1024)
    built.clear()
    plans.clear()
    tight = run_sweep(config, spec, out_dir=tmp_path, out_name="tight.csv")
    assert len(plans) == n_geometries and len(built) == 2 * n_geometries
    assert len(caches[1].sets) < 2 * n_geometries
    assert tight.read_bytes() == roomy.read_bytes()


@pytest.mark.parametrize("n_nodes_first", [True, False])
def test_a_grid_of_geometries_works_out_each_once(tmp_path, monkeypatch, n_nodes_first):
    # stars of 3 to 12 nodes at two sigmas: 10 geometries of n (n - 1) mean
    # gains each, 570 in all, whichever axis varies fastest
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    axes = [{"path": "topology.n_nodes", "values": list(range(3, 13))},
            {"path": "fading.sigma", "values": [0.0, 1.0]}]
    config["sweep"]["parameters"] = axes if n_nodes_first else axes[::-1]
    hops, gains, walks = [], [], []
    topology_hops, rx_power, walk = scenarios.Topology.hops, scenarios.mean_rx_power, sweep.route

    def counted_hops(topology):
        hops.append(topology.size)
        return topology_hops(topology)

    def counted_gain(*args):
        gains.append(1)
        return rx_power(*args)

    def counted_walk(next_hop, src):
        walks.append(len(next_hop))
        return walk(next_hop, src)

    monkeypatch.setattr(scenarios.Topology, "hops", counted_hops)
    monkeypatch.setattr(scenarios, "mean_rx_power", counted_gain)
    monkeypatch.setattr(sweep, "route", counted_walk)
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert len({(r["topology.n_nodes"], r["fading.sigma"]) for r in rows}) == 20
    assert sorted(hops) == list(range(3, 13)) and len(gains) == 570
    # one row-key walk per geometry: one route per transmitter
    assert sorted(walks) == sorted(n for n in range(3, 13) for _ in range(n - 1))


def module_caches() -> set[str]:
    """Every functools cache wrapper that csmafade's modules define, at
    module level or on a class, by qualified name."""
    found = set()
    for info in pkgutil.iter_modules(csmafade.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"csmafade.{info.name}")
        spaces = [(module.__name__, vars(module))]
        spaces += [(f"{module.__name__}.{cls.__name__}", vars(cls))
                   for cls in vars(module).values()
                   if isinstance(cls, type) and cls.__module__ == module.__name__]
        for where, space in spaces:
            for name, value in space.items():
                value = getattr(value, "__func__", value)  # a static or class method
                if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                    found.add(f"{where}.{name}")
    return found


def test_the_only_module_caches_hold_quadrature_rules_ints_or_capped_arrays(tmp_path,
                                                                           monkeypatch):
    # quadrature rules, row counts per k, (n, n - 1) arrays for n <= MAX_NODES,
    # and type hints; a sweep's geometry, row keys and subset lists are its pass's
    allowed = {"csmafade.channel._gh_nodes", "csmafade.channel._mgf_rule",
               "csmafade.macmodel._other_links", "csmafade.macmodel._list_rows",
               "csmafade.scenarios._field_types"}
    lists = []

    class Recorded(SubsetList):
        def __init__(self, k, depth):
            super().__init__(k, depth)
            lists.append(weakref.ref(self))

    monkeypatch.setattr(sweep, "SubsetList", Recorded)
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    run_sweep(config, sweep_from_config(config), out_dir=tmp_path)
    assert module_caches() == allowed
    assert cli.main(["analyze", "--config", str(CONFIGS / "tiny3.yaml"),
                     "--out", str(tmp_path)]) == 0
    assert module_caches() == allowed
    gc.collect()
    assert len(lists) == 2 and all(ref() is None for ref in lists)  # dropped with their pass


def test_links_whose_gains_rank_differently_do_not_share_a_plan(tmp_path, monkeypatch):
    # the same two links, with equal and then unequal interferer distances
    config = parse_config(
        "topology: {kind: explicit, positions_m: [[0, 0], [1, 0], [-1, 0]], next_hop: [-1, 0, 0]}\n"
        "lam: 5.0\nfading: {sigma: 1.0}\n"
        "sweep: {engine: analytic, parameters: [{path: topology.positions_m, values: "
        "[[[0, 0], [1, 0], [-1, 0]], [[0, 0], [1, 0], [-2, 0]], [[0, 0], [2, 0], [-1, 0]]]}]}\n"
    )
    spec = sweep_from_config(config)
    plans = count_plans(monkeypatch)
    planned = run_sweep(config, spec, out_dir=tmp_path, out_name="planned.csv")
    assert len(plans) == 3
    build_every_point(monkeypatch)
    unplanned = run_sweep(config, spec, out_dir=tmp_path, out_name="unplanned.csv")
    assert planned.read_bytes() == unplanned.read_bytes()


def test_a_second_sweep_starts_with_an_empty_plan_cache(tmp_path, monkeypatch):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    spec = sweep_from_config(config)
    seen = []  # the plans and table sets a cache holds at each of its lookups

    def look(cache, key, tables, built):
        seen.append((cache, len(cache.plans), len(cache.sets)))

    caches = watch_caches(monkeypatch, look)
    plans = count_plans(monkeypatch)
    run_sweep(config, spec, out_dir=tmp_path)
    run_sweep(config, spec, out_dir=tmp_path)
    first, second = caches
    # each sweep's pass makes its own cache: it starts empty, and one plan serves it
    assert seen == [(first, 1, 1), (first, 1, 1), (second, 1, 1), (second, 1, 1)]
    assert len(plans) == 2


# a design grid of MAC x PHY x fading points on the 7-link star at lam = 5:
# 64 MAC settings, each one stack over the 10 table sets of b_db x sigma
DESIGN_GRID = (("mac.m0", (2, 3, 4, 5)), ("mac.m", (2, 3, 4, 5)), ("mac.n", (0, 1, 2, 3)),
               ("channel.b_db", (0.0, 4.0, 8.0, 12.0, 14.0)), ("fading.sigma", (0.0, 2.0)))


def test_a_design_grid_builds_each_table_set_once(tmp_path, monkeypatch):
    # every stack reads all 10 table sets: a cache of 8 sets, whatever their
    # size, built one for each of the 640 points
    config = load_config(CONFIGS / "star7.yaml", ["lam=5"])
    spec = SweepSpec(parameters=DESIGN_GRID, engine="analytic")
    builds, solves = [], []

    def counting(scenario, subsets, plans=None):
        builds.append((scenario.channel.b_db, scenario.fading.sigma))
        return build_contention_tables(scenario, subsets, plans)

    def solving(tables, subsets, next_hop, lam, *args, **kwargs):
        solves.append(len(lam))
        return solve_network(tables, subsets, next_hop, lam, *args, **kwargs)

    monkeypatch.setattr(sweep, "build_contention_tables", counting)
    monkeypatch.setattr(sweep, "solve_network", solving)
    out = run_sweep(config, spec, out_dir=tmp_path)
    assert spec.n_points == 640 and solves == [10] * 64
    assert sorted(builds) == [(b, sigma) for b in (0.0, 4.0, 8.0, 12.0, 14.0)
                              for sigma in (0.0, 2.0)]
    # the CSV that the cache of 8 sets wrote, 15 361 lines
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a8de569040b0f371ea7e3957da02552420baadd628136369c904b4cb99dda34a")


def test_thresholds_and_fading_share_the_gains_of_a_geometry(tmp_path, monkeypatch):
    # 5 SINR margins x 2 sigmas on the 8-node star: one geometry of 8 x 7
    # mean gains, and 10 table sets
    config = load_config(CONFIGS / "star7.yaml", ["lam=5"])
    spec = SweepSpec(parameters=DESIGN_GRID[3:], engine="analytic")
    gains, builds = [], []
    rx_power = scenarios.mean_rx_power

    def counted_gain(*args):
        gains.append(1)
        return rx_power(*args)

    def counting(scenario, subsets, plans=None):
        builds.append((scenario.channel.b_db, scenario.fading.sigma))
        return build_contention_tables(scenario, subsets, plans)

    monkeypatch.setattr(scenarios, "mean_rx_power", counted_gain)
    monkeypatch.setattr(sweep, "build_contention_tables", counting)
    run_sweep(config, spec, out_dir=tmp_path)
    assert len(gains) == 56 and len(set(builds)) == len(builds) == 10


def test_pooled_sweep_builds_each_table_set_once(tmp_path, monkeypatch):
    config = tiny_config()
    config["sim"]["replications"] = 1
    config["sweep"]["parameters"] = [
        {"path": "lam", "values": [2.0, 10.0, 20.0]},
        {"path": "fading.sigma", "values": [0.0, 1.0]},
    ]
    spec = sweep_from_config(config)
    log = tmp_path / "builds.log"  # pool workers log their builds here too

    def logging_build(scenario, subsets, plans=None):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {scenario.fading.sigma}\n")
        return build_contention_tables(scenario, subsets, plans)

    monkeypatch.setattr(sweep, "build_contention_tables", logging_build)
    plan_log = tmp_path / "plans.log"
    count_plans(monkeypatch, plan_log)
    pooled = run_sweep(config, spec, out_dir=tmp_path, out_name="pooled.csv", workers=2)
    assert sorted(log.read_text().splitlines()) == [f"{os.getpid()} 0.0", f"{os.getpid()} 1.0"]
    assert plan_log.read_text().splitlines() == [str(os.getpid())]
    serial = run_sweep(config, spec, out_dir=tmp_path, out_name="serial.csv", workers=1)
    assert pooled.read_bytes() == serial.read_bytes()


def test_pooled_sweep_parses_each_point_once_in_the_parent(tmp_path, monkeypatch):
    config = tiny_config()
    config["sim"]["replications"] = 1
    config["sweep"]["parameters"] = [{"path": "lam", "values": [2.0, 5.0, 10.0]}]
    spec = sweep_from_config(config)
    log = tmp_path / "parses.log"  # pool workers would log their parses here too

    def logging_parse(point, default_id, geometry):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return scenario_from_config(point, default_id, geometry)

    monkeypatch.setattr(sweep, "scenario_from_config", logging_parse)
    run_sweep(config, spec, out_dir=tmp_path, workers=2)
    assert log.read_text().splitlines() == [str(os.getpid())] * spec.n_points


def test_strict_mode_raises_instead_of_recording(tmp_path):
    config = tiny_config()
    spec = SweepSpec(parameters=(("fading.sigma", (-1.0,)),), engine="analytic")
    with pytest.raises(ValidationError, match="sigma"):
        run_sweep(config, spec, out_dir=tmp_path, strict=True)
    assert not list(tmp_path.iterdir())


def test_unassignable_axis_is_an_error_row_per_point(tmp_path):
    # `lam` is a scalar, so `lam.x` cannot be set: every point is an error row
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "lam.x", "values": [1, 2]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert [r["lam.x"] for r in rows] == ["1", "2"]
    assert all(r["metric"] == "error" and "cannot descend into 'lam'" in r["warnings"]
               for r in rows)
    spec = SweepSpec(parameters=(("lam.x", (1,)),), engine="analytic")
    with pytest.raises(ValidationError, match="cannot descend into 'lam'"):
        run_sweep(config, spec, out_dir=tmp_path, out_name="strict.csv", strict=True)
    assert not (tmp_path / "strict.csv").exists()


def test_refused_sweep_id_fails_before_any_point_runs(tmp_path, monkeypatch):
    # out_name names the file, yet the id is still checked once, up front
    def no_parse(*args):
        raise AssertionError("a point was parsed")

    monkeypatch.setattr(sweep._Pass, "parse", no_parse)
    for value in (None, [1], True):
        config = tiny_config()
        config["scenario_id"] = value
        with pytest.raises(ValidationError, match="scenario_id must be a string or a number"):
            run_sweep(config, sweep_from_config(config), out_dir=tmp_path, out_name="named.csv")
    assert not list(tmp_path.iterdir())


def test_multihop_sweeps_emit_end_to_end_rows(tmp_path):
    config = parse_config(
        """
scenario_id: chain
topology: {kind: line, n_nodes: 4}
lam: [0, 2.0, 2.0, 2.0]
""",
        "chain.yaml",
    )
    spec = SweepSpec(parameters=(), engine="analytic")
    rows = read_rows(run_sweep(config, spec, out_dir=tmp_path))
    e2e = [r for r in rows if r["metric"] == "end_to_end_reliability"]
    assert [(r["src"], r["dst"]) for r in e2e] == [("1", "0"), ("2", "0"), ("3", "0")]
    values = [float(r["analytic_value"]) for r in e2e]
    assert values[0] > values[1] > values[2]


def test_floats_are_serialized_with_nine_significant_digits(tmp_path):
    config = tiny_config()
    config["sweep"]["engine"] = "analytic"
    config["sweep"]["parameters"] = [{"path": "lam", "values": [2.0]}]
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    cell = rows[0]["analytic_value"]
    assert cell == f"{float(cell):.9g}" and len(cell.replace('.', '').lstrip('0')) == 9


def test_sweep_size_cap_is_enforced():
    with pytest.raises(ValidationError, match="limit"):
        SweepSpec(
            parameters=(
                ("lam", tuple(range(101))),
                ("fading.sigma", tuple(range(100))),
            ),
            engine="analytic",
        )


def test_sweep_block_validation():
    config = tiny_config()
    config["sweep"]["extra"] = 1
    with pytest.raises(ValidationError, match="unknown key"):
        sweep_from_config(config)
    config = tiny_config()
    config["sweep"]["parameters"] = [{"path": "lam"}]
    with pytest.raises(ValidationError, match="path, values"):
        sweep_from_config(config)
    with pytest.raises(ValidationError, match="duplicate"):
        SweepSpec(parameters=(("lam", (1,)), ("lam", (2,))), engine="analytic")
    with pytest.raises(ValidationError, match="engine"):
        SweepSpec(parameters=(), engine="guess")
    # the id is the first column of every row: an axis over it would repeat it
    for path in ("scenario_id", "scenario_id.x"):
        with pytest.raises(ValidationError, match="scenario_id is the first column"):
            SweepSpec(parameters=((path, ("a", "b")),), engine="analytic")
    config = tiny_config()
    del config["sweep"]
    with pytest.raises(ValidationError, match="sweep block"):
        sweep_from_config(config)


def test_a_sweep_leaves_the_config_and_the_grid_as_they_were(tmp_path):
    # each point copies only the sections it assigns into: the caller's
    # config, the grid's own values and the other points are not touched
    config = tiny_config()
    config["fading"] = {"sigma": 1.0, "kappa": None}
    config["sweep"]["engine"] = "analytic"
    spec = SweepSpec(parameters=(("fading", ({"kappa": 2.0},)), ("fading.sigma", (0.5, 2.0)),
                                 ("lam", (2.0, 10.0))), engine="analytic")
    before = copy.deepcopy((config, spec))
    rows = read_rows(run_sweep(config, spec, out_dir=tmp_path))
    assert (config, spec) == before
    assert {r["fading"] for r in rows} == {"{'kappa': 2.0}"}
    sigma = sweep._Pass().parse(config, (("fading.sigma", 2.0),), strict=True)
    rate = sweep._Pass().parse(config, (("lam", 3.0),), strict=True)
    assert (sigma.fading.sigma, rate.fading.sigma) == (2.0, 1.0)
    assert config == before[0]


def _blocks(path, n_axes):
    """{point's axis values: its rows without the axis columns} of a sweep CSV."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    axes = header[1:1 + n_axes]
    blocks = {}
    for row in rows:
        key = tuple(sorted(zip(axes, row[1:1 + n_axes])))
        blocks.setdefault(key, []).append([row[0], *row[1 + n_axes:]])
    return blocks


def test_each_point_keeps_its_own_block_when_others_of_its_stack_fail(tmp_path):
    # long frames on the 8-hop line: the 8 points form one stack over both
    # sigmas, and at this iteration cap one of them does not converge and
    # another clamps alpha
    config = load_config(CONFIGS / "line5.yaml",
                         ["scenario_id=line9", "topology.n_nodes=9", "lam=2.0",
                          "timing.l_pkt=30", "solver.max_iter=240"])
    axes = (("lam", (2.0, 10.0, 30.0, 50.0)), ("fading.sigma", (0.0, 1.0)))
    spec = SweepSpec(parameters=axes, engine="analytic")
    blocks = _blocks(run_sweep(config, spec, out_dir=tmp_path, out_name="all.csv"), 2)
    warnings = {key: {row[-1] for row in block} for key, block in blocks.items()}
    [failed] = warnings.pop((("fading.sigma", "0"), ("lam", "50")))
    assert failed.startswith("analytic: fixed point did not converge after 240 iterations")
    assert warnings.pop((("fading.sigma", "1"), ("lam", "50"))) == {
        f"analytic: alpha clamped to {ALPHA_CAP} on 2 link(s)"}
    assert set(map(frozenset, warnings.values())) == {frozenset({""})}
    for lam, sigma in itertools.product(*(values for _, values in axes)):
        alone = SweepSpec(parameters=(("lam", (lam,)), ("fading.sigma", (sigma,))),
                          engine="analytic")
        [(key, block)] = _blocks(run_sweep(config, alone, out_dir=tmp_path,
                                           out_name="alone.csv"), 2).items()
        assert blocks[key] == block, key


def _same_solution(a, b) -> bool:
    """Two NetworkSolutions alike bit for bit, or two errors of one type and message."""
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    states = [np.array([getattr(s.state, f) for f in ("tau", "alpha_pkt", "alpha_ack",
                                                       "gamma", "b000")]) for s in (a, b)]
    reports = [np.array([getattr(s.report, f) for f in ("reliability", "delay_seconds",
                                                        "power_mw")]) for s in (a, b)]
    return (np.array_equal(*states) and np.array_equal(*reports, equal_nan=True)
            and np.array_equal(a.traffic, b.traffic) and a.end_to_end == b.end_to_end
            and (a.outer_iterations, a.warnings) == (b.outer_iterations, b.warnings)
            and (a.depth, a.truncation_bound) == (b.depth, b.truncation_bound))


def solved_in_order(points) -> list:
    """solve_points' solution or error of each of the points, in their order."""
    solved = dict(sweep.solve_points(points))
    return [solved[i] for i in range(len(points))]


def test_a_stack_over_table_sets_gives_each_point_its_lone_solution(monkeypatch):
    # long frames on the 8-hop line: every point has tables of its own (sigma,
    # kappa, the SINR threshold, the transmit power), two points clamp alpha,
    # and with the lam = 50, sigma = 0 point the stack meets the iteration cap
    config = load_config(CONFIGS / "line5.yaml", ["topology.n_nodes=9", "lam=2.0",
                                                   "timing.l_pkt=30", "solver.max_iter=240"])
    grid = [(("fading.sigma", 1.0),),
            (("fading.sigma", 2.0), ("lam", 10.0)),
            (("fading.kappa", 2.0), ("fading.sigma", 1.0)),
            (("channel.b_db", 10.0), ("fading.sigma", 1.0)),
            (("tx_power_dbm", -5.0), ("fading.sigma", 1.0), ("lam", 30.0)),
            (("fading.sigma", 1.0), ("lam", 50.0)),
            (("lam", 50.0),)]
    scenarios = [sweep._Pass().parse(config, point, strict=True) for point in grid]
    assert len({sweep._table_key(s) for s in scenarios}) == 6  # rows 0 and 5 share theirs
    assert [rows for rows, *_ in sweep._stacks(scenarios)] == [tuple(range(len(grid)))]
    solves = []

    def counting(tables, subsets, next_hop, lam, *args, **kwargs):
        solves.append(len(lam))
        return solve_network(tables, subsets, next_hop, lam, *args, **kwargs)

    monkeypatch.setattr(sweep, "solve_network", counting)
    alone = [solved for s in scenarios for solved in solved_in_order([s])]
    assert [type(solved).__name__ for solved in alone] == ["NetworkSolution"] * 6 + [
        "ConvergenceError"]
    assert [bool(solved.warnings) for solved in alone[:-1]] == [False] * 4 + [True] * 2
    solves.clear()
    converging = solved_in_order(scenarios[:-1])
    assert solves == [6]  # one stacked solve, no point solved again alone
    assert all(map(_same_solution, converging, alone[:-1]))
    solves.clear()
    failing = sweep.solve_points(scenarios)
    assert solves == []  # nothing is solved before the first point is read
    assert next(failing)[0] == 0 and solves == [7, 1]  # the stack fails: each point alone
    assert all(map(_same_solution, [solved for _, solved in failing], alone[1:]))
    assert solves == [7] + [1] * 7


def test_rows_do_not_depend_on_the_axis_order_or_the_worker_count(tmp_path):
    # the line9 benchmark grid: its 15 points over 3 table sets form one stack
    config = load_config(CONFIGS / "line5.yaml",
                         ["scenario_id=line9", "topology.n_nodes=9", "lam=2.0"])
    axes = (("lam", (2.0, 5.0, 10.0, 20.0, 30.0)), ("fading.sigma", (0.0, 1.0, 2.0)))
    runs = [
        _blocks(run_sweep(config, SweepSpec(parameters=order, engine="analytic"),
                          out_dir=tmp_path, out_name=f"{workers}.csv", workers=workers), 2)
        for order in (axes, axes[::-1]) for workers in (1, 2)
    ]
    assert len(runs[0]) == 15
    assert all(run == runs[0] for run in runs[1:])


LINE9_GRID = (("lam", (2.0, 5.0, 10.0, 20.0, 30.0)), ("fading.sigma", (0.0, 1.0, 2.0)))


def test_a_sweep_works_out_each_geometry_once(tmp_path, monkeypatch):
    # the line9 benchmark grid: 15 points of one geometry, 9 nodes
    config = load_config(CONFIGS / "line5.yaml", ["topology.n_nodes=9", "lam=2.0"])
    spec = SweepSpec(parameters=LINE9_GRID, engine="analytic")
    gains, hops = [], []
    mean_rx_power, next_hops = scenarios.mean_rx_power, scenarios.Topology.hops

    def counted_gain(*args):
        gains.append(args)
        return mean_rx_power(*args)

    def counted_hops(topology):
        hops.append(topology)
        return next_hops(topology)

    monkeypatch.setattr(scenarios, "mean_rx_power", counted_gain)
    monkeypatch.setattr(scenarios.Topology, "hops", counted_hops)
    first = run_sweep(config, spec, out_dir=tmp_path, out_name="first.csv")
    assert len(gains) == 9 * 8 and len(hops) == 1
    # separate sweeps share nothing
    second = run_sweep(config, spec, out_dir=tmp_path, out_name="second.csv")
    assert len(gains) == 2 * 9 * 8 and len(hops) == 2
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("macs, stacks", [((0,), 1), ((0, 1), 2)])
def test_each_route_is_walked_once_per_stack(tmp_path, monkeypatch, macs, stacks):
    # solve_network walks each transmitter's route once per stack, and the
    # row keys walk them once more per geometry
    config = load_config(CONFIGS / "line5.yaml", ["topology.n_nodes=9", "lam=2.0"])
    spec = SweepSpec(parameters=(("mac.n", macs), *LINE9_GRID), engine="analytic")
    walks = []
    walk = multihop.route

    def counted(next_hop, node):
        walks.append(node)
        return walk(next_hop, node)

    monkeypatch.setattr(multihop, "route", counted)
    monkeypatch.setattr(sweep, "route", counted)
    run_sweep(config, spec, out_dir=tmp_path)
    assert len(sweep._stacks(
        [sweep._Pass().parse(config, point, strict=True) for point in spec.points()]
    )) == stacks
    assert sorted(walks) == sorted(list(range(1, 9)) * (stacks + 1))


def test_a_group_larger_than_the_budget_splits_into_stacks_with_the_same_csv(
        tmp_path, monkeypatch):
    # the line9 grid: 15 points of 8 links with whole lists of 128 rows
    config = load_config(CONFIGS / "line5.yaml", ["topology.n_nodes=9", "lam=2.0"])
    spec = SweepSpec(parameters=LINE9_GRID, engine="analytic")
    solves = []

    def counting(tables, subsets, next_hop, lam, *args, **kwargs):
        solves.append(len(lam))
        return solve_network(tables, subsets, next_hop, lam, *args, **kwargs)

    monkeypatch.setattr(sweep, "solve_network", counting)
    assert 15 * 8 * 128 <= sweep.STACK_ELEMENTS
    whole = run_sweep(config, spec, out_dir=tmp_path, out_name="whole.csv")
    assert solves == [15]
    solves.clear()
    monkeypatch.setattr(sweep, "STACK_ELEMENTS", 4 * 8 * 128)
    split = run_sweep(config, spec, out_dir=tmp_path, out_name="split.csv")
    assert solves == [4, 4, 4, 3]
    assert split.read_bytes() == whole.read_bytes()


def test_a_stack_keeps_no_solution_once_its_points_are_read(tmp_path, monkeypatch):
    # two MAC settings: two stacks of three rates, the second solved once
    # the first stack's points are read
    config = load_config(CONFIGS / "line5.yaml", ["topology.n_nodes=4", "lam=2.0"])
    spec = SweepSpec(parameters=(("mac.n", (0, 1)), ("lam", (2.0, 10.0, 30.0))),
                     engine="analytic")
    made, alive = [], []  # weak references to each solution, and the live ones per solve

    def counting(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        solved = solve_network(*args, **kwargs)
        made.extend(weakref.ref(solution) for solution in solved)
        return solved

    monkeypatch.setattr(sweep, "solve_network", counting)
    run_sweep(config, spec, out_dir=tmp_path)
    assert alive == [0, 0] and len(made) == spec.n_points
    assert all(ref() is None for ref in made)
    assert not any(hasattr(sweep, name) for name in ("_solved", "_stack_of", "_prebuild_tables"))
    # the second stack fails: the first one's solutions are gone all the same
    made.clear()
    alive.clear()
    spec = SweepSpec(parameters=(("solver.max_iter", (10_000, 1)), ("lam", (2.0, 10.0, 30.0))),
                     engine="analytic")
    with pytest.raises(NumericsError, match="did not converge after 1 iterations"):
        run_sweep(config, spec, out_dir=tmp_path, strict=True)
    assert alive == [0] * 3 and len(made) == 3  # the failing stack, then its first point alone
    assert all(ref() is None for ref in made)


def test_a_strict_sweep_solves_no_point_alone_after_the_first_error(tmp_path, monkeypatch):
    # long frames on the 8-hop line: at lam = 50 the fixed point meets the
    # iteration cap, so the stack of the three rates fails, and so does its
    # first point alone; the other two points are solved alone only when read
    config = load_config(CONFIGS / "line5.yaml", ["topology.n_nodes=9", "lam=2.0",
                                                   "timing.l_pkt=30", "solver.max_iter=240"])
    spec = SweepSpec(parameters=(("lam", (50.0, 2.0, 10.0)),), engine="analytic")
    solves = []

    def counting(tables, subsets, next_hop, lam, *args, **kwargs):
        solves.append(len(lam))
        return solve_network(tables, subsets, next_hop, lam, *args, **kwargs)

    monkeypatch.setattr(sweep, "solve_network", counting)
    out = tmp_path / "strict"
    with pytest.raises(NumericsError, match="did not converge after 240 iterations"):
        run_sweep(config, spec, out_dir=out, strict=True)
    assert solves == [3, 1] and not list(out.iterdir())
    solves.clear()
    rows = read_rows(run_sweep(config, spec, out_dir=tmp_path))
    assert solves == [3, 1, 1, 1]
    failed = {r["analytic_value"] == "" for r in rows if r["lam"] == "50"}
    assert failed == {True} and all(r["analytic_value"] != "" for r in rows if r["lam"] != "50")


def test_an_analytic_sweep_solves_one_stack_at_any_worker_count(
        tmp_path, inline_pool, monkeypatch):
    config = load_config(CONFIGS / "line5.yaml", ["topology.n_nodes=4", "lam=2.0"])
    spec = SweepSpec(parameters=(("lam", (2.0, 10.0, 30.0)), ("fading.sigma", (0.0, 1.0))),
                     engine="analytic")
    solves = []

    def counting(tables, subsets, next_hop, lam, *args, **kwargs):
        solves.append(len(lam))
        return solve_network(tables, subsets, next_hop, lam, *args, **kwargs)

    monkeypatch.setattr(sweep, "solve_network", counting)
    serial = run_sweep(config, spec, out_dir=tmp_path, out_name="serial.csv")
    assert solves == [6]  # one stack over both sigmas' table sets
    solves.clear()
    workers = run_sweep(config, spec, out_dir=tmp_path, out_name="workers.csv", workers=2)
    assert solves == [6] and inline_pool["sizes"] == []
    assert serial.read_bytes() == workers.read_bytes()


def test_a_pooled_compare_sweep_solves_every_stack_in_the_parent(tmp_path, monkeypatch):
    # the stack at solver.max_iter = 1 fails, and so does each of its points alone
    config = tiny_config()
    config["sim"]["replications"] = 2
    spec = SweepSpec(parameters=(("solver.max_iter", (10_000, 1)), ("lam", (2.0, 10.0))),
                     engine="compare")
    solves, sims = tmp_path / "solves.log", tmp_path / "sims.log"

    def logged(log, fn):
        def call(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(sweep, "solve_network", logged(solves, solve_network))
    monkeypatch.setattr(sweep, "run_experiment", logged(sims, run_experiment))
    pooled = run_sweep(config, spec, out_dir=tmp_path, out_name="pooled.csv", workers=2)
    parent = str(os.getpid())
    assert solves.read_text().splitlines() == [parent] * 4  # a stack of 2, then 2 alone
    simulated = sims.read_text().splitlines()
    assert len(simulated) == spec.n_points and parent not in simulated
    serial = run_sweep(config, spec, out_dir=tmp_path, out_name="serial.csv")
    assert pooled.read_bytes() == serial.read_bytes()
    rows = read_rows(pooled)
    failed = [r for r in rows if r["solver.max_iter"] == "1"]
    assert len(failed) == 18 and all(
        r["analytic_value"] == "" and r["sim_mean"] != ""
        and r["warnings"].startswith("analytic: fixed point did not converge after 1 iterations")
        for r in failed)
    assert all(r["analytic_value"] != "" for r in rows if r["solver.max_iter"] == "10000")

    # strict: the first failing point's error, before any simulation, and no CSV
    solves.unlink()
    sims.unlink()
    out = tmp_path / "strict"
    with pytest.raises(NumericsError, match="did not converge after 1 iterations"):
        run_sweep(config, spec, out_dir=out, workers=2, strict=True)
    assert not sims.exists() and not list(out.iterdir())
    assert solves.read_text().splitlines() == [parent] * 3  # a stack of 2, 2, then 1 alone


# the star12 benchmark grid: 11 links whose tables start at depth 4, lists
# of 386 of the 1 024 subsets of 10 contenders
STAR12 = ["topology.n_nodes=12", "lam=10"]
STAR12_GRID = (("fading.kappa", (None, 2.0)), ("fading.sigma", (1.0, 2.0)))


def test_a_point_started_too_shallow_is_solved_again_at_the_depth_its_bound_asks(
        tmp_path, monkeypatch):
    config = load_config(CONFIGS / "star7.yaml", STAR12)
    spec = SweepSpec(parameters=STAR12_GRID, engine="analytic")
    solves = []

    def counting(tables, subsets, next_hop, lam, *args, **kwargs):
        solves.append((len(lam), tables[0].p_det.shape[-1]))
        return solve_network(tables, subsets, next_hop, lam, *args, **kwargs)

    monkeypatch.setattr(sweep, "solve_network", counting)
    right = run_sweep(config, spec, out_dir=tmp_path, out_name="right.csv")
    assert solves == [(4, 386)]  # one stack of the four points
    start_depths = sweep.start_depths
    monkeypatch.setattr(sweep, "start_depths",
                        lambda points: [depth - 1 for depth in start_depths(points)])
    solves.clear()
    grown = run_sweep(config, spec, out_dir=tmp_path, out_name="grown.csv")
    # at depth 3 the four points form one stack, and each bound, near 2e-7,
    # sends its point alone to depth 4
    assert solves == [(4, 176)] + [(1, 386)] * 4
    assert grown.read_bytes() == right.read_bytes()


def test_a_truncating_sweep_does_not_depend_on_the_axis_order_or_the_worker_count(tmp_path):
    config = load_config(CONFIGS / "star7.yaml", STAR12)
    runs = [
        _blocks(run_sweep(config, SweepSpec(parameters=order, engine="analytic"),
                          out_dir=tmp_path, out_name=f"{workers}.csv", workers=workers), 2)
        for order in (STAR12_GRID, STAR12_GRID[::-1]) for workers in (1, 2)
    ]
    assert len(runs[0]) == 4
    assert all(run == runs[0] for run in runs[1:])


def test_points_of_a_stack_get_their_lone_solutions_at_each_depth():
    # star12's points at depth 4 in one stack, and star7's points at
    # lam = 0.5 (depth 2) and lam = 2 (whole tables) in one solve
    star12 = load_config(CONFIGS / "star7.yaml", STAR12)
    star7 = load_config(CONFIGS / "star7.yaml")
    groups = [
        [sweep._Pass().parse(star12, point, strict=True)
         for point in SweepSpec(parameters=STAR12_GRID).points()],
        [sweep._Pass().parse(star7, point, strict=True)
         for point in SweepSpec(parameters=(("lam", (0.5, 2.0, 0.5)),)).points()],
    ]
    assert [rows for rows, *_ in sweep._stacks(groups[0])] == [(0, 1, 2, 3)]
    for points, depths in zip(groups, ([4] * 4, [2, 6, 2])):
        stacked = solved_in_order(points)
        assert [solution.depth for solution in stacked] == depths
        assert all(solution.truncation_bound <= 1e-8 for solution in stacked)
        assert all(map(_same_solution, stacked, [solved_in_order([p])[0] for p in points]))
