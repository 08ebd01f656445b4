"""Sweep grids, CSV determinism, and failure bookkeeping."""

import csv
import math
import pathlib
import time

import pytest

from csmafade import sweep
from csmafade.errors import ValidationError
from csmafade.multihop import solve_network
from csmafade.scenarios import (
    build_contention_tables,
    compile_sim_network,
    parse_config,
    scenario_from_config,
)
from csmafade.simulator import run_experiment
from csmafade.sweep import SweepSpec, evaluate_point, run_sweep, sweep_from_config

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "tiny3_sweep.csv"

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


def test_rerun_and_parallel_assembly_are_byte_identical(tmp_path):
    config = tiny_config()
    spec = sweep_from_config(config)
    first = run_sweep(config, spec, out_dir=tmp_path, out_name="a.csv")
    again = run_sweep(config, spec, out_dir=tmp_path, out_name="b.csv")
    parallel = run_sweep(config, spec, out_dir=tmp_path, out_name="c.csv", workers=2)
    assert first.read_bytes() == again.read_bytes() == parallel.read_bytes()


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


def test_rows_match_the_engines_when_link_order_differs_from_node_order():
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
    report = solve_network(
        build_contention_tables(s), s.routing, s.lam, s.mac, s.timing,
        profile=s.power, config=s.solver,
    ).report
    rows = {
        (r[1], r[2], r[3]): r for r in evaluate_point(config, (), "compare")
    }
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
    config["sweep"]["parameters"] = [{"path": "topology.n_nodes", "values": [17, 3]}]
    start = time.monotonic()
    rows = read_rows(run_sweep(config, sweep_from_config(config), out_dir=tmp_path))
    assert time.monotonic() - start < 5.0
    big = [r for r in rows if r["topology.n_nodes"] == "17"]
    small = [r for r in rows if r["topology.n_nodes"] == "3"]
    assert big and all(r["analytic_value"] == "" and "cap" in r["warnings"] for r in big)
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

    def counting(scenario):
        builds.append(scenario.fading.sigma)
        return build_contention_tables(scenario)

    monkeypatch.setattr(sweep, "build_contention_tables", counting)
    shared = run_sweep(config, spec, out_dir=tmp_path, out_name="shared.csv")
    assert sorted(builds) == [0.0, 1.0]
    for tables in sweep._table_cache.values():
        assert not any(t.p_det.flags.writeable or t.p_out.flags.writeable for t in tables)

    # the same sweep with the cache emptied before every point
    evaluate = sweep.evaluate_point

    def uncached(*args, **kwargs):
        sweep._table_cache.clear()
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_point", uncached)
    builds.clear()
    unshared = run_sweep(config, spec, out_dir=tmp_path, out_name="unshared.csv")
    assert len(builds) == 6
    assert shared.read_bytes() == unshared.read_bytes()


def test_strict_mode_raises_instead_of_recording(tmp_path):
    config = tiny_config()
    with pytest.raises(ValidationError, match="sigma"):
        evaluate_point(config, (("fading.sigma", -1.0),), "analytic", strict=True)


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
    config = tiny_config()
    del config["sweep"]
    with pytest.raises(ValidationError, match="sweep block"):
        sweep_from_config(config)
