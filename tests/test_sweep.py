"""Sweep grids, CSV determinism, and failure bookkeeping."""

import csv
import math
import pathlib
import time

import pytest

from csmafade.errors import ValidationError
from csmafade.scenarios import parse_config
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
