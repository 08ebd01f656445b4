"""Command-line behavior: exit codes, overrides, and error reporting."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest

from csmafade.cli import main
from csmafade.scenarios import compile_sim_network, load_scenario
from csmafade.simulator import run_replication

TINY = """
topology:
  kind: star
  n_nodes: 3
lam: 5.0
sim:
  horizon_seconds: 5.0
  replications: 2
  master_seed: 3
sweep:
  engine: analytic
  parameters:
    - path: lam
      values: [1.0, 4.0]
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_analyze_writes_a_csv_and_exits_zero(config_file, tmp_path, capsys):
    rc = main(["analyze", "--config", str(config_file), "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("tiny_analyze.csv")
    rows = read_rows(printed)
    assert rows and all(r["sim_mean"] == "" for r in rows)


def test_scenario_id_defaults_to_the_file_stem(config_file, tmp_path):
    main(["analyze", "--config", str(config_file), "--out", str(tmp_path)])
    rows = read_rows(tmp_path / "tiny_analyze.csv")
    assert {r["scenario_id"] for r in rows} == {"tiny"}


def test_set_overrides_reach_the_model(config_file, tmp_path):
    main(["analyze", "--config", str(config_file), "--out", str(tmp_path)])
    base = read_rows(tmp_path / "tiny_analyze.csv")
    main(["analyze", "--config", str(config_file), "--out", str(tmp_path),
          "--set", "lam=40.0"])
    loaded = read_rows(tmp_path / "tiny_analyze.csv")
    rel = lambda rows: float(
        next(r["analytic_value"] for r in rows if r["metric"] == "mean_reliability")
    )
    assert rel(loaded) < rel(base)


def test_seed_and_reps_flags_override_the_sim_block(config_file, tmp_path):
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
          "--reps", "3", "--seed", "11"])
    first = (tmp_path / "tiny_simulate.csv").read_bytes()
    rows = read_rows(tmp_path / "tiny_simulate.csv")
    assert all(r["replications"] == "3" for r in rows)
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
          "--reps", "3", "--seed", "11"])
    assert (tmp_path / "tiny_simulate.csv").read_bytes() == first
    main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
          "--reps", "3", "--seed", "12"])
    assert (tmp_path / "tiny_simulate.csv").read_bytes() != first


def test_sweep_command_runs_the_config_grid(config_file, tmp_path):
    rc = main(["sweep", "--config", str(config_file), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "tiny_sweep.csv")
    assert {r["lam"] for r in rows} == {"1", "4"}


def test_bad_config_reports_json_error_and_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("topology: {kind: nonagon, n_nodes: 3}\nlam: 1.0\n")
    rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "nonagon" in err["message"]


@pytest.mark.parametrize(
    "override", ["lam=abc", "topology.n_nodes=x", "sim.horizon_seconds=1e-9"]
)
def test_malformed_value_reports_json_error(config_file, tmp_path, capsys, override):
    rc = main(["analyze", "--config", str(config_file), "--set", override,
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "invalid config value" in err["message"]


@pytest.mark.parametrize(
    "override, field",
    [
        ("lam=abc", "lam"),
        ("mac.m0=2.5", "mac.m0"),
        ("topology.n_nodes=x", "topology.n_nodes"),
        ("sim.horizon_seconds=abc", "sim.horizon_seconds"),
    ],
)
def test_malformed_value_names_its_field(config_file, tmp_path, capsys, override, field):
    rc = main(["analyze", "--config", str(config_file), "--set", override,
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert field in err["message"]


def test_timing_the_simulator_cannot_run_is_rejected_by_analyze(config_file, tmp_path, capsys):
    # 7.3 bytes is 14.6 symbols: the simulator's whole-symbol clock cannot
    # run it, so neither engine accepts it
    rc = main(["analyze", "--config", str(config_file), "--set", "timing.packet_bytes=7.3",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "whole number of symbols" in err["message"]


def test_contender_cap_fails_before_building_tables(config_file, tmp_path, capsys):
    start = time.monotonic()
    rc = main(["analyze", "--config", str(config_file), "--set", "topology.n_nodes=17",
               "--out", str(tmp_path)])
    assert rc == 1
    assert time.monotonic() - start < 5.0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "cap" in err["message"]


def test_topology_without_a_link_reports_json_error(tmp_path, capsys):
    no_link = tmp_path / "no_link.yaml"
    no_link.write_text(
        "topology: {kind: explicit, positions_m: [[0, 0], [1, 0]], next_hop: [-1, -1]}\n"
        "lam: [0, 0]\n"
    )
    rc = main(["compare", "--config", str(no_link), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "no link" in err["message"]


@pytest.mark.parametrize(
    "positions, message",
    [
        ("[[0, 0], [1, 0, 0]]", "(x, y) pairs"),
        ("[[0, 0], [.nan, 0]]", "(x, y) pairs"),
        ("[[0, 0], [0, 0]]", "distance 0.0"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_malformed_positions_report_json_error(tmp_path, capsys, command, positions, message):
    path = tmp_path / "explicit.yaml"
    path.write_text(
        f"topology: {{kind: explicit, positions_m: {positions}, next_hop: [-1, 0]}}\n"
        "lam: [0, 2]\nsim: {horizon_seconds: 2.0, replications: 1}\n"
    )
    rc = main([command, "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and message in err["message"]


@pytest.mark.parametrize("value", [".nan", ".inf", "abc"])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_malformed_tx_power_reports_json_error(config_file, tmp_path, capsys, command, value):
    rc = main([command, "--config", str(config_file), "--set", f"tx_power_dbm={value}",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "tx_power_dbm" in err["message"]


def test_override_below_a_scalar_names_it(config_file, tmp_path, capsys):
    rc = main(["analyze", "--config", str(config_file), "--set", "lam.x=1",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "'lam'" in err["message"]


def test_simulate_writes_the_event_trace_of_replication_0(config_file, tmp_path):
    trace = tmp_path / "events.tsv"
    rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
               "--trace", str(trace)])
    assert rc == 0
    scenario = load_scenario(config_file)
    expected = io.StringIO()
    run_replication(compile_sim_network(scenario), scenario.sim, 0, trace=expected)
    assert trace.read_text() == expected.getvalue()
    assert all(len(line.split("\t")) == 4 for line in trace.read_text().splitlines())


def test_unwritable_trace_reports_json_error(config_file, tmp_path, capsys):
    rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
               "--trace", str(tmp_path / "missing" / "events.tsv")])
    assert rc == 1
    assert "cannot write trace" in json.loads(capsys.readouterr().err)["message"]


def test_missing_file_reports_json_error(tmp_path, capsys):
    rc = main(["compare", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def test_sweep_without_a_sweep_block_fails(tmp_path, capsys):
    plain = tmp_path / "plain.yaml"
    plain.write_text("topology: {kind: star, n_nodes: 3}\nlam: 1.0\n")
    rc = main(["sweep", "--config", str(plain), "--out", str(tmp_path)])
    assert rc == 1
    assert "sweep block" in json.loads(capsys.readouterr().err)["message"]


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.yaml"])


def test_module_entry_point_runs(config_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "csmafade", "analyze",
         "--config", str(config_file), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "tiny_analyze.csv").exists()
