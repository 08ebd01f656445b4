"""Command-line behavior: exit codes, overrides, and error reporting."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest

from csmafade import scenarios, sweep
from csmafade.cli import main
from csmafade.scenarios import compile_sim_network, load_config, scenario_from_config
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


def test_workers_below_one_report_json_error(config_file, tmp_path, capsys):
    rc = main(["sweep", "--config", str(config_file), "--out", str(tmp_path), "--workers", "0"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "workers" in err["message"]


@pytest.mark.parametrize(
    "override", ["lam=abc", "topology.n_nodes=x", "sim.horizon_seconds=1e-9",
                 "solver.tol=.inf", "sim.horizon_seconds=.inf", "topology.spacing_m=1e400",
                 'sim.ack_loss="false"', "sim.ack_loss=3",
                 # a hop that is not an integer, and a mean received level of 5945 dBm
                 "topology.next_hop=[-1, .inf, 0]", "topology.spacing_m=1e-300"]
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
        ("solver.tol=.inf", "solver.tol"),
        ("sim.horizon_seconds=.inf", "sim.horizon_seconds"),
        ("topology.spacing_m=.inf", "topology.spacing_m"),
        ("topology.spacing_m=-.inf", "topology.spacing_m"),
        ("topology.spacing_m=1e400", "topology.spacing_m"),
        pytest.param("topology.spacing_m=1" + "0" * 400, "topology.spacing_m",
                     id="topology.spacing_m=10**400"),
        ('sim.ack_loss="false"', "sim.ack_loss"),
        ("sim.ack_loss=3", "sim.ack_loss"),
        # 10 ** (1e308 / 10) overflows a float
        ("tx_power_dbm=1e308", "tx_power_dbm"),
        ("channel.n0_dbm=1e308", "n0_dbm"),
        ("channel.b_db=1e308", "b_db"),
        ("channel.a_dbm=-1e308", "a_dbm"),
        # a mean received level of 5945 dBm
        ("topology.spacing_m=1e-300", "topology.spacing_m"),
        ("topology.next_hop=[-1, .inf, 0]", "topology.next_hop"),
        ("topology.next_hop=[-1, 0, 1.5]", "topology.next_hop"),
        # a star routes itself: an explicit next_hop would be ignored
        ("topology.next_hop=[-1, -1, 0]", "next_hop is read by kind 'explicit' only"),
        ("sim.master_seed=-1", "master_seed"),
        # a rate is a number, not a boolean, nothing, or a mapping
        ("lam=true", "lam=True"),
        ("lam=null", "lam=None"),
        ("lam={a: 1}", "lam={'a': 1}"),
        ("lam=[0, true, 1]", "lam[1]=True"),
        ("topology={kind: explicit, positions_m: [[0, 0], [true, 0], [0, 1]], "
         "next_hop: [-1, 0, 0]}", "topology.positions_m[1] must be a finite number, got True"),
    ],
)
def test_malformed_value_names_its_field(config_file, tmp_path, capsys, override, field):
    rc = main(["analyze", "--config", str(config_file), "--set", override,
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert field in err["message"]


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("value", ["null", "[1]", "{a: 1}", "true"])
def test_scenario_id_must_be_a_string_or_a_number(config_file, tmp_path, capsys, command, value):
    rc = main([command, "--config", str(config_file), "--set", f"scenario_id={value}",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "scenario_id must be a string or a number" in err["message"]
    assert not list(tmp_path.glob("*.csv"))


def test_numeric_scenario_id_names_the_csv(config_file, tmp_path, capsys):
    assert main(["analyze", "--config", str(config_file), "--set", "scenario_id=7",
                 "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.glob("*.csv")] == ["7_analyze.csv"]


def test_output_directory_that_is_a_file_is_a_json_error(config_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(["analyze", "--config", str(config_file), "--out", str(taken)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert f"cannot write {taken / 'tiny_analyze.csv'}" in err["message"]
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_unwritable_output_name_fails_before_any_point_runs(
    config_file, tmp_path, capsys, monkeypatch, command
):
    # the scenario id names the CSV: it must be a bare file name, so neither
    # "a/b" nor "../escaped" reaches another directory, and a null byte is refused
    def no_point(args):
        raise AssertionError("a sweep point ran before the output path was checked")

    monkeypatch.setattr(sweep, "_point_task", no_point)
    out = tmp_path / "out"
    for scenario_id, name in (("a/b", "a/b"), ("../escaped", "../escaped"),
                              ('"a\\x00b"', "a\x00b")):
        rc = main([command, "--config", str(config_file), "--set", f"scenario_id={scenario_id}",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert f"cannot write {out / f'{name}_{command}.csv'}" in err["message"]
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_refused_output_name_leaves_no_directory_behind(config_file, tmp_path, capsys, command):
    # a null byte fails the first file-system call, an over-long name the
    # open; the directories made for --out go again, one that existed stays
    new = tmp_path / "new"
    for scenario_id in ('"a\\x00b"', "x" * 300):
        for out in (new / "sub", tmp_path):
            rc = main([command, "--config", str(config_file), "--set",
                       f"scenario_id={scenario_id}", "--out", str(out)])
            assert rc == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValidationError" and "cannot write" in err["message"]
            assert not new.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.yaml"]


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


def _no_geometry(*args, **kwargs):
    raise AssertionError("node-pair geometry built for an oversized topology")


def test_oversized_topology_fails_before_its_geometry(config_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenarios.Topology, "distances", _no_geometry)
    monkeypatch.setattr(scenarios, "mean_rx_power", _no_geometry)
    n = scenarios.MAX_NODES + 1
    explicit = tmp_path / "explicit.yaml"
    explicit.write_text(
        f"topology: {{kind: explicit, positions_m: {[[i, 0] for i in range(n)]}, "
        f"next_hop: {[-1] + list(range(n - 1))}}}\n"
    )
    for path, override in ((config_file, "topology.n_nodes=100000"),
                           (config_file, f"topology.n_nodes={n}"),
                           (explicit, "lam=1")):
        start = time.monotonic()
        rc = main(["analyze", "--config", str(path), "--set", override, "--out", str(tmp_path)])
        assert rc == 1
        assert time.monotonic() - start < 1.0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert f"beyond the limit of {scenarios.MAX_NODES}" in err["message"]


def test_oversized_topology_is_an_error_row_in_a_sweep(tmp_path, monkeypatch):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY.replace("path: lam\n      values: [1.0, 4.0]",
                                 "path: topology.n_nodes\n      values: [100000, 3]"))
    real_distances = scenarios.Topology.distances

    def small_only(topology):
        assert topology.size <= 3, "node-pair geometry built for an oversized topology"
        return real_distances(topology)

    monkeypatch.setattr(scenarios.Topology, "distances", small_only)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "tiny_sweep.csv")
    errors = [r for r in rows if r["metric"] == "error"]
    assert [r["topology.n_nodes"] for r in errors] == ["100000"]
    assert "beyond the limit" in errors[0]["warnings"]
    assert any(r["topology.n_nodes"] == "3" and r["metric"] == "mean_reliability" for r in rows)


@pytest.mark.parametrize("sigma", ["20", "1e308"])
def test_sigma_whose_moments_overflow_reports_json_error(config_file, tmp_path, capsys, sigma):
    rc = main(["analyze", "--config", str(config_file), "--set", f"fading.sigma={sigma}",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericsError"
    assert "overflows its moments" in err["message"]


def test_sigma_whose_moments_overflow_is_a_warning_in_a_sweep(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY.replace("path: lam\n      values: [1.0, 4.0]",
                                 "path: fading.sigma\n      values: [1.0, 20.0]"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "tiny_sweep.csv")
    fine = [r for r in rows if r["fading.sigma"] == "1"]
    wide = [r for r in rows if r["fading.sigma"] == "20"]
    assert fine and all(r["analytic_value"] and not r["warnings"] for r in fine)
    assert [r["metric"] for r in wide] == [r["metric"] for r in fine]
    assert all(r["analytic_value"] == "" and "overflows its moments" in r["warnings"]
               for r in wide)


def test_huge_kappa_is_refused_before_any_work(config_file, tmp_path, capsys):
    start = time.monotonic()
    rc = main(["analyze", "--config", str(config_file), "--set", "fading.kappa=1e308",
               "--out", str(tmp_path)])
    assert time.monotonic() - start < 1.0
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "fading.kappa" in err["message"]


def test_huge_kappa_is_an_error_row_in_a_sweep(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY.replace("path: lam\n      values: [1.0, 4.0]",
                                 "path: fading.kappa\n      values: [2.0, 1e308]"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "tiny_sweep.csv")
    errors = [r for r in rows if r["metric"] == "error"]
    assert [r["fading.kappa"] for r in errors] == ["1e308"]
    assert "fading.kappa" in errors[0]["warnings"]
    assert any(r["fading.kappa"] == "2" and r["metric"] == "mean_reliability" for r in rows)


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


def test_solver_damping_is_an_unknown_key(config_file, tmp_path, capsys):
    rc = main(["analyze", "--config", str(config_file), "--set", "solver.damping=0.2",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "unknown key 'damping' in solver" in err["message"]


def test_timing_sb_seconds_is_an_unknown_key(config_file, tmp_path, capsys):
    # the backoff unit is the PHY's 320 us, for both engines alike
    rc = main(["analyze", "--config", str(config_file), "--set", "timing.sb_seconds=0.00064",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "unknown key 'sb_seconds' in timing" in err["message"]


def test_sweep_over_an_unassignable_axis_writes_error_rows(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY.replace("path: lam\n", "path: lam.x\n"))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "tiny_sweep.csv")
    assert [(r["lam.x"], r["metric"]) for r in rows] == [("1", "error"), ("4", "error")]
    assert all("cannot descend into 'lam'" in r["warnings"] for r in rows)


def test_sweep_over_scenario_id_reports_json_error(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY.replace("path: lam\n", "path: scenario_id\n"))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    assert "scenario_id is the first column" in err["message"]
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_writes_the_event_trace_of_replication_0(config_file, tmp_path):
    trace = tmp_path / "events.tsv"
    rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path),
               "--trace", str(trace)])
    assert rc == 0
    scenario = scenario_from_config(load_config(config_file))
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
