"""The benchmark's tracer patches `src/` names by string; each must still exist.

`perfbench/tracing.py` wraps layer entry points by looking them up on the
modules where callers find them.  A `src/` change that renames or deletes
one of them breaks traced benchmark runs, and nothing else would notice.
Nor would anything notice a name that still exists but that production no
longer calls: its metrics would read 0.
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest

from csmafade import channel, multihop, scenarios, simulator, sweep
from csmafade.scenarios import load_config

ROOT = Path(__file__).resolve().parents[1]


def _tracing_module():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_hook(tmp_path):
    tracer = _tracing_module().Tracer(tmp_path)
    modules = (channel, multihop, simulator, sweep)
    before = [dict(vars(m)) for m in modules]
    tracer.install()
    try:
        hooked = {(m.__name__, attr) for m, attr, _ in tracer._patched}
        assert len(tracer._patched) == len(hooked) == 12
        assert ("csmafade.sweep", "compile_sim_network") in hooked
        assert ("csmafade.simulator", "run_replication") in hooked
        for m, attr, original in tracer._patched:
            assert getattr(m, attr) is not original
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_traced_analytic_sweep_times_the_channel_fits(tmp_path):
    # the kappa = 2 point takes the quadrature path of the outage
    tracing = _tracing_module()
    tracer = tracing.Tracer(tmp_path / "spool")
    config = load_config(ROOT / "configs" / "tiny3.yaml")
    spec = sweep.SweepSpec(parameters=(("fading.kappa", (None, 2.0)),), engine="analytic")
    tracer.install()
    try:
        tracer.sweep(sweep.run_sweep, config, spec, out_dir=tmp_path)
    finally:
        tracer.uninstall()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("sweep.point") == 2
    for name in ("channel.detection", "channel.outage", "channel.mma_fit", "channel.quad"):
        assert name in names, name
    assert names.count("channel.mma_fit") == names.count("channel.outage")
    # the tracer counts rows by iterating each build's result: 2 links of 2^1 rows, twice
    builds = [span[tracing.ATTRS] for span in tracer.spans
              if span[tracing.NAME] == "scenarios.tables"]
    assert len(builds) == 2 and sum(attrs["subsets"] for attrs in builds) == 2 * 4


@pytest.mark.parametrize("workers", [1, 2])
def test_row_plans_are_worked_out_inside_a_traced_table_build(tmp_path, monkeypatch, workers):
    # the tracer times sweep.build_contention_tables; a plan made outside that
    # call would drop out of scenarios.tables_s and tables_self_s
    tracing = _tracing_module()
    tracer = tracing.Tracer(tmp_path / "spool")
    config = load_config(ROOT / "configs" / "star7.yaml", ["topology.n_nodes=6", "lam=10"])
    spec = sweep.SweepSpec(
        parameters=(("fading.kappa", (None, 2.0)), ("fading.sigma", (1.0, 2.0))),
        engine="analytic",
    )
    planned = []
    row_plan = scenarios._row_plan

    def timed(*args):
        start = time.perf_counter()
        plan = row_plan(*args)
        planned.append((start, time.perf_counter()))
        return plan

    monkeypatch.setattr(scenarios, "_row_plan", timed)
    tracer.install()
    try:
        tracer.sweep(sweep.run_sweep, config, spec, out_dir=tmp_path, workers=workers)
    finally:
        tracer.uninstall()
    tables = [(s[tracing.START], s[tracing.END]) for s in tracer.spans
              if s[tracing.NAME] == "scenarios.tables"]
    assert len(planned) == 1
    for start, end in planned:
        assert any(lo <= start and end <= hi for lo, hi in tables)
    metrics = tracing.layer_metrics(tracer.spans, wall_s=1.0)
    assert metrics["scenarios.table_builds"] == 4
    assert metrics["channel.detection_calls"] == metrics["channel.outage_calls"] == 4


def test_traced_sweep_of_stacked_points_reports_every_point_and_layer(tmp_path):
    # three rates on a 4-node line share one table set, so one stacked solve
    # serves all three points; the tracer still sees each point and each layer
    tracing = _tracing_module()
    tracer = tracing.Tracer(tmp_path / "spool")
    config = load_config(ROOT / "configs" / "line5.yaml", ["topology.n_nodes=4", "lam=2.0"])
    spec = sweep.SweepSpec(parameters=(("lam", (2.0, 10.0, 30.0)),), engine="analytic")
    tracer.install()
    try:
        tracer.sweep(sweep.run_sweep, config, spec, out_dir=tmp_path)
    finally:
        tracer.uninstall()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("sweep.point") == spec.n_points
    metrics = tracing.layer_metrics(tracer.spans, wall_s=1.0)
    assert metrics["macmodel.solves"] == metrics["scenarios.table_builds"] == 1
    assert metrics["macmodel.iterations"] > 0 and metrics["multihop.outer_iterations"] > 0
    for name in ("macmodel.iterations", "multihop.outer_iterations"):
        assert type(metrics[name]) is int, name
    json.dumps(metrics)


def test_traced_sweep_over_table_sets_solves_one_stack(tmp_path):
    # a rate x sigma grid on a 4-node line: one stack over three table sets,
    # each fitted by one detection call inside its traced build
    tracing = _tracing_module()
    tracer = tracing.Tracer(tmp_path / "spool")
    config = load_config(ROOT / "configs" / "line5.yaml", ["topology.n_nodes=4", "lam=2.0"])
    sigmas = (0.0, 1.0, 2.0)
    spec = sweep.SweepSpec(parameters=(("lam", (2.0, 10.0, 30.0)), ("fading.sigma", sigmas)),
                           engine="analytic")
    tracer.install()
    try:
        tracer.sweep(sweep.run_sweep, config, spec, out_dir=tmp_path)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    metrics = tracing.layer_metrics(spans, wall_s=1.0)
    assert metrics["macmodel.solves"] == 1
    assert metrics["scenarios.table_builds"] == metrics["scenarios.table_builds_unique"] == 3
    assert metrics["channel.detection_calls"] == len(sigmas)
    builds = [i for i, span in enumerate(spans) if span[tracing.NAME] == "scenarios.tables"]
    detections = [span[tracing.PARENT] for span in spans
                  if span[tracing.NAME] == "channel.detection"]
    assert sorted(detections) == builds  # one per build, inside it
    json.dumps(metrics)
