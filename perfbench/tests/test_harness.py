"""Self-test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REPEATED_COUNTS = ("scenarios.subsets", "macmodel.iterations", "simulator.cca_attempts")


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """One untraced and two traced tiny runs of a workload."""
    def once(trace):
        return run.run_workload(request.param, seconds=0.0, trace=trace, tiny=True,
                                setup_repeats=1)
    return once(False), once(True), once(True)


def test_every_declared_metric_is_emitted_with_a_unit(runs):
    for result, trace in ((runs[0], False), (runs[1], True)):
        line = run.result_line(result, trace)
        declared = [m["name"] for m in run.declared_metrics(trace)]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, result["problems"]
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == declared
        assert set(result["metrics"]) == set(declared), "computed but undeclared metrics"
        for name, metric in line["metrics"].items():
            assert metric["unit"], name
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_spans_nest(runs):
    spans = runs[1]["spans"]
    kids = tracing.children_of(spans)
    assert [s[tracing.NAME] for s in spans if s[tracing.PARENT] == tracing.NO_PARENT] == [
        "sweep.run_sweep"
    ]
    for i, span in enumerate(spans):
        assert span[tracing.START] <= span[tracing.END], span
        if span[tracing.PARENT] >= 0:
            parent = spans[span[tracing.PARENT]]
            assert parent[tracing.START] <= span[tracing.START], (parent, span)
            assert span[tracing.END] <= parent[tracing.END], (parent, span)
        assert tracing.self_time(spans, kids, i) >= 0.0, span


def test_counts_repeat_exactly(runs):
    first, second = runs[1]["metrics"], runs[2]["metrics"]
    for name in REPEATED_COUNTS:
        assert first[name] == second[name], name
