"""csmafade benchmark: one workload per invocation, driven through the public API.

    python3 perfbench/run.py --workload star7-sweep --seed 1 --seconds 30 --trace 0

Run from a checkout's root.  Each run loads the workload (`load_config` then
`run_sweep`, see workloads.py), checks every CSV it writes, and prints a
report followed by one JSON line:

    {"correct": ..., "attempted": <points>, "failed": <points>, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's `end_to_end` list: median
wall time of one run_sweep call over repeated calls for --seconds, median
set-up time over fresh interpreters, and peak RSS.  With --trace 1 they are
its `per_layer` list, from one untraced and one traced sweep (tracing.py);
a workload swept by a process pool then also runs serially, and its CSV must
match the pool's byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

RELIABILITY_METRICS = ("reliability", "mean_reliability", "end_to_end_reliability")

# A fresh interpreter: time `import csmafade`, then loading and validating
# the workload config.  argv: src dir, benchmark dir, root, workload, seed, tiny.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import csmafade
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import workloads
workloads.load(sys.argv[3], sys.argv[4], int(sys.argv[5]), sys.argv[6] == "1")
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def measure_setup(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """(import_s, config_s) of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), str(ROOT),
         name, str(seed), "1" if tiny else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, config_s = (float(x) for x in proc.stdout.split())
    return import_s, config_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "workers": workers,
    }


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and of any child it has waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class CsvCheck:
    """Checks every CSV a run writes and keeps what the metrics need."""

    def __init__(self, spec):
        self.spec = spec
        self.analytic = spec.engine in ("analytic", "compare")
        self.simulated = spec.engine in ("simulate", "compare")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.shas: list[str] = []
        self.rel_gaps: list[float] = []
        self.delay_relerrs: list[float] = []

    def add(self, data: bytes) -> None:
        self.shas.append(hashlib.sha256(data).hexdigest())
        rows = list(csv.reader(io.StringIO(data.decode())))
        col = {name: i for i, name in enumerate(rows[0])}
        n_axes = len(self.spec.paths)
        points: dict[tuple, list[list[str]]] = {}
        for row in rows[1:]:
            points.setdefault(tuple(row[1:1 + n_axes]), []).append(row)
        self.attempted += self.spec.n_points
        if len(points) != self.spec.n_points:
            self.problems.append(f"{len(points)} points in the CSV, {self.spec.n_points} swept")
        for key, block in points.items():
            aggregate = {r[col["metric"]]: r for r in block if r[col["src"]] == ""}
            mean = aggregate.get("mean_reliability")
            if (mean is None
                    or (self.analytic and mean[col["analytic_value"]] == "")
                    or (self.simulated and mean[col["sim_mean"]] == "")):
                self.failed += 1
                continue
            for row in block:
                if row[col["metric"]] not in RELIABILITY_METRICS:
                    continue
                for cell in (row[col["analytic_value"]], row[col["sim_mean"]]):
                    if cell and not 0.0 <= float(cell) <= 1.0:
                        self.problems.append(f"point {key}: reliability {cell} outside [0, 1]")
            if self.analytic and self.simulated:
                a, s = float(mean[col["analytic_value"]]), float(mean[col["sim_mean"]])
                self.rel_gaps.append(abs(a - s))
                delay = aggregate["mean_delay_s"]
                a_d, s_d = delay[col["analytic_value"]], delay[col["sim_mean"]]
                if a_d and s_d:
                    self.delay_relerrs.append(abs(float(a_d) - float(s_d)) / float(s_d))

    def finish(self) -> None:
        if len(set(self.shas)) > 1:
            self.problems.append(f"CSV differs across the run's sweeps: {self.shas}")


def run_workload(name: str, seed: int | None = None, seconds: float = 30.0,
                 trace: bool = False, tiny: bool = False,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns metrics, checks, environment and (traced) spans."""
    from csmafade import sweep

    config, spec, seed = workloads.load(ROOT, name, seed, tiny)
    workers = workloads.WORKLOADS[name].workers
    check = CsvCheck(spec)
    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))

    def timed_sweep(n_workers: int, tracer: tracing.Tracer | None = None) -> float:
        kwargs = {"out_dir": out, "workers": n_workers}
        start = time.perf_counter()
        if tracer is None:
            path = sweep.run_sweep(config, spec, **kwargs)
        else:
            path = tracer.sweep(sweep.run_sweep, config, spec, **kwargs)
        wall = time.perf_counter() - start
        check.add(path.read_bytes())
        return wall

    spans = None
    setups = []
    try:
        if trace:
            setups = [measure_setup(name, seed, tiny) for _ in range(setup_repeats)]
            untraced = timed_sweep(workers)
            tracer = tracing.Tracer(out / "spool")
            tracer.install()
            try:
                traced = timed_sweep(workers, tracer)
            finally:
                tracer.uninstall()
            if workers > 1:
                timed_sweep(1)  # serial run: the CSV must not depend on the worker count
            spans = tracer.spans
            metrics = tracing.layer_metrics(spans, traced)
            metrics.update({
                "setup.import_s": statistics.median(s[0] for s in setups),
                "setup.config_s": statistics.median(s[1] for s in setups),
                "trace_overhead_s": traced - untraced,
                "rel_gap_max": 0.0,  # analytic-only workloads have no model-vs-sim gap
                "delay_relerr_max": 0.0,
            })
        else:
            # Set-ups interleave with the sweeps so that both sample the whole
            # window; a sweep starts only if its midpoint falls inside it.
            walls = []
            start = time.perf_counter()
            while len(walls) < 2 or time.perf_counter() - start + walls[-1] / 2 < seconds:
                setups.append(measure_setup(name, seed, tiny))
                walls.append(timed_sweep(workers))
            while len(setups) < setup_repeats:
                setups.append(measure_setup(name, seed, tiny))
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(i + c for i, c in setups),
                "peak_rss_mib": peak_rss_mib(),
            }
    finally:
        shutil.rmtree(out, ignore_errors=True)
    check.finish()
    agreement = {}
    if check.rel_gaps:
        agreement = {"rel_gap_max": max(check.rel_gaps),
                     "delay_relerr_max": max(check.delay_relerrs, default=0.0)}
        if trace:
            metrics.update(agreement)
    return {
        "workload": name,
        "seed": seed,
        "metrics": metrics,
        "correct": not check.problems,
        "problems": check.problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "csv_sha256": check.shas[0],
        "agreement": agreement,
        "environment": environment(workers),
        "spans": spans,
    }


def declared_metrics(trace: bool) -> list[dict]:
    """BENCHMARK.json's metric list for this mode: end_to_end, or per_layer traced."""
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def result_line(run: dict, trace: bool) -> dict:
    metrics = {
        m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared_metrics(trace)
    }
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="simulator master seed (default: the config's sim.master_seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat the untraced sweep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csmafade" / "__init__.py").is_file():
        print(f"perfbench: no csmafade sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    trace = bool(args.trace)
    run = run_workload(args.workload, args.seed, args.seconds, trace)
    result = result_line(run, trace)
    for problem in run["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    failed_share = run["failed"] / run["attempted"]
    print(f"{'failed_share':32s} {failed_share:>14.6g} 1  ({run['failed']}/{run['attempted']} points)")
    if not trace:
        for name, value in run["agreement"].items():
            print(f"{name:32s} {value:>14.6g} 1")
    print(json.dumps({key: run[key] for key in ("workload", "seed", "csv_sha256", "environment")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
