"""Smoke runs of the example scripts: each must exit cleanly on a short setting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import csmafade

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = str(Path(csmafade.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script, args",
    [
        ("delay_threshold_reversal.py", ["--skip-sim"]),
        ("multihop_chain.py", ["--reps", "1", "--sigmas", "0"]),
        ("traffic_shadowing_grid.py", ["--reps", "1", "--out", "{tmp_path}"]),
    ],
)
def test_script_exits_zero(script, args, tmp_path):
    args = [arg.format(tmp_path=tmp_path) for arg in args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_DIR, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
