"""Smoke tests: each demo script runs on small arguments against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = [
    ("surface_curves.py", ["--lambdas", "3.0", "--points", "21"],
     "star band       = (-0.34244, +0.34244)"),
    ("region_map.py", ["--m-steps", "20", "--x-steps", "30"],
     "star: 13.3333% of cells nonnegative"),
    ("count_growth.py", ["--n-list", "6,8,10", "--samples", "20"], "fitted growth rate"),
    ("recovery_sweep.py", ["--n", "8", "--seeds", "2", "--budget", "20"],
     "26 points (0 failed paths or starts)"),
]


@pytest.mark.parametrize("script, args, key_line", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(tmp_path, script, args, key_line):
    # run in tmp_path, so the demos' default output directory lands there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert key_line in proc.stdout
