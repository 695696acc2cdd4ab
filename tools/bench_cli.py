"""End-to-end baseline of the five ``tensorland`` subcommands.

Starts a fresh interpreter for a bare ``import tensorlandscape`` and for
each subcommand with fixed small arguments, with every BLAS/OpenMP thread
variable set to 1 and no bytecode written, and records per case the
median, quartiles and spread of the wall time from process start to exit
and the child's peak resident set size (``ru_maxrss``).  The cases take
turns, REPEATS rounds after one untimed round, so a drift of the host
spreads over all of them.  See ``tools/harness.py`` for how to run it; the
result goes into ``BENCH_cli.json``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness  # sets the thread variables before numpy loads

#: timed processes per case, after one untimed round
REPEATS = 11
#: the subcommands' arguments; each writes its CSV into a scratch directory
SUBCOMMANDS = {
    "grid": ["--k", "3", "--lambda", "1.2", "--m-steps", "50", "--x-steps", "50"],
    "projection": ["--k", "3", "--lambda", "1.2", "--points", "50"],
    "thresholds": ["--k", "3", "--lambda", "3"],
    "oracle": ["--k", "3", "--lambda", "0", "--n-list", "10,20,40", "--samples", "100"],
    "simulate": ["--k", "3", "--lambda", "2", "--n", "12", "--seeds", "3",
                 "--method", "power"],
}


def commands(out_dir: str) -> dict[str, list[str]]:
    cases = {"import": [sys.executable, "-c", "import tensorlandscape"]}
    for name, args in SUBCOMMANDS.items():
        argv = [name, *args, "--out", os.path.join(out_dir, f"{name}.csv")]
        cases[name] = [sys.executable, "-c",
                       f"from tensorlandscape.cli import main; raise SystemExit(main({argv!r}))"]
    return cases


def run_once(cmd: list[str], env: dict) -> tuple[float, float]:
    """Wall seconds from start to exit and peak RSS in MB of one process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def measure(src: Path) -> dict[str, dict]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as out_dir:
        cases = commands(out_dir)
        samples = {name: [] for name in cases}
        for timed in [False] + [True] * REPEATS:
            for name, cmd in cases.items():
                sample = run_once(cmd, env)
                if timed:
                    samples[name].append(sample)
    rows = {}
    for name, runs in samples.items():
        walls, rss = zip(*runs)
        q1, median, q3 = statistics.quantiles(walls, n=4)
        rows[name] = {"args": SUBCOMMANDS.get(name), "median_s": median, "q1_s": q1,
                      "q3_s": q3, "min_s": min(walls), "max_s": max(walls),
                      "median_rss_mb": statistics.median(rss), "processes": REPEATS}
    return {"processes": rows}


if __name__ == "__main__":
    harness.main("cli", __doc__, measure)
