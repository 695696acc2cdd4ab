"""The harness every per-layer baseline in ``tools/`` runs in.

Importing it sets every BLAS/OpenMP thread variable to 1, so a tool imports
it before anything loads numpy.  A tool defines ``measure(src)``, which
returns its sections by name, and ends in ``harness.main(name, __doc__,
measure)``.  Run a tool from the repository root:

    python3 tools/bench_<name>.py --label "this change"
    python3 tools/bench_<name>.py --label parent --src ../parent/src

``--src`` picks the source tree to import (default: this repository's
``src``), so two commits can be measured by the same script on the same
machine.  The sections go under the label, together with the machine (nproc,
CPU, BLAS), into ``BENCH_<name>.json`` at the repository root; that label's
entry is replaced and the others are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads a BLAS

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def quartiles(call, repeats: int, per: int = 1) -> list[float]:
    """Quartiles over ``repeats`` timed runs of the mean time of ``per`` calls."""
    return alternating_quartiles({None: call}, repeats, per)[None]


def alternating_quartiles(calls: dict, repeats: int, per: int = 1) -> dict:
    """``quartiles`` of each of ``calls`` by name, one timed run of each in
    turn, so that a change in the host's speed moves them alike."""
    times = {name: [] for name in calls}
    for _ in range(repeats):
        for name, call in calls.items():
            t0 = time.perf_counter()
            for _ in range(per):
                call()
            times[name].append((time.perf_counter() - t0) / per)
    return {name: statistics.quantiles(runs, n=4) for name, runs in times.items()}


def _print_rows(prefix: str, value) -> None:
    """One line per row: a dict of scalars, reached through dicts and lists of rows."""
    if isinstance(value, list):
        for row in value:
            _print_rows(prefix, row)
    elif isinstance(value, dict) and all(isinstance(v, (dict, list)) for v in value.values()):
        for key, v in value.items():
            _print_rows(f"{prefix} {key}", v)
    else:
        print(f"{prefix}: " + ", ".join(
            f"{key}={v:.4g}" if isinstance(v, float) else f"{key}={v}"
            for key, v in value.items()))


def main(name: str, doc: str, measure) -> None:
    """Measure ``src`` with ``measure`` and store its sections under the label."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this entry in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import tensorlandscape from")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))

    sections = measure(src)
    out = ROOT / f"BENCH_{name}.json"
    data = json.loads(out.read_text()) if out.exists() else {}
    data[args.label] = {"machine": machine(), **sections}
    out.write_text(json.dumps(data, indent=2) + "\n")
    for section, value in sections.items():
        _print_rows(f"{args.label}: {section}", value)
