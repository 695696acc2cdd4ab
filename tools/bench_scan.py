"""Per-layer baselines of the closed-form surfaces and the band search.

Times ``band_endpoints`` for both surfaces at (k, lambda) = (3, 3) and
(4, 1.7) with every BLAS/OpenMP thread variable set to 1, counts its
``project_max_over_x`` and ``s_star_projection`` calls, times the touch
point ``good_location_zero`` that every band search also returns at the same
(k, lambda), times ``s_star`` and ``s_zero`` per call and per cell on the
two shapes the zero band search passes them, and records the result under
a label in a JSON file together with the machine (nproc, CPU, BLAS).  Run
from the repository root:

    python3 tools/bench_scan.py --label "this change"
    python3 tools/bench_scan.py --label parent --src ../parent/src

``--src`` picks the source tree to import (default: this repository's
``src``), so two commits can be measured by the same script on the same
machine; each label's entry in ``BENCH_scan.json`` at the repository root
is replaced and the others are kept.
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
OUT = ROOT / "BENCH_scan.json"
#: timed runs per case, after one untimed run that counts calls and warms up
REPEATS = 21
#: calls per timed run of a case that takes well under 1 ms per call (the
#: touch point, a surface)
CALLS = 20
CASES = ((3, 3.0), (4, 1.7))
SURFACES = ("zero", "star")
#: scan's names counted per band search: the numeric projection, and the
#: closed-form star projection that places the critical-point band edges
COUNTED = ("project_max_over_x", "s_star_projection")
#: the zero band search's two kinds of surface call: a multisection round's
#: coarse scan, 32 overlaps (16 per edge) against the 401-point x grid, and
#: one golden-section step of those 32 brackets, one point each
SURFACE_ROWS, SURFACE_COARSE = 32, 401


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


def measure() -> list[dict]:
    from tensorlandscape import ModelParams, scan

    rows = []
    for k, lam in CASES:
        params = ModelParams(k, lam)
        for which in SURFACES:
            calls = dict.fromkeys(COUNTED, 0)
            originals = {name: getattr(scan, name) for name in COUNTED}

            def counter(name):
                def counted(*args, **kwargs):
                    calls[name] += 1
                    return originals[name](*args, **kwargs)
                return counted

            for name in COUNTED:
                setattr(scan, name, counter(name))
            try:
                band = scan.band_endpoints(params, which=which)  # also warms up
            finally:
                for name, fn in originals.items():
                    setattr(scan, name, fn)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                scan.band_endpoints(params, which=which)
                times.append(time.perf_counter() - t0)
            q1, median, q3 = statistics.quantiles(times, n=4)
            rows.append({
                "k": k, "lam": lam, "which": which,
                "median_s": median, "q1_s": q1, "q3_s": q3, "repeats": REPEATS,
                "projection_calls": calls["project_max_over_x"],
                "star_projection_calls": calls["s_star_projection"],
                "m1": band.m1, "m2": band.m2,
            })
    return rows


def per_call_quartiles(call) -> list[float]:
    """Quartiles over REPEATS timed runs of the mean time of CALLS calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            call()
        times.append((time.perf_counter() - t0) / CALLS)
    return statistics.quantiles(times, n=4)


def measure_touch_point() -> list[dict]:
    from tensorlandscape import ModelParams, thresholds

    rows = []
    for k, lam in CASES:
        params = ModelParams(k, lam)
        m_star = thresholds.good_location_zero(params)  # warms up
        q1, median, q3 = per_call_quartiles(lambda: thresholds.good_location_zero(params))
        rows.append({"k": k, "lam": lam, "median_s": median, "q1_s": q1, "q3_s": q3,
                     "repeats": REPEATS, "calls_per_repeat": CALLS, "m_star": m_star})
    return rows


def measure_surfaces() -> list[dict]:
    import numpy as np

    from tensorlandscape import ModelParams, s_star, s_zero

    m = np.linspace(-0.15, 0.15, SURFACE_ROWS)
    rows = []
    for k, lam in CASES:
        params = ModelParams(k, lam)
        x = np.linspace(-(lam + 3.0), lam + 3.0, SURFACE_COARSE)
        shapes = {"coarse_scan": (m[:, None], x[None, :]),
                  "golden_step": (m, np.linspace(1.0, 2.0, SURFACE_ROWS))}
        for fn in (s_star, s_zero):
            for shape, (mm, xx) in shapes.items():
                cells = np.broadcast(mm, xx).size
                fn(params, mm, xx)  # warms up
                q1, median, q3 = per_call_quartiles(lambda: fn(params, mm, xx))
                rows.append({"k": k, "lam": lam, "surface": fn.__name__, "shape": shape,
                             "cells": cells, "median_s": median, "q1_s": q1, "q3_s": q3,
                             "median_ns_per_cell": 1e9 * median / cells,
                             "repeats": REPEATS, "calls_per_repeat": CALLS})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this entry in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import tensorlandscape from")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))

    result = {"machine": machine(), "band_endpoints": measure(),
              "good_location_zero": measure_touch_point(), "surfaces": measure_surfaces()}
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data[args.label] = result
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    for row in result["band_endpoints"]:
        print(f"{args.label}: k={row['k']} lam={row['lam']} {row['which']}: "
              f"{1e3 * row['median_s']:.1f} ms median, {row['projection_calls']} projections, "
              f"{row['star_projection_calls']} star projections")
    for row in result["good_location_zero"]:
        print(f"{args.label}: k={row['k']} lam={row['lam']} good_location_zero: "
              f"{1e6 * row['median_s']:.0f} us median")
    for row in result["surfaces"]:
        print(f"{args.label}: k={row['k']} lam={row['lam']} {row['surface']} "
              f"{row['shape']} ({row['cells']} cells): {1e6 * row['median_s']:.0f} us "
              f"median, {row['median_ns_per_cell']:.0f} ns per cell")


if __name__ == "__main__":
    main()
