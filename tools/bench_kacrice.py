"""Per-layer baseline of the Kac-Rice Monte Carlo, ``kacrice.crt_expected``.

Times one estimate at k = 3, 400 samples, the default 60 m steps and
window, for lambda in {0, 1.5}, n in {20, 40, 80, 160, 640}, x_steps in
{60, 480} and both surfaces ("star" and "zero"), with every BLAS/OpenMP
thread variable set to 1.  Each case reports the median and quartiles of
the time per estimate and the median per sample, x cell and pivot, n - 1 of
which a sample's sweep makes per x cell.  The result goes under a label
into a JSON file together with the machine (nproc, CPU, BLAS).  Run from
the repository root:

    python3 tools/bench_kacrice.py --label "this change"
    python3 tools/bench_kacrice.py --label parent --src ../parent/src

``--src`` picks the source tree to import (default: this repository's
``src``), so two commits can be measured by the same script on the same
machine; each label's entry in ``BENCH_kacrice.json`` at the repository
root is replaced and the others are kept.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

from bench_scan import ROOT, machine  # sets the thread variables before numpy loads

OUT = ROOT / "BENCH_kacrice.json"
#: timed estimates per case, after one untimed one
REPEATS = 7
SAMPLES, K, SEED = 400, 3, 0
LAMBDAS = (0.0, 1.5)
DIMENSIONS = (20, 40, 80, 160, 640)
X_STEPS = (60, 480)
SURFACES = ("star", "zero")


def measure() -> list[dict]:
    from tensorlandscape import ModelParams, crt_expected

    rows = []
    for lam, n, x_steps, which in itertools.product(LAMBDAS, DIMENSIONS, X_STEPS, SURFACES):
        def estimate():
            return crt_expected(ModelParams(K, lam), n, x_steps=x_steps, n_samples=SAMPLES,
                                seed=SEED, which=which)

        log_mean = estimate().log_mean  # also warms up
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            estimate()
            times.append(time.perf_counter() - t0)
        q1, median, q3 = statistics.quantiles(times, n=4)
        rows.append({
            "lambda": lam, "n": n, "x_steps": x_steps, "which": which, "samples": SAMPLES,
            "median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3,
            "ns_per_sample_cell_pivot": 1e9 * median / (SAMPLES * x_steps * (n - 1)),
            "repeats": REPEATS, "log_mean": log_mean,
        })
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this entry in the output")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import tensorlandscape from")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))

    result = {"machine": machine(), "crt_expected": measure()}
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data[args.label] = result
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    for row in result["crt_expected"]:
        print(f"{args.label}: lambda={row['lambda']:g} n={row['n']} x_steps={row['x_steps']} "
              f"{row['which']}: {row['median_ms']:.1f} ms median [{row['q1_ms']:.1f}, {row['q3_ms']:.1f}], "
              f"{row['ns_per_sample_cell_pivot']:.2f} ns per sample-cell-pivot")


if __name__ == "__main__":
    main()
