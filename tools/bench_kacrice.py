"""Per-layer baseline of the Kac-Rice Monte Carlo, ``kacrice.crt_expected``.

Times one estimate at k = 3, 400 samples, the default 60 m steps and
window, for lambda in {0, 1.5}, n in {20, 40, 80, 160, 640}, x_steps in
{60, 480} and both surfaces ("star" and "zero"), with every BLAS/OpenMP
thread variable set to 1.  Each case reports the median and quartiles of
the time per estimate and the median per sample, x cell and pivot, n - 1 of
which a sample's sweep makes per x cell.  See ``tools/harness.py`` for how
to run it; the result goes into ``BENCH_kacrice.json``.
"""

from __future__ import annotations

import itertools

import harness  # sets the thread variables before numpy loads

#: timed estimates per case, after one untimed one
REPEATS = 7
SAMPLES, K, SEED = 400, 3, 0
LAMBDAS = (0.0, 1.5)
DIMENSIONS = (20, 40, 80, 160, 640)
X_STEPS = (60, 480)
SURFACES = ("star", "zero")


def measure(src) -> dict:
    from tensorlandscape import ModelParams, crt_expected

    rows = []
    for lam, n, x_steps, which in itertools.product(LAMBDAS, DIMENSIONS, X_STEPS, SURFACES):
        def estimate():
            return crt_expected(ModelParams(K, lam), n, x_steps=x_steps, n_samples=SAMPLES,
                                seed=SEED, which=which)

        log_mean = estimate().log_mean  # also warms up
        q1, median, q3 = harness.quartiles(estimate, REPEATS)
        rows.append({
            "lambda": lam, "n": n, "x_steps": x_steps, "which": which, "samples": SAMPLES,
            "median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3,
            "ns_per_sample_cell_pivot": 1e9 * median / (SAMPLES * x_steps * (n - 1)),
            "repeats": REPEATS, "log_mean": log_mean,
        })
    return {"crt_expected": rows}


if __name__ == "__main__":
    harness.main("kacrice", __doc__, measure)
