"""Per-layer baseline of tensor builds, contraction and inventories in ``tensorlandscape.simulate``.

Times ``make_spiked_tensor`` at (n, k) = (100, 3), (200, 3), (30, 4) and
(10, 5), and traces one build with ``tracemalloc``: its peak, and what the
tensor holds after its first contraction (a tree that packs the tensor
lazily packs it then).  Times the two contraction kernels per point at
(n, k) = (100, 3) and (30, 4) on stacks of 1 and 20 points, their timed
runs taken in turn: ``simulate._contract_rows``, which reads every packed
column for Y[x^(k-2)], and ``simulate._gradient_rows``, which reads the
same-half columns for w, f and the gradient only (a source tree without it
gets the first alone).  Then one ``power_iteration`` run, through the
gradient kernel, on the three n = 100 tensors of the benchmark's
``recovery`` job, and critical-point inventories: the time to a complete
inventory of the benchmark's two n = 5 ``inventory`` tensors, as its job
runs them (calls of 100 starts with seeds [t, call] until the merged
points reach the reference count with sum (-1)^index = 2), and one
``find_critical_points`` call per k = 3 tensor at n = 4, 6 and 8.  Every
BLAS/OpenMP thread variable is set to 1.  See ``tools/harness.py`` for how
to run it; the result goes into ``BENCH_simulate.json``.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

import harness  # sets the thread variables before numpy loads

#: the (n, k) of the timed builds, and timed builds per case after one untimed one
BUILD_CASES, BUILD_REPEATS = ((100, 3), (200, 3), (30, 4), (10, 5)), 5
#: timed samples per case, each of CALLS contractions, after one untimed call
REPEATS, CALLS = 21, 50
CASES = ((100, 3), (30, 4))
ROWS = (1, 20)
#: the recovery job's tensors: n, lambda / sqrt(n) per tensor, power
#: iteration starts per tensor and the iteration cap; the starts are those
#: its seed 1 draws in its first repetition
RECOVERY_N, RECOVERY_FACTORS, STARTS, CAP = 100, (0.5, 1.0, 2.0), 20, 200
#: timed passes over the 60 power iteration runs, after one untimed pass
PASSES = 3
#: the benchmark's inventory tensors (seed t: spike and tensor, as perfbench's
#: ``cli_draw(5, 1.5, t)`` draws them), their reference point counts, its
#: starts per call and its cap on starts
INVENTORY_N, INVENTORY_LAMBDA, INVENTORY_COUNTS, BATCH, START_CAP = 5, 1.5, (30, 18), 100, 2000
#: dimensions of the single-call case, and timed repeats of every inventory case
CALL_NS, INVENTORY_REPEATS = (4, 6, 8), 5


def build() -> list:
    import tracemalloc

    import numpy as np
    from tensorlandscape import simulate

    rows = []
    for n, k in BUILD_CASES:
        u = np.full(n, 1.0 / math.sqrt(n))
        call = functools.partial(simulate.make_spiked_tensor, n, k, math.sqrt(n), u, seed=0)
        simulate.objective(call(), u)  # warms up (and fills any index cache)
        q1, median, q3 = harness.quartiles(call, BUILD_REPEATS)
        tracemalloc.start()
        try:
            tensor = call()
            peak = tracemalloc.get_traced_memory()[1]
            simulate.objective(tensor, u)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows.append({"n": n, "k": k, "median_ms": 1e3 * median, "q1_ms": 1e3 * q1,
                     "q3_ms": 1e3 * q3, "repeats": BUILD_REPEATS,
                     "peak_mib": peak / 2 ** 20, "held_mib": held / 2 ** 20})
    return rows


def contraction() -> dict:
    import numpy as np
    from tensorlandscape import simulate

    kernels = {name: getattr(simulate, f"_{name}") for name in ("contract_rows", "gradient_rows")
               if hasattr(simulate, f"_{name}")}
    rows = {name: [] for name in kernels}
    for n, k in CASES:
        rng = np.random.default_rng([n, k])
        u = rng.standard_normal(n)
        tensor = simulate.make_spiked_tensor(n, k, math.sqrt(n), u / np.linalg.norm(u), seed=0)
        for size in ROWS:
            x = rng.standard_normal((size, n))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            calls = {name: functools.partial(kernel, tensor, x) for name, kernel in kernels.items()}
            for call in calls.values():
                call()  # warms up (and builds any cache)
            for name, timed in harness.alternating_quartiles(calls, REPEATS, CALLS).items():
                q1, median, q3 = (t / size for t in timed)
                rows[name].append({"n": n, "k": k, "rows": size,
                                   "median_us_per_point": 1e6 * median, "q1_us": 1e6 * q1,
                                   "q3_us": 1e6 * q3, "repeats": REPEATS,
                                   "calls_per_repeat": CALLS})
            if "gradient_rows" in rows:
                gradient, full = rows["gradient_rows"][-1], rows["contract_rows"][-1]
                gradient["vs_contract_rows"] = (gradient["median_us_per_point"]
                                                / full["median_us_per_point"])
    return rows


def power() -> dict:
    import numpy as np
    from tensorlandscape import simulate

    runs = []
    for i, factor in enumerate(RECOVERY_FACTORS):
        rng = np.random.default_rng(i)
        u = rng.standard_normal(RECOVERY_N)
        tensor = simulate.make_spiked_tensor(RECOVERY_N, 3, factor * math.sqrt(RECOVERY_N),
                                             u / np.linalg.norm(u), seed=i)
        starts = np.random.default_rng([1, 0, i]).standard_normal((STARTS, RECOVERY_N))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        runs += [(tensor, start) for start in starts]
    times = []
    for timed in [False] + [True] * PASSES:
        iters = 0
        for tensor, start in runs:
            t0 = time.perf_counter()
            _, steps = simulate.power_iteration(tensor, start, max_iters=CAP)
            if timed:
                times.append(time.perf_counter() - t0)
            iters += steps
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"runs": len(runs), "passes": PASSES, "iters_per_pass": iters,
            "median_ms_per_run": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3,
            "us_per_iter": 1e6 * sum(times) / (PASSES * iters)}


def inventory() -> dict:
    import numpy as np
    from tensorlandscape import simulate

    def tensor(n: int, seed: int):
        u = np.random.default_rng(seed).standard_normal(n)
        u /= np.linalg.norm(u)
        return simulate.make_spiked_tensor(n, 3, INVENTORY_LAMBDA, u, seed=seed)

    def complete(t: int, count: int) -> tuple[int, int]:
        """Calls of BATCH starts until the merged inventory is complete; the
        calls and starts it took."""
        spiked, points, starts = tensor(INVENTORY_N, t), [], 0
        while starts < START_CAP:
            records, _ = simulate.find_critical_points(spiked, n_starts=BATCH,
                                                       seed=[t, starts // BATCH])
            starts += BATCH
            points += [r for r in records
                       if all(np.linalg.norm(r.sigma - p.sigma) >= 1e-6 for p in points)]
            if len(points) == count and sum((-1) ** p.index for p in points) == 2:
                break
        return starts // BATCH, starts

    times = []
    for timed in [False] + [True] * INVENTORY_REPEATS:
        t0 = time.perf_counter()
        runs = [complete(t, count) for t, count in enumerate(INVENTORY_COUNTS)]
        if timed:
            times.append(time.perf_counter() - t0)
    calls = []
    for n in CALL_NS:
        spiked, per_call = tensor(n, 0), []
        for timed in [False] + [True] * INVENTORY_REPEATS:
            t0 = time.perf_counter()
            records, failures = simulate.find_critical_points(spiked, n_starts=BATCH, seed=1)
            if timed:
                per_call.append(time.perf_counter() - t0)
        calls.append({"n": n, "k": 3, "n_starts": BATCH, "points": len(records),
                      "failures": failures, "median_ms": 1e3 * statistics.median(per_call)})
    return {"complete": {"tensors": len(runs), "calls": [c for c, _ in runs],
                         "starts": [s for _, s in runs], "repeats": INVENTORY_REPEATS,
                         "median_ms": 1e3 * statistics.median(times),
                         "min_ms": 1e3 * min(times), "max_ms": 1e3 * max(times)},
            "one_call": calls}


def measure(src) -> dict:
    return {"build": build(), **contraction(), "power_iteration": power(),
            "inventory": inventory()}


if __name__ == "__main__":
    harness.main("simulate", __doc__, measure)
