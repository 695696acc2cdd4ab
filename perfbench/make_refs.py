"""Generate the reference answers the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_refs.py [bands oracle inventory]

Writes perfbench/refs/<job>.json for each job named (default: all three).  Each file records how its numbers
were made.  Takes about fifteen minutes on one core, nearly all of it in
the long Kac-Rice and multistart runs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from tensorlandscape import kacrice, scan, simulate, thresholds
from tensorlandscape.complexity import ModelParams

import envinfo
import workloads

HERE = Path(__file__).resolve().parent
REF_SEED = 20171115  # disjoint from the small seeds the benchmark is run with


def bands() -> dict:
    k, lam = workloads.BANDS_K, workloads.BANDS_LAMBDA
    params = ModelParams(k, lam)
    target = 1.0 / (2.0 * k * lam * lam)
    m_peak = math.sqrt((k - 2.0) / (k - 1.0))
    good = brentq(lambda m: m ** (2 * k - 4) * (1.0 - m * m) - target, m_peak, 1.0,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)
    m_cross = ((k - 2.0) / (lam * math.sqrt(2.0 * k * (k - 1.0)))) ** (1.0 / k)
    star_root = brentq(lambda m: thresholds.s_star_projection(params, m), 0.0, m_cross,
                       xtol=1e-15, rtol=4 * np.finfo(float).eps)
    zero = scan.band_endpoints(params, which="zero", xtol=1e-13)
    values = {
        "lambda_critical": math.sqrt((k - 1.0) ** (k - 1) / (2.0 * k * (k - 2.0) ** (k - 2))),
        "m_critical": m_cross,
        "good_location_zero": good,
        "zero_band_m1": zero.m1,
        "zero_band_m2": zero.m2,
        "zero_band_m_star": good,
        "star_band_m1": -star_root,
        "star_band_m2": star_root,
        "star_band_m_star": good,
    }
    return {
        "k": k, "lambda": lam, "values": values,
        "method": {
            "lambda_critical, m_critical": "closed forms sqrt((k-1)^(k-1)/(2k(k-2)^(k-2))) "
                                           "and ((k-2)/(lam sqrt(2k(k-1))))^(1/k)",
            "good_location_zero, *_m_star": "brentq (xtol 1e-15) on m^(2k-4)(1-m^2) = "
                                            "1/(2k lam^2) over [sqrt((k-2)/(k-1)), 1]",
            "star_band_m2": "brentq (xtol 1e-15) on the closed-form s_star_projection over "
                            "[0, m_critical]; star_band_m1 = -star_band_m2 since "
                            "s_star(-m, -x) = s_star(m, x) for odd k",
            "zero_band_m1, zero_band_m2": "scan.band_endpoints(which='zero', xtol=1e-13): "
                                          "the program's own search at 1000x tighter "
                                          "bisection tolerance",
        },
    }


def oracle() -> dict:
    estimates = {}
    for spec in workloads.ORACLE_RUNS:
        params = ModelParams(workloads.ORACLE_K, spec["lambda"])
        for n in spec["n_list"]:
            est = kacrice.crt_expected(params, n, n_samples=spec["ref_samples"],
                                       seed=REF_SEED, which=spec["which"], n_threads=1)
            key = workloads.oracle_key(spec["lambda"], spec["which"], n)
            estimates[key] = {"log_mean": est.log_mean, "log_std_error": est.log_std_error,
                              "samples": spec["ref_samples"]}
            print(key, estimates[key], flush=True)
    return {
        "estimates": estimates,
        "method": f"kacrice.crt_expected with the CLI's default (m, x) window and grid, "
                  f"seed {REF_SEED}, 1 thread, samples as listed per entry",
    }


def inventory() -> dict:
    tensors = []
    for t in workloads.INVENTORY_TENSORS:
        tensor = workloads.inventory_tensor(t)
        records, failures = simulate.find_critical_points(
            tensor, n_starts=workloads.INVENTORY_REF_STARTS, seed=REF_SEED + t)
        points = [{"sigma": r.sigma.tolist(), "f": r.f_value, "index": r.index}
                  for r in records]
        problem = workloads.inventory_problem(points, tensor.n)
        if problem:
            raise RuntimeError(f"reference inventory of tensor {t} is incomplete: {problem}")
        tensors.append({"tensor": t, "count": len(points), "failed_starts": failures,
                        "points": points})
        print(f"tensor {t}: {len(points)} points, {failures} failed starts", flush=True)
    return {
        "tensors": tensors,
        "method": f"simulate.find_critical_points with {workloads.INVENTORY_REF_STARTS} "
                  f"starts, seed {REF_SEED} + tensor; the result passes the Euler "
                  f"characteristic and antipodal pairing checks",
    }


MAKERS = {"bands": bands, "oracle": oracle, "inventory": inventory}


def main(argv) -> int:
    parts = argv or list(MAKERS)
    unknown = set(parts) - set(MAKERS)
    if unknown:
        print(f"error: no reference maker for {sorted(unknown)}", file=sys.stderr)
        return 2
    (HERE / "refs").mkdir(exist_ok=True)
    for part in parts:
        ref = MAKERS[part]()
        ref["commit"] = envinfo.commit(HERE)
        with open(HERE / "refs" / f"{part}.json", "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
