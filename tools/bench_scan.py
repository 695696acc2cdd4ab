"""Per-layer baselines of the closed-form surfaces and the band search.

Times ``band_endpoints`` for both surfaces at (k, lambda) = (3, 3) and
(4, 1.7) with every BLAS/OpenMP thread variable set to 1, counts its
``project_max_over_x`` and ``s_star_projection`` calls, times the touch
point ``good_location_zero`` that every band search also returns at the same
(k, lambda), and times ``s_star`` and ``s_zero`` per call and per cell on the
two shapes the zero band search passes them.  See ``tools/harness.py`` for
how to run it; the result goes into ``BENCH_scan.json``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import harness  # sets the thread variables before numpy loads

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


def band_endpoints() -> list[dict]:
    from tensorlandscape import ModelParams, scan

    rows = []
    for k, lam in CASES:
        params = ModelParams(k, lam)
        for which in SURFACES:
            with contextlib.ExitStack() as stack:
                calls = {name: stack.enter_context(mock.patch.object(
                    scan, name, wraps=getattr(scan, name))) for name in COUNTED}
                band = scan.band_endpoints(params, which=which)  # also warms up
            q1, median, q3 = harness.quartiles(
                lambda: scan.band_endpoints(params, which=which), REPEATS)
            rows.append({
                "k": k, "lam": lam, "which": which,
                "median_s": median, "q1_s": q1, "q3_s": q3, "repeats": REPEATS,
                "projection_calls": calls["project_max_over_x"].call_count,
                "star_projection_calls": calls["s_star_projection"].call_count,
                "m1": band.m1, "m2": band.m2,
            })
    return rows


def touch_point() -> list[dict]:
    from tensorlandscape import ModelParams, thresholds

    rows = []
    for k, lam in CASES:
        params = ModelParams(k, lam)
        m_star = thresholds.good_location_zero(params)  # warms up
        q1, median, q3 = harness.quartiles(lambda: thresholds.good_location_zero(params),
                                           REPEATS, CALLS)
        rows.append({"k": k, "lam": lam, "median_s": median, "q1_s": q1, "q3_s": q3,
                     "repeats": REPEATS, "calls_per_repeat": CALLS, "m_star": m_star})
    return rows


def surfaces() -> list[dict]:
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
                q1, median, q3 = harness.quartiles(lambda: fn(params, mm, xx), REPEATS, CALLS)
                rows.append({"k": k, "lam": lam, "surface": fn.__name__, "shape": shape,
                             "cells": cells, "median_s": median, "q1_s": q1, "q3_s": q3,
                             "median_ns_per_cell": 1e9 * median / cells,
                             "repeats": REPEATS, "calls_per_repeat": CALLS})
    return rows


def measure(src) -> dict:
    return {"band_endpoints": band_endpoints(), "good_location_zero": touch_point(),
            "surfaces": surfaces()}


if __name__ == "__main__":
    harness.main("scan", __doc__, measure)
