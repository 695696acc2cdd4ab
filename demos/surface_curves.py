"""Projection curves and threshold quantities for a few signal strengths.

Writes one CSV per lambda with the max-over-x curves of both surfaces and
prints the threshold report (critical SNR, crossover, band endpoints, touch
point).  The CSVs plot directly with any tool: column 1 is m, columns 2-3
are the curves.
"""

import argparse
import os

import numpy as np

from tensorlandscape import ModelParams, band_endpoints, project_max_over_x, threshold_report


def fmt(value) -> str:
    return "absent" if value is None else f"{value:+.5f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--lambdas", default="0.5,1.2,3.0")
    ap.add_argument("--points", type=int, default=241)
    ap.add_argument("--outdir", default="demo_out")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    for lam in (float(tok) for tok in args.lambdas.split(",")):
        params = ModelParams(args.k, lam)
        report = threshold_report(params)
        zero_band = band_endpoints(params, which="zero")
        star_band = band_endpoints(params, which="star")
        print(f"k={args.k} lambda={lam}:")
        print(f"  lambda_critical = {report.lambda_crit:.6f}")
        print(f"  m_crossover     = {fmt(report.m_crossover)}")
        print(f"  good zero       = {fmt(report.good_zero)}")
        print(f"  zero band       = ({fmt(zero_band.m1)}, {fmt(zero_band.m2)})"
              f" touch {fmt(report.good_zero)}")
        print(f"  star band       = ({fmt(star_band.m1)}, {fmt(star_band.m2)})")
        ms = np.linspace(-0.99, 0.99, args.points)
        star = project_max_over_x(params, ms, which="star").value
        zero = project_max_over_x(params, ms, which="zero").value
        path = os.path.join(args.outdir, f"curves_k{args.k}_lam{lam}.csv")
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("m,s_star_of_m,s_zero_of_m\n")
            for row in zip(ms, star, zero):
                fh.write("%.17g,%.17g,%.17g\n" % row)
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
