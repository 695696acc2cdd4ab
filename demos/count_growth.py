"""Finite-n expected critical-point counts and their exponential growth rate.

Runs the Monte-Carlo count estimator over a range of dimensions at lambda=0
(pure noise) and fits the growth rate of log E[count]; the rate approaches
(1/2) log 2 ~= 0.3466 from above as n grows.  Also prints the local-maxima
estimate, which is strictly smaller at every n.
"""

import argparse
import math

from tensorlandscape import ModelParams, crt_expected, growth_rate_fit


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ap.add_argument("--n-list", default="10,20,40")
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = ModelParams(args.k, args.lam)
    n_list = [int(tok) for tok in args.n_list.split(",")]
    print(f"k={args.k} lambda={args.lam}, {args.samples} samples per estimate")
    print(f"{'n':>4} {'log E[total]':>14} {'(1/n) log':>10} {'log E[maxima]':>14}")
    points = []
    for n in n_list:
        star = crt_expected(params, n, n_samples=args.samples, seed=args.seed,
                            which="star")
        zero = crt_expected(params, n, n_samples=args.samples, seed=args.seed,
                            which="zero")
        points.append((n, star.log_mean))
        print(f"{n:>4} {star.log_mean:>14.4f} {star.log_mean / n:>10.4f} "
              f"{zero.log_mean:>14.4f}")
    rate = growth_rate_fit(points)
    print(f"fitted growth rate {rate:.4f}  (limit at lambda=0: "
          f"{0.5 * math.log(2.0):.4f})")


if __name__ == "__main__":
    main()
