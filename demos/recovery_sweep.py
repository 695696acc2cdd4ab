"""Power-iteration recovery rate versus signal strength, plus an inventory.

Part 1 sweeps lambda and reports how often power iteration converges to the
spike within a fixed iteration budget: the success rate jumps from 0 to 1
across a narrow window far above the information-theoretic threshold.

Part 2 inventories all critical points of one small instance by homotopy
continuation (``find_critical_points``) and prints the (overlap, value,
index) table with its local-maximum histogram row sums.
"""

import argparse
import math

import numpy as np

from tensorlandscape import (
    find_critical_points,
    landscape_histogram,
    make_spiked_tensor,
    power_iteration,
)


def success_rate(n, k, lam, budget, seeds):
    hits = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed + 900)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        tensor = make_spiked_tensor(n, k, lam, u, seed=seed)
        start = rng.standard_normal(n)
        start /= np.linalg.norm(start)
        sigma, iters = power_iteration(tensor, start, max_iters=budget)
        if iters < budget and abs(float(sigma @ u)) > 0.8:
            hits += 1
    return hits / seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--budget", type=int, default=50)
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args()

    n = args.n
    print(f"power iteration, n={n}, k={args.k}, budget {args.budget} iterations")
    for lam in (0.5, 1.0, 2.0, math.sqrt(n), 2.0 * math.sqrt(n)):
        rate = success_rate(n, args.k, lam, args.budget, args.seeds)
        print(f"  lambda {lam:7.3f}: success {rate:.0%}")

    print("\ncritical-point inventory, n=4, lambda=1.5:")
    u = np.zeros(4)
    u[0] = 1.0
    tensor = make_spiked_tensor(4, args.k, 1.5, u, seed=3)
    records, failures = find_critical_points(tensor, n_starts=800, seed=2)
    print(f"  {len(records)} points ({failures} failed paths or starts)")
    print(f"  {'m':>8} {'f':>9} index")
    for rec in records:
        print(f"  {rec.m:+8.4f} {rec.f_value:+9.5f} {rec.index:>3}")
    counts, m_edges, _ = landscape_histogram(records, m_bins=8, f_bins=6)
    print("  local-maximum counts per overlap bin:")
    for i in range(counts.shape[0]):
        print(f"  [{m_edges[i]:+.2f}, {m_edges[i + 1]:+.2f}): {int(counts[i].sum())}")


if __name__ == "__main__":
    main()
