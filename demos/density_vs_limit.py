#!/usr/bin/env python3
"""Empirical exceedance density against its limit 1 - e^(-1/c).

The share of n <= x with ratio(n) > c ln ln n converges to 1 - e^(-1/c),
but at triple-log speed, so no desk-scale x gets close. This script
tabulates the deviation at increasing x so the (slow) drift is at least
visible, then the same per-n shares on far windows [10^k, 10^k + 2^20)
for k = 8, 10, 12, 15, and prints the alternating partial sums whose
consecutive values bracket e^(-1/c).

Run: python demos/density_vs_limit.py [--max-exp 7]
(about 1.5 s at the default in one process on a 2-vCPU guest, the far
windows included)
"""

import argparse
import math

from factorgaps import (
    build_prime_table,
    partial_alternating_sum,
    scan_range,
    theoretical_density,
)

CS = (0.25, 0.5, 1.0, 2.0, 4.0)
FAR_CS = (0.5, 1.0, 2.0)
FAR_EXPS = (8, 10, 12, 15)
FAR_WIDTH = 2**20


def density_table(max_exp):
    table = build_prime_table(max(10_000, math.isqrt(10**max_exp) + 1))
    print("=" * 76)
    print("  empirical density of ratio(n) > c ln ln n, against 1 - e^(-1/c)")
    print("=" * 76)
    header = "  x        " + "".join(f"{f'c={c}':>12}" for c in CS)
    print(header)
    print("  limit    " + "".join(f"{theoretical_density(c):>12.5f}" for c in CS))
    for e in range(5, max_exp + 1):
        s = scan_range(16, 10**e, CS, table)
        row = "".join(f"{s.exceed[c] / s.eligible:>12.5f}" for c in CS)
        print(f"  1e{e}      {row}")
    print()
    print("  deviations (empirical - limit) at the largest x:")
    s = scan_range(16, 10**max_exp, CS, table)
    for c in CS:
        print(f"    c = {c:<5}: {s.exceed[c] / s.eligible - theoretical_density(c):+.5f}")
    print()
    print("  convergence is triple-logarithmic: even at x = 1e9 the scale")
    print("  ln ln ln x is only about 1.06, so the deviations above are the")
    print("  honest state of affairs, not a bug.")


def far_windows():
    table = build_prime_table(math.isqrt(10 ** FAR_EXPS[-1] + FAR_WIDTH) + 1)
    print()
    print("=" * 76)
    print("  the same per-n shares on far windows [10^k, 10^k + 2^20)")
    print("=" * 76)
    print("  window   " + "".join(f"{f'c={c}':>12}" for c in FAR_CS))
    print("  limit    " + "".join(f"{theoretical_density(c):>12.5f}" for c in FAR_CS))
    for k in FAR_EXPS:
        s = scan_range(10**k, 10**k + FAR_WIDTH, FAR_CS, table, distribution=False)
        row = "".join(f"{s.exceed[c] / s.eligible:>12.5f}" for c in FAR_CS)
        print(f"  1e{k:<2}     {row}")
    print()
    print("  from 1e8 to 1e15, ln ln ln n only moves from 1.07 to 1.27.")


def bracketing(c=1.0):
    print()
    print("=" * 76)
    print(f"  partial sums of sum (-1)^k / (c^k k!) at c = {c}")
    print("=" * 76)
    lim = math.exp(-1.0 / c)
    for K in range(9):
        s = partial_alternating_sum(c, K)
        side = "above" if s >= lim else "below"
        print(f"    K = {K}:  {s:+.9f}   ({side} the limit {lim:.9f})")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-exp", type=int, default=7, help="largest x is 10**this")
    args = ap.parse_args()
    density_table(args.max_exp)
    far_windows()
    bracketing()
