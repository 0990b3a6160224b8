#!/usr/bin/env python3
"""A tour of the gap statistic.

For n with distinct prime factors p_1 < ... < p_w the statistic is
gap(n) = ln(max_j ln p_{j+1} / ln p_j). Its typical size is the triple
log of n, which this script makes visible: first on a handful of
integers, then as a centered histogram over a million consecutive ones.

Run: python demos/gap_statistic_tour.py [--max 1000000]
"""

import argparse
import math

from factorgaps import build_prime_table, factorize, gap_profile, scan_range


def show_profiles(table):
    print("=" * 72)
    print("  gap profiles of a few integers")
    print("=" * 72)
    print(f"  {'n':>10} {'factors':>24} {'ratio':>9} {'gap':>9} {'ln3 n':>8}")
    for n in [12, 30, 34, 210, 491_410, 2 * 1009, 3 * 5 * 61, 9_699_690]:
        fact = factorize(n, table)
        pr = gap_profile(fact)
        facs = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in fact.factors)
        l3 = math.log(math.log(math.log(n))) if n >= 16 else float("nan")
        if pr.gap is None:
            print(f"  {n:>10} {facs:>24} {'-':>9} {'-':>9} {l3:>8.3f}")
        else:
            print(f"  {n:>10} {facs:>24} {pr.ratio:>9.4f} {pr.gap:>9.4f} {l3:>8.3f}")
    print()
    print("  gap(n) is undefined for prime powers (a max over no pairs),")
    print("  and it only depends on the distinct primes, not exponents.")


def show_distribution(table, upper):
    print()
    print("=" * 72)
    print(f"  distribution of gap(n) - ln ln ln n over [16, {upper})")
    print("=" * 72)
    s = scan_range(16, upper, [0.5, 1.0, 2.0], table)
    print(f"  scanned {s.total}, eligible (two or more prime factors): {s.eligible}")
    print(f"  mean of t(n) {s.mean_t:.4f}, variance {s.var_t:.4f} (at bin midpoints)")
    ks, u = s.ks
    print(f"  largest CDF gap to Gumbel exp(-e^-u): {ks:.4f} at u = {u:+.2f}")
    print()

    # coarse text histogram: merge the 0.05-wide bins into 0.25 blocks
    hist = s.hist[1:-1]
    block = 5
    lo = -10.0
    merged = [int(hist[i : i + block].sum()) for i in range(0, 400, block)]
    peak = max(merged)
    print("  center      count")
    for i, cnt in enumerate(merged):
        if cnt == 0:
            continue
        mid = lo + (i + 0.5) * 0.05 * block
        bar = "#" * max(1, int(40 * cnt / peak))
        print(f"  {mid:+6.2f} {cnt:>10} {bar}")
    print()
    print("  exceedance counts, ratio(n) > c * ln ln n:")
    for c in (0.5, 1.0, 2.0):
        print(f"    c = {c}: {s.exceed[c]:>8}  ({s.exceed[c] / s.eligible:.4f} of eligible)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=int, default=1_000_000)
    args = ap.parse_args()

    table = build_prime_table(max(10_000, math.isqrt(args.max - 1) + 1))
    show_profiles(table)
    show_distribution(table, args.max)
