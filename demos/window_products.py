#!/usr/bin/env python3
"""Window products and tuple sums: the analytic inputs to the count.

Each inclusion-exclusion layer is governed by two quantities. First, the
share of integers with no prime factor in a window (p, p**E], which a
Mertens-style heuristic predicts to be about 1/E. Second, sums of
1/(p_1...p_k) over wide chains of small primes, which grow like a power
of ln ln x, again only asymptotically. This script tabulates both.

Run: python demos/window_products.py [--x 1000000]
"""

import argparse
import math

from factorgaps import (
    build_prime_table,
    make_params,
    tuple_reciprocal_sum,
    wide_squarefree_set,
    window_coprime_density,
)


def window_table(x):
    pars = make_params(x, 1.0)
    table = build_prime_table(x)
    singles = [w for w in wide_squarefree_set(pars, table) if len(w[1]) == 1]
    print("=" * 72)
    print(f"  x = {x}: E = {pars.gap_exp:.5f}, cutoff = {pars.small_prime_bound:.2f}")
    print("=" * 72)
    print("  exact share of integers coprime to the window above p,")
    print("  multiplied by E (the heuristic predicts 1):")
    print(f"  {'p':>6} {'window end':>14} {'E * product':>12} {'4/ln p':>9}")
    shown = [w for w in singles if w[0] >= 50][:: max(1, len(singles) // 14)]
    for member in shown:
        p = member[0]  # a single prime
        prod, _ = window_coprime_density(member, pars, table)
        hi = math.exp(pars.gap_exp * math.log(p))
        print(
            f"  {p:>6} {hi:>14.1f} {prod * pars.gap_exp:>12.5f}"
            f" {4.0 / math.log(p):>9.4f}"
        )
    print()
    print("  the error scale is 1/ln p; the last column is the generous")
    print("  bound the library's verification holds every prime to.")


def tuple_table():
    print()
    print("=" * 72)
    print("  chain sums S_k = sum 1/(p_1...p_k) over wide chains")
    print("=" * 72)
    table = build_prime_table(10_000)
    print(
        f"  {'x':>6} {'S_1':>9} {'S_1/L':>8} {'S_1/L*':>8} {'S_2':>9}"
        f" {'S_2/(L^2/2)':>12} {'S_2/(L*^2/2)':>13}"
    )
    for e in (4, 5, 6, 7):
        x = 10**e
        pars = make_params(x, 1.0)
        s1 = tuple_reciprocal_sum(pars, 1, table)
        s2 = tuple_reciprocal_sum(pars, 2, table)
        big_l = math.log(math.log(x))
        cut_l = math.log(math.log(pars.small_prime_bound))
        print(
            f"  1e{e:<4} {s1:>9.5f} {s1 / big_l:>8.4f} {s1 / cut_l:>8.4f}"
            f" {s2:>9.5f} {s2 / (big_l * big_l / 2):>12.4f}"
            f" {s2 / (cut_l * cut_l / 2):>13.4f}"
        )
    print()
    print("  L = ln ln x, L* = ln ln cutoff. The sums run over primes up to")
    print("  the cutoff, so L* is the finite-x reference: by Mertens,")
    print("  S_1 = L* + 0.2615 + O(1/ln^2 cutoff), and the S_1/L* column")
    print("  descends toward 1. L = L* + ln E has the same asymptotics, but")
    print("  against L the ratios drift away from 1 until x ~ 1e15.")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--x", type=int, default=1_000_000)
    args = ap.parse_args()
    window_table(args.x)
    tuple_table()
