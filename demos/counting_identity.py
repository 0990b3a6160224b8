#!/usr/bin/env python3
"""The exact counting identity, worked in full at x = 30, c = 1.

N(x) counts integers n <= x none of whose small prime divisors is
"isolated" (followed by a gap wider than an E-th power, E = c ln ln x).
The same number falls out of an alternating sum over the wide squarefree
integers, and truncating that sum early brackets N(x) from above and
below. Everything here is an exact integer, so the identity either holds
or it does not.

Run: python demos/counting_identity.py [--x 30] [--c 1.0]
"""

import argparse
import math

from factorgaps import (
    build_prime_table,
    inclusion_exclusion,
    make_params,
    wide_squarefree_set,
)


def main(x, c):
    pars = make_params(x, c)
    table = build_prime_table(max(x, 100))
    print("=" * 72)
    print(f"  x = {x}, c = {c}")
    print(f"  gap exponent E = c ln ln x = {pars.gap_exp:.6f}")
    print(f"  small-prime cutoff x**(1/E) = {pars.small_prime_bound:.4f}")
    print("=" * 72)

    members = wide_squarefree_set(pars, table)
    print(f"\n  the wide squarefree set ({len(members)} members):")
    k_max = members[-1].k
    for k in range(k_max + 1):
        ms = [w.m for w in members if w.k == k]
        shown = ", ".join(str(m) for m in ms[:14]) + (", ..." if len(ms) > 14 else "")
        print(f"    omega = {k}: {len(ms):>4} members  {{{shown}}}")

    if x <= 100:
        print("\n  windows above each member's primes (base, upper end):")
        for w in members:
            if w.k == 0:
                continue
            ivals = ", ".join(
                f"({p}, {math.exp(pars.gap_exp * math.log(p)):.3f}]" for p in w.primes
            )
            print(f"    m = {w.m:>4}: {ivals}")

    bd = inclusion_exclusion(pars, table)
    print("\n  per-layer inner counts:")
    print(f"    {'k':>3} {'members':>8} {'N_k':>8}")
    for layer in bd.per_k:
        print(f"    {layer.k:>3} {layer.m_count:>8} {layer.count:>8}")

    print("\n  truncated alternating sums (upper bound at even depth,")
    print("  lower bound at odd depth):")
    for k, partial in bd.bonferroni:
        rel = "=" if partial == bd.n_direct else (">=" if k % 2 == 0 else "<=")
        print(f"    depth {k}: {partial:>8}  {rel} N = {bd.n_direct}")

    print(f"\n  N by direct test        = {bd.n_direct}")
    print(f"  N by alternating sum    = {bd.n_inclusion_exclusion}")
    print(f"  identity                : {'EXACT' if bd.n_direct == bd.n_inclusion_exclusion else 'BROKEN'}")
    print(f"\n  gap-form count          = {bd.n_direct_gapform}")
    print(f"  smooth gap-form overlap = {bd.smooth_gap_count}")
    print("  (the gap-form predicate also admits n >= 2 built purely from")
    print("   small primes; the direct count excludes them, and the split")
    print("   is exact: direct + overlap = gap-form)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--x", type=int, default=30)
    ap.add_argument("--c", type=float, default=1.0)
    args = ap.parse_args()
    main(args.x, args.c)
