"""Correctness checks for the benchmark's CLI outputs.

Each ``check_*`` function takes the text a ``factorgaps`` command printed
and returns a list of failure messages, empty when the output is right.
Every check compares against a computation made apart from the fast
paths (this file's own sieve and enumerations, ``factorgaps.oracle``, a
per-range scan) or against a property of the method (the inclusion-
exclusion identity, Bonferroni bracketing, monotonicity in c), never
against a stored copy of an earlier output.

Threshold and window comparisons made here are decided in mpmath at
``DPS`` significant digits, so they do not share the program's float
fast path.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import isqrt

import numpy as np
from mpmath import mp

DPS = 40
SIEVE_BLOCK = 1 << 22


# ----------------------------------------------------------------------
# reference computations


def base_primes(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(flags)]


def count_prime_powers(lo: int, hi: int) -> int:
    """Number of p**k (p prime, k >= 1) in [lo, hi), by a segmented sieve.

    These are exactly the n >= 2 with one distinct prime factor, so
    ``hi - lo`` minus this count is the number of n with at least two.
    """
    primes = base_primes(isqrt(hi - 1))
    count = 0
    for a in range(lo, hi, SIEVE_BLOCK):
        b = min(a + SIEVE_BLOCK, hi)
        flags = np.ones(b - a, dtype=bool)
        for v in range(a, min(b, 2)):
            flags[v - a] = False  # 0 and 1 are not prime
        for p in primes:
            start = max(p * p, -(-a // p) * p)
            if start >= b:
                continue
            flags[start - a :: p] = False
        count += int(np.count_nonzero(flags))
    for p in primes:
        q = p * p
        while q < hi:
            if q >= lo:
                count += 1
            q *= p
    return count


class Cutoffs:
    """The counting cutoffs for one (x, c), decided in mpmath.

    ``close(q, p)`` is q <= p**E and ``small(p)`` is p <= x**(1/E), with
    E = c * ln ln x.
    """

    def __init__(self, x: int, c: float):
        self.x = x
        self._close: dict[tuple[int, int], bool] = {}
        with mp.workdps(DPS):
            self._e = mp.mpf(c) * mp.log(mp.log(x))
            self._lnx = mp.log(x)

    def close(self, q: int, p: int) -> bool:
        v = self._close.get((q, p))
        if v is None:
            with mp.workdps(DPS):
                v = self._close[(q, p)] = mp.log(q) <= self._e * mp.log(p)
        return v

    def small(self, p: int) -> bool:
        if p > self.x:
            return False
        with mp.workdps(DPS):
            return self._e * mp.log(p) <= self._lnx

    def small_primes(self) -> list[int]:
        """Every small prime, ascending."""
        y = math.exp(math.log(self.x) / max(float(self._e), 1.0)) + 2
        return [p for p in base_primes(min(int(y), self.x)) if self.small(p)]


def wide_set(cut: Cutoffs) -> list[tuple[int, ...]]:
    """Prime tuples of every wide squarefree m <= x (m = 1 included):
    small primes, each next one beyond the E-th power of the last."""
    primes = cut.small_primes()
    out = [()]

    def extend(prod, chain, start):
        for i in range(start, len(primes)):
            q = primes[i]
            if prod * q > cut.x:
                break
            if chain and cut.close(q, chain[-1]):
                continue
            out.append(chain + (q,))
            extend(prod * q, chain + (q,), i + 1)

    extend(1, (), 0)
    return out


def smooth_gap_count(cut: Cutoffs) -> int:
    """Number of n in [2, x] whose prime factors are all small and whose
    consecutive distinct prime factors are all close."""
    primes = cut.small_primes()
    count = 0

    def extend(prod, last, start):
        nonlocal count
        for i in range(start, len(primes)):
            q = primes[i]
            if prod * q > cut.x:
                break
            if last and not cut.close(q, last):
                continue
            v = prod * q
            while v <= cut.x:
                count += 1
                extend(v, q, i + 1)
                v *= q

    extend(1, 0, 0)
    return count


def distinct_primes(n: int) -> list[int]:
    """Distinct prime factors of a small n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def gapform_below_16(cut: Cutoffs) -> int:
    """Gap-form count of 1 <= n < 16, the integers a scan cannot cover."""
    total = 0
    for n in range(1, 16):
        ps = distinct_primes(n)
        if all(cut.close(ps[j + 1], ps[j]) for j in range(len(ps) - 1)):
            total += 1
    return total


def oracle_window(lo: int, hi: int, thresholds) -> tuple[int, dict[float, int]]:
    """Eligible and exceedance counts of [lo, hi) in per-n mode, built
    from ``factorgaps.oracle`` factorizations with every threshold
    comparison ln q > c * ln ln n * ln p decided in mpmath."""
    from factorgaps import oracle

    eligible = 0
    exceed = {float(c): 0 for c in thresholds}
    with mp.workdps(DPS):
        logs: dict[int, object] = {}
        for n in range(lo, hi):
            primes = oracle.naive_factorize(n).primes
            if len(primes) < 2:
                continue
            eligible += 1
            for p in primes:
                if p not in logs:
                    logs[p] = mp.log(p)
            lnln = mp.log(mp.log(n))
            for c in exceed:
                bound = mp.mpf(c) * lnln
                if any(
                    logs[primes[j + 1]] > bound * logs[primes[j]]
                    for j in range(len(primes) - 1)
                ):
                    exceed[c] += 1
    return eligible, exceed


# ----------------------------------------------------------------------
# output checks


def _parse(text: str, what: str):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{what}: output is not JSON ({exc})"]


def check_count(text: str, x: int, c: float, naive: bool = False) -> list[str]:
    """Check a ``count --x x --c c`` output.

    With ``naive`` (small x only) the direct count, the wide set and the
    per-layer inner counts are also compared with ``factorgaps.oracle``.
    """
    from factorgaps import build_prime_table, gaps

    out, bad = _parse(text, "count")
    if out is None:
        return bad
    try:
        params = out["params"]
        n_direct = out["N_direct"]
        gapform = out["N_direct_gapform"]
        smooth = out["smooth_gap_count"]
        per_k = out["per_k"]
        bonf = [tuple(t) for t in out["bonferroni"]]
        n_ie = out["N_inclusion_exclusion"]
        identity = out["identity_check"]
    except (KeyError, TypeError) as exc:
        return [f"count: missing field {exc}"]

    if (params.get("x"), params.get("c")) != (x, c):
        bad.append(f"params {params} do not match x={x} c={c}")
    if identity != "PASS" or n_direct != n_ie:
        bad.append(f"identity {identity}: N_direct={n_direct} N_IE={n_ie}")

    # The layers, the Bonferroni partials and the alternating total
    # must agree with each other.
    ks = [layer.get("k") for layer in per_k]
    if ks != list(range(len(per_k))) or [k for k, _ in bonf] != ks:
        bad.append(f"layer indices {ks} / partial indices {[k for k, _ in bonf]}")
    acc = 0
    for layer, (k, part) in zip(per_k, bonf):
        acc += layer["N_k"] if k % 2 == 0 else -layer["N_k"]
        if part != acc:
            bad.append(f"partial K={k} is {part}, layers sum to {acc}")
        if (k % 2 == 0 and part < n_direct) or (k % 2 == 1 and part > n_direct):
            bad.append(f"partial K={k} = {part} does not bracket N_direct={n_direct}")
    if not bonf or bonf[-1][1] != n_direct or acc != n_ie:
        bad.append(f"last partial {bonf[-1:]} vs N_direct={n_direct} N_IE={n_ie}")
    if per_k and per_k[0]["N_k"] != x:
        bad.append(f"N_0 = {per_k[0]['N_k']}, want x = {x}")

    # Wide set and tuple sums against this file's own enumeration.
    cut = Cutoffs(x, c)
    wide = wide_set(cut)
    for layer in per_k:
        k = layer["k"]
        members = [t for t in wide if len(t) == k]
        if layer["m_count"] != len(members):
            bad.append(f"m_count k={k} is {layer['m_count']}, want {len(members)}")
        want_s = math.fsum(1.0 / math.prod(t) for t in members)
        if not math.isclose(layer["S_k"], want_s, rel_tol=1e-12):
            bad.append(f"S_k k={k} is {layer['S_k']!r}, want {want_s!r}")
    if len(wide) != sum(layer["m_count"] for layer in per_k):
        bad.append(f"wide set has {len(wide)} members, layers list fewer")

    # Direct count: N_direct + smooth = gapform, smooth by enumeration,
    # gapform from a per-range scan of [16, x].
    if n_direct + smooth != gapform:
        bad.append(f"N_direct {n_direct} + smooth {smooth} != gapform {gapform}")
    want_smooth = smooth_gap_count(cut)
    if smooth != want_smooth:
        bad.append(f"smooth_gap_count {smooth}, enumeration gives {want_smooth}")
    s = gaps.scan_range(
        16, x + 1, (c,), build_prime_table(max(isqrt(x), 2)),
        mode=gaps.MODE_PER_RANGE, range_point=x,
    )
    want_gapform = gapform_below_16(cut) + s.total - s.exceed[float(c)]
    if gapform != want_gapform:
        bad.append(f"N_direct_gapform {gapform}, per-range scan gives {want_gapform}")

    if naive:
        from factorgaps import oracle

        nv = oracle.naive_N(x, c)
        if n_direct != nv:
            bad.append(f"N_direct {n_direct}, oracle.naive_N gives {nv}")
        ref = oracle.naive_wide_squarefree(x, c)
        if [p for _, p in ref] != sorted(wide, key=lambda t: (len(t), math.prod(t))):
            bad.append("wide set differs from oracle.naive_wide_squarefree")
        for layer in per_k:
            want = sum(
                oracle.naive_chi_count(p, x, c) for _, p in ref if len(p) == layer["k"]
            )
            if layer["N_k"] != want:
                bad.append(f"N_k k={layer['k']} is {layer['N_k']}, oracle gives {want}")
    return bad


def check_scan(text: str, lo: int, hi: int, thresholds, prime_powers: int) -> list[str]:
    """Check a per-n ``scan`` JSON summary of [lo, hi).

    ``prime_powers`` is the number of prime powers in [lo, hi), from
    :func:`count_prime_powers`.
    """
    out, bad = _parse(text, "scan")
    if out is None:
        return bad
    try:
        total, eligible, exceed, hist = (
            out["total"], out["eligible"], out["exceed"], out["histogram"]
        )
        mass = hist["underflow"] + sum(hist["counts"]) + hist["overflow"]
    except (KeyError, TypeError) as exc:
        return [f"scan: missing field {exc}"]
    if out.get("range") != [lo, hi] or out.get("mode") != "per-n":
        bad.append(f"range {out.get('range')} mode {out.get('mode')}")
    if total != hi - lo:
        bad.append(f"total {total}, want {hi - lo}")
    if mass != eligible:
        bad.append(f"histogram mass {mass} != eligible {eligible}")
    want_eligible = (hi - lo) - prime_powers
    if eligible != want_eligible:
        bad.append(f"eligible {eligible}, sieve gives {want_eligible}")
    cs = sorted(float(c) for c in thresholds)
    if sorted(float(k) for k in exceed) != cs:
        bad.append(f"exceed keys {list(exceed)}, want {cs}")
        return bad
    counts = [exceed[k] for k in sorted(exceed, key=float)]
    if any(b > a for a, b in zip(counts, counts[1:])) or (counts and counts[0] > eligible):
        bad.append(f"exceed {exceed} not non-increasing in c below eligible {eligible}")
    return bad


def check_scan_window(text: str, lo: int, hi: int, thresholds) -> list[str]:
    """Check a per-n ``scan`` of a small window against the oracle."""
    out, bad = _parse(text, "window scan")
    if out is None:
        return bad
    eligible, exceed = oracle_window(lo, hi, thresholds)
    if out.get("eligible") != eligible:
        bad.append(f"window [{lo}, {hi}) eligible {out.get('eligible')}, oracle {eligible}")
    got = {float(k): v for k, v in out.get("exceed", {}).items()}
    if got != exceed:
        bad.append(f"window [{lo}, {hi}) exceed {got}, oracle {exceed}")
    return bad


def exact_partial_sum(c: float, k_max: int) -> Fraction:
    """Sum over k = 0..k_max of (-1)^k / (c^k k!), in exact rationals."""
    cf = Fraction(c)
    return sum(
        (Fraction((-1) ** k) / (cf**k * math.factorial(k)) for k in range(k_max + 1)),
        Fraction(0),
    )


def check_density(
    text: str, lo: int, hi: int, thresholds, prime_powers: int
) -> list[str]:
    """Check a per-n ``density`` JSON table of [lo, hi)."""
    out, bad = _parse(text, "density")
    if out is None:
        return bad
    try:
        eligible, rows = out["eligible"], out["rows"]
    except (KeyError, TypeError) as exc:
        return [f"density: missing field {exc}"]
    if out.get("range") != [lo, hi] or out.get("mode") != "per-n":
        bad.append(f"range {out.get('range')} mode {out.get('mode')}")
    want_eligible = (hi - lo) - prime_powers
    if eligible != want_eligible:
        bad.append(f"eligible {eligible}, sieve gives {want_eligible}")
    cs = sorted(set(float(c) for c in thresholds))
    if [r.get("c") for r in rows] != cs:
        return bad + [f"rows for c = {[r.get('c') for r in rows]}, want {cs}"]
    for col in ("empirical_per_n", "empirical_per_range"):
        vals = [r[col] for r in rows]
        if any(not 0.0 <= v <= 1.0 for v in vals):
            bad.append(f"{col} {vals} outside [0, 1]")
        if any(b > a for a, b in zip(vals, vals[1:])):
            bad.append(f"{col} {vals} increases with c")
    for r in rows:
        c = r["c"]
        if r["empirical"] != r["empirical_per_n"]:
            bad.append(f"c={c}: empirical {r['empirical']} is not the per-n column")
        theo = -math.expm1(-1.0 / c)
        if abs(r["theoretical"] - theo) > 1e-15:
            bad.append(f"c={c}: theoretical {r['theoretical']!r}, want {theo!r}")
        if r["deviation"] != r["empirical"] - r["theoretical"]:
            bad.append(f"c={c}: deviation {r['deviation']!r} != empirical - theoretical")
        limit = math.exp(-1.0 / c)
        for k, s in enumerate(r["partial_sums"]):
            if (k % 2 == 0 and s < limit - 1e-15) or (k % 2 == 1 and s > limit + 1e-15):
                bad.append(f"c={c}: partial K={k} = {s!r} does not bracket {limit!r}")
            exact = exact_partial_sum(c, k)
            if abs(Fraction(s) - exact) > Fraction(1, 10**12) * max(1, abs(exact)):
                bad.append(f"c={c}: partial K={k} = {s!r}, exact {float(exact)!r}")
        if len(r["partial_sums"]) != 9:
            bad.append(f"c={c}: {len(r['partial_sums'])} partial sums, want 9")
    return bad


def check_same_bytes(one: bytes, other: bytes, what: str) -> list[str]:
    """Stdout must not depend on the worker count."""
    if one == other:
        return []
    i = next(
        (i for i, (a, b) in enumerate(zip(one, other)) if a != b),
        min(len(one), len(other)),
    )
    return [f"{what}: outputs differ from byte {i} ({len(one)} vs {len(other)} bytes)"]
