"""Exact counting machinery behind the gap-density law.

Fix a bound x and a scale c, and write E = c * ln ln x. A prime divisor
p of n is *isolated* in n when no other prime factor of n lies in the
window (p, p**E]. The central count is

    N(x) = #{ n <= x : no small prime divisor of n is isolated },

where "small" means p <= x**(1/E). The same count decomposes by
inclusion-exclusion over the *wide squarefree* integers m (squarefree,
all prime factors small, consecutive prime factors separated by more
than an E-th power):

    N(x) = sum over wide squarefree m of (-1)^omega(m) * C(m),
    C(m)  = #{ n <= x : every prime of m is isolated in n },

and truncating the sum at even (odd) omega gives an upper (lower)
bound. Everything here is computed exactly, as integer counts, with the
window-boundary comparisons of :mod:`factorgaps.boundary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import boundary
from .gaps import _sieve_segment, _sieving_primes
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    Factorization,
    InsufficientTableError,
    PrimeTable,
    factorize,
    primes_in_power_interval,
)


@dataclass(frozen=True)
class CountParams:
    """Derived parameters of one counting run.

    gap_exp is E = c * ln ln x; small_prime_bound is min(x**(1/E), x).
    mode records that counting always uses the fixed per-range exponent,
    unlike the per-n thresholds of the scan statistics.
    """

    x: int
    c: float
    gap_exp: float
    small_prime_bound: float
    mode: str = "per-range"


def make_params(x: int, c: float) -> CountParams:
    if x < 16:
        raise ValueError(f"x must be >= 16, got {x}")
    if c <= 0:
        raise ValueError(f"c must be > 0, got {c}")
    return CountParams(
        x=int(x),
        c=float(c),
        gap_exp=boundary.gap_exponent(x, c),
        small_prime_bound=boundary.small_prime_bound(x, c),
    )


def is_isolated(fact: Factorization, p: int, pars: CountParams) -> bool:
    """True iff the prime p divides n and no prime factor of n lies in
    the window (p, p**E]. The largest prime factor is always isolated."""
    if fact.n % p != 0:
        return False
    for q in fact.primes:
        if q > p and boundary.le_power(q, p, pars.x, pars.c):
            return False
    return True


def all_isolated(fact: Factorization, primes: Iterable[int], pars: CountParams) -> bool:
    """True iff every prime of ``primes`` is isolated in n (vacuously
    true for an empty collection, i.e. m = 1)."""
    return all(is_isolated(fact, p, pars) for p in primes)


def is_gap_form(fact: Factorization, pars: CountParams) -> bool:
    """True iff consecutive distinct prime factors never jump by more
    than an E-th power (vacuously true for omega <= 1)."""
    primes = fact.primes
    return all(
        boundary.le_power(primes[j + 1], primes[j], pars.x, pars.c)
        for j in range(len(primes) - 1)
    )


@dataclass(frozen=True)
class DirectCounts:
    """N(x) evaluated from the definition, next to its gap-form variant.

    n is counted iff it is gap-form and not smooth (n >= 2 with every
    prime factor small). A small prime p of n is isolated iff it is the
    largest or the next prime factor exceeds p**E; a non-small p can
    never be followed by a factor q > p**E, since p > y gives
    p**E > y**E = x >= q. Hence n_direct = n_direct_gapform -
    smooth_gap_count, the number of gap-form n that are smooth.
    """

    n_direct: int
    n_direct_gapform: int
    smooth_gap_count: int


def direct_counts(pars: CountParams, table: PrimeTable) -> DirectCounts:
    """Count gap-form and smooth gap-form n <= x with the segmented
    sieve of the scan kernel; N(x) is their difference.

    n is gap-form iff omega <= 1 or its largest log ratio is at most E.
    Ratios within TIE_EPS of E (every eligible n under
    :func:`boundary.force_extended`) are re-decided exactly from the
    factorization.
    """
    e = pars.gap_exp
    yprimes = _small_primes(pars, table)
    y = yprimes[-1] if yprimes else 1
    primes, logs = _sieving_primes(table, pars.x + 1)
    tie_eps = math.inf if boundary._FORCE_EXTENDED else boundary.TIE_EPS
    n_gapform = n_smooth = 0
    for lo in range(1, pars.x + 1, DEFAULT_SEGMENT_SIZE):
        hi = min(lo + DEFAULT_SEGMENT_SIZE, pars.x + 1)
        rem, omega, last_log, max_ratio = _sieve_segment(lo, hi, primes, logs)
        eligible = omega >= 2
        gapform = ~eligible | (max_ratio <= e)
        for j in np.nonzero(eligible & (np.abs(max_ratio - e) < tie_eps))[0]:
            gapform[j] = is_gap_form(factorize(lo + int(j), table), pars)
        # The largest prime factor is rem if rem > 1, else the last sieved
        # prime (n = 1 has neither: rem = 1, last_log = inf). Both sides of
        # the log test are math.log of a prime, and logs of distinct primes
        # differ by far more than an ulp, so it holds iff that prime <= y.
        smooth = np.where(rem > 1, rem <= y, last_log <= math.log(y))
        n_gapform += int(np.count_nonzero(gapform))
        n_smooth += int(np.count_nonzero(gapform & smooth))

    return DirectCounts(
        n_direct=n_gapform - n_smooth,
        n_direct_gapform=n_gapform,
        smooth_gap_count=n_smooth,
    )


@dataclass(frozen=True)
class WideSquarefree:
    """A squarefree integer whose prime factors are all small and
    pairwise separated by more than an E-th power."""

    m: int
    primes: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.primes)


def _small_primes(pars: CountParams, table: PrimeTable) -> list[int]:
    """All primes at or below the small-prime cutoff, tie-exact."""
    if table.limit < pars.small_prime_bound:
        raise InsufficientTableError(
            f"table limit {table.limit} below small-prime cutoff "
            f"{pars.small_prime_bound:.6g}"
        )
    upper = boundary.root_search_bound(pars.x, pars.c)
    cand = table.primes[table.primes <= upper]
    return [int(p) for p in cand if boundary.le_root(int(p), pars.x, pars.c)]


def wide_squarefree_set(pars: CountParams, table: PrimeTable) -> list[WideSquarefree]:
    """Enumerate every wide squarefree m <= x, sorted by (omega, m).

    Depth-first extension: a chain ending at prime p may be extended by
    any small prime q with q > p**E and chain product * q <= x. The gap
    condition makes chains terminate after O(log x / log 2**E) steps.
    """
    yprimes = _small_primes(pars, table)
    x, c = pars.x, pars.c
    out = [WideSquarefree(m=1, primes=())]

    def extend(prod: int, chain: tuple[int, ...], start: int):
        last = chain[-1]
        for i in range(start, len(yprimes)):
            q = yprimes[i]
            if prod * q > x:
                break
            if boundary.le_power(q, last, x, c):
                continue  # inside the window above the chain's last prime
            out.append(WideSquarefree(m=prod * q, primes=chain + (q,)))
            extend(prod * q, chain + (q,), i + 1)

    for i, p in enumerate(yprimes):
        if p > x:
            break
        out.append(WideSquarefree(m=p, primes=(p,)))
        extend(p, (p,), i + 1)

    out.sort(key=lambda w: (w.k, w.m))
    return out


@dataclass(frozen=True)
class WindowSet:
    """The disjoint windows (p, p**E] above the primes of a wide
    squarefree integer.

    The coprimality condition of the inner counts only ever asks whether
    a prime lies in one of these intervals, so the astronomically large
    product of all window primes is never formed.
    """

    x: int
    c: float
    bases: tuple[int, ...]

    @property
    def intervals(self) -> tuple[tuple[int, float], ...]:
        """(base, approximate upper end) pairs, for reporting only."""
        e = boundary.gap_exponent(self.x, self.c)
        return tuple((p, math.exp(e * math.log(p))) for p in self.bases)

    def is_disjoint(self) -> bool:
        return all(
            boundary.gt_power(self.bases[i + 1], self.bases[i], self.x, self.c)
            for i in range(len(self.bases) - 1)
        )

    def window_primes(self, table: PrimeTable, cap: Optional[int] = None) -> np.ndarray:
        """All primes in any window, ascending (optionally capped)."""
        parts = [
            primes_in_power_interval(p, self.x, self.c, table, cap=cap)
            for p in self.bases
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def coprime_share(self, table: PrimeTable) -> float:
        """Product of (1 - 1/q) over every window prime q."""
        qs = self.window_primes(table)
        if len(qs) == 0:
            return 1.0
        return float(np.prod(1.0 - 1.0 / qs.astype(np.float64)))


def window_set(m: WideSquarefree, pars: CountParams) -> WindowSet:
    return WindowSet(x=pars.x, c=pars.c, bases=m.primes)


def count_isolated_set(m: WideSquarefree, pars: CountParams, table: PrimeTable) -> int:
    """C(m) = #{ n <= x : every prime of m is isolated in n }.

    Such n are exactly m * v with v <= x/m and no prime factor of v in
    m's windows (v may share primes with m itself; only the windows
    exclude), so C(m) is x/m minus the v marked as multiples of some
    window prime.
    """
    limit = pars.x // m.m
    marked = np.zeros(limit + 1, dtype=bool)
    for q in window_set(m, pars).window_primes(table, cap=limit):
        marked[int(q) :: int(q)] = True
    return int(limit - np.count_nonzero(marked[1:]))


@dataclass(frozen=True)
class LayerCount:
    """One inclusion-exclusion layer: all wide squarefree m with
    omega(m) = k, their number, and the summed inner counts."""

    k: int
    m_count: int
    count: int


@dataclass(frozen=True)
class CountBreakdown:
    """Direct count, per-layer counts, truncation bounds, and the
    alternating total, for one (x, c)."""

    params: CountParams
    n_direct: int
    n_direct_gapform: int
    smooth_gap_count: int
    per_k: tuple[LayerCount, ...]
    bonferroni: tuple[tuple[int, int], ...]  # (truncation K, signed partial)
    n_inclusion_exclusion: int


def inclusion_exclusion(pars: CountParams, table: PrimeTable) -> CountBreakdown:
    """Evaluate the full decomposition and its truncations.

    The alternating sum over all layers must equal the direct count
    exactly; Bonferroni partials bound it from above at even truncation
    depth and from below at odd depth.
    """
    members = wide_squarefree_set(pars, table)
    k_max = members[-1].k if members else 0
    layer_m = [0] * (k_max + 1)
    layer_n = [0] * (k_max + 1)
    for m in members:
        layer_m[m.k] += 1
        layer_n[m.k] += count_isolated_set(m, pars, table)

    per_k = tuple(
        LayerCount(k=k, m_count=layer_m[k], count=layer_n[k])
        for k in range(k_max + 1)
    )
    partials = []
    acc = 0
    for k in range(k_max + 1):
        acc += layer_n[k] if k % 2 == 0 else -layer_n[k]
        partials.append((k, acc))

    direct = direct_counts(pars, table)
    return CountBreakdown(
        params=pars,
        n_direct=direct.n_direct,
        n_direct_gapform=direct.n_direct_gapform,
        smooth_gap_count=direct.smooth_gap_count,
        per_k=per_k,
        bonferroni=tuple(partials),
        n_inclusion_exclusion=acc,
    )


def window_coprime_density(
    m: WideSquarefree, pars: CountParams, table: PrimeTable
) -> tuple[float, float]:
    """The exact share of integers coprime to m's window primes, next to
    its first-order prediction E**(-omega(m)).

    The product over windows behaves like a ratio of log weights, one
    factor 1/E per window; the deviation shrinks only like 1/log p, so
    callers should treat the prediction as a trend, not a tolerance.
    """
    ws = window_set(m, pars)
    return ws.coprime_share(table), pars.gap_exp ** (-m.k)


def tuple_reciprocal_sum(
    pars: CountParams,
    k: int,
    table: PrimeTable,
    constrain_product: bool = True,
) -> float:
    """Sum of 1/(p_1 ... p_k) over ascending wide chains of small primes.

    Chains satisfy p_{j+1} > p_j**E with every p_j small;
    ``constrain_product`` additionally imposes p_1 ... p_k <= x, which
    matches the wide squarefree set. k = 0 gives the empty product, 1.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 1.0
    yprimes = _small_primes(pars, table)
    x, c = pars.x, pars.c
    terms: list[float] = []

    def extend(prod: int, last: int, depth: int, start: int):
        for i in range(start, len(yprimes)):
            q = yprimes[i]
            if constrain_product and prod * q > x:
                break
            if boundary.le_power(q, last, x, c):
                continue
            if depth + 1 == k:
                terms.append(1.0 / (prod * q))
            else:
                extend(prod * q, q, depth + 1, i + 1)

    for i, p in enumerate(yprimes):
        if constrain_product and p > x:
            break
        if k == 1:
            terms.append(1.0 / p)
        else:
            extend(p, p, 1, i + 1)

    return math.fsum(terms)
