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
window-boundary comparisons of :mod:`factorgaps.boundary`. The results,
down to each member of the wide set, are immutable NamedTuples.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import defaultdict
from itertools import tee
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import boundary
from .gaps import DEFAULT_SEGMENT_SIZE, _walk
from .sieve import (
    Factorization,
    InsufficientTableError,
    PrimeTable,
    factorize,
    primes_in_power_interval,
)

class CountParams(NamedTuple):
    """Derived parameters of one counting run.

    gap_exp is E = c * ln ln x; small_prime_bound is min(x**(1/E), x).
    """

    x: int
    c: float
    gap_exp: float
    small_prime_bound: float


def make_params(x: int, c: float) -> CountParams:
    if x < 16:
        raise ValueError(f"x must be >= 16, got {x}")
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and > 0, got {c}")
    return CountParams(
        x=int(x),
        c=float(c),
        gap_exp=boundary.gap_exponent(x, c),
        small_prime_bound=boundary.small_prime_bound(x, c),
    )


def is_gap_form(fact: Factorization, pars: CountParams) -> bool:
    """True iff consecutive distinct prime factors never jump by more
    than an E-th power (vacuously true for omega <= 1)."""
    primes = fact.primes
    return all(
        boundary.le_power(primes[j + 1], primes[j], pars.x, pars.c)
        for j in range(len(primes) - 1)
    )


class DirectCounts(NamedTuple):
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
    """Count gap-form and smooth gap-form n <= x on the scan kernel's
    segment walk; N(x) is their difference.

    n is gap-form iff its largest log ratio (0 if omega <= 1) is <= E,
    decided by :func:`boundary.le_banded`, which re-decides ties from the
    factorization.
    """
    e = pars.gap_exp
    yprimes = _small_primes(pars, table)
    y = yprimes[-1] if yprimes else 1
    n_gapform = n_smooth = 0
    for ws, start, _, cof, max_ratio, last_log in _walk(
        1, pars.x + 1, table, DEFAULT_SEGMENT_SIZE
    ):
        gapform = boundary.le_banded(
            max_ratio, e, lambda j: is_gap_form(factorize(start + j, table), pars)
        )
        smooth, scratch = ws.masks[:, : max_ratio.size]
        # Smooth: cof <= y and (cof > 1 or last_log <= log y), as the
        # largest prime is cof if cof > 1, else the last sieved one (n = 1
        # has neither: cof = 1, last_log = inf). cof is an exact integer,
        # and logs of distinct primes differ by far more than an ulp: both
        # tests are exact.
        np.less_equal(last_log, math.log(y), out=smooth)
        smooth |= np.greater(cof, 1, out=scratch)
        smooth &= np.less_equal(cof, y, out=scratch)
        smooth &= gapform
        n_gapform += int(np.count_nonzero(gapform))
        n_smooth += int(np.count_nonzero(smooth))

    return DirectCounts(
        n_direct=n_gapform - n_smooth,
        n_direct_gapform=n_gapform,
        smooth_gap_count=n_smooth,
    )


class WideSquarefree(NamedTuple):
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
    cand = table.primes[table.primes <= boundary.root_search_bound(pars.x, pars.c)]
    keep = boundary.le_banded(
        pars.gap_exp * np.log(cand.astype(np.float64)),
        math.log(pars.x),
        lambda i: boundary.le_root(int(cand[i]), pars.x, pars.c),
    )
    return cand[keep].tolist()


def wide_members(pars: CountParams, table: PrimeTable) -> Iterator[WideSquarefree]:
    """Walk every wide squarefree m <= x depth-first: each chain before its
    extensions, and those by ascending prime, so lexicographic by primes.

    A chain ending at p = yprimes[i] may be extended by any small prime
    q > p**E, those from ends[i] on, just past p's window, with chain
    product * q <= x; no q qualifies once p * p >= x. The gap condition
    makes chains terminate after O(log x / log 2**E) steps. Only the chains
    still to extend are held.
    """
    yprimes = _small_primes(pars, table)
    x = pars.x
    ends = [
        i + 1 + len(primes_in_power_interval(p, x, pars.c, table, cap=yprimes[-1]))
        if p * p < x else len(yprimes)
        for i, p in enumerate(yprimes)
    ]
    stack = [(1, (), 0)]  # chains to extend: (product, primes, next index)
    while stack:
        prod, chain, start = stack.pop()
        yield WideSquarefree(m=prod, primes=chain)
        for i in range(bisect_right(yprimes, x // prod, start) - 1, start - 1, -1):
            q = yprimes[i]
            stack.append((prod * q, chain + (q,), ends[i]))


def wide_squarefree_set(pars: CountParams, table: PrimeTable) -> list[WideSquarefree]:
    """Every wide squarefree m <= x, sorted by (omega, m): :func:`wide_members`, held."""
    return sorted(wide_members(pars, table), key=lambda w: (w.k, w.m))


def _unmarked(qs: np.ndarray, limit: int) -> int:
    """#{ 1 <= v <= limit : no q in qs divides v }, for primes q <= limit:
    strided assignment marks the q with 32 * q <= limit, one index array
    the rest (fewer than 32 multiples each)."""
    marked = np.zeros(limit + 1, dtype=bool)
    strided = 32 * qs <= limit
    for q in qs[strided].tolist():
        marked[q::q] = True
    big = qs[~strided]
    reps = limit // big
    mult = np.arange(1, int(reps.sum()) + 1) - np.repeat(np.cumsum(reps) - reps, reps)
    marked[np.repeat(big, reps) * mult] = True
    return int(limit - np.count_nonzero(marked[1:]))


def inner_counts(
    members: Iterable[WideSquarefree], pars: CountParams, table: PrimeTable
) -> Iterator[int]:
    """C(m) = #{ n <= x : every prime of m is isolated in n }, per member, lazily.

    Such n are exactly m * v with v <= x/m and no prime factor of v in
    m's windows (v may share primes with m itself; only the windows
    exclude), so C(m) is x/m minus the v marked as multiples of some
    window prime. Each base prime's window is found once, capped at
    x // p, and cut at x // m per member; C(m) = x // m when no window
    prime is that small.
    """
    x = pars.x
    cache: dict[int, np.ndarray] = {}  # base prime -> its window up to x // p
    for m in members:
        limit = x // m.m
        qs = []
        for p in m.primes:
            if p not in cache:
                cache[p] = primes_in_power_interval(p, x, pars.c, table, cap=x // p)
            win = cache[p]
            if len(win) and win[0] <= limit:
                qs.append(win[: np.searchsorted(win, limit, side="right")])
        yield _unmarked(np.concatenate(qs), limit) if qs else limit


def count_isolated_set(m: WideSquarefree, pars: CountParams, table: PrimeTable) -> int:
    """C(m) for one member; see :func:`inner_counts`."""
    return next(inner_counts([m], pars, table))


class LayerCount(NamedTuple):
    """One inclusion-exclusion layer: all wide squarefree m with omega(m)
    = k, their number, the summed inner counts, and fsum of 1/m (S_k)."""

    k: int
    m_count: int
    count: int
    recip_sum: float


class CountBreakdown(NamedTuple):
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
    walk, members = tee(wide_members(pars, table))  # zip keeps them in step
    counts: dict[int, int] = defaultdict(int)  # omega -> summed C(m)
    recips: dict[int, array] = defaultdict(lambda: array("d"))  # omega -> each 1/m
    for w, count in zip(walk, inner_counts(members, pars, table)):
        counts[w.k] += count
        recips[w.k].append(1.0 / w.m)
    per_k, partials, acc = [], [], 0
    for k in range(len(counts)):  # a chain's prefixes are chains: omega runs 0..K
        per_k.append(LayerCount(
            k=k, m_count=len(recips[k]), count=counts[k], recip_sum=math.fsum(recips[k])
        ))
        acc += counts[k] if k % 2 == 0 else -counts[k]
        partials.append((k, acc))

    direct = direct_counts(pars, table)
    return CountBreakdown(
        params=pars,
        n_direct=direct.n_direct,
        n_direct_gapform=direct.n_direct_gapform,
        smooth_gap_count=direct.smooth_gap_count,
        per_k=tuple(per_k),
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
    parts = [primes_in_power_interval(p, pars.x, pars.c, table) for p in m.primes]
    qs = np.concatenate([np.empty(0, dtype=np.int64), *parts])
    return float(np.prod(1.0 - 1.0 / qs.astype(np.float64))), pars.gap_exp ** (-m.k)


def tuple_reciprocal_sum(pars: CountParams, k: int, table: PrimeTable) -> float:
    """Sum of 1/(p_1 ... p_k) over ascending wide chains of small primes
    with p_1 ... p_k <= x, i.e. over the wide squarefree m with omega(m)
    = k (S_k of that layer). k = 0 gives the empty product, 1.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return math.fsum(1.0 / w.m for w in wide_members(pars, table) if w.k == k)
