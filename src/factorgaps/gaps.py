"""The prime-factor gap statistic and its distribution over ranges.

For an integer n with distinct prime factors p_1 < ... < p_w, the gap
statistic is

    gap(n) = ln( max_j  ln p_{j+1} / ln p_j ),

undefined (None) when w <= 1. ``scan_range`` aggregates the statistic
over an integer range into a :class:`ScanSummary` that can be merged
exactly: all accumulators are integers (histogram counts, exceedance
counts, and fixed-point moment sums), so merging summaries over any
partition of a range reproduces the direct scan bit for bit, regardless
of segmentation or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Optional

import numpy as np

from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    Factorization,
    InsufficientTableError,
    PrimeTable,
)

HIST_LO = -10.0
HIST_HI = 10.0
HIST_WIDTH = 0.05
HIST_INV_WIDTH = 20.0  # binning multiplies by this; exact in binary
HIST_BINS = 400  # in-range bins; slots 0 and HIST_BINS+1 are under/overflow

# Moments are accumulated as integer multiples of 1/MOMENT_SCALE so that
# addition is exact and order-independent. gap values stay below ~4 for
# any feasible n, so per-segment sums fit comfortably in int64 as long as
# segments stay below MAX_SEGMENT_SIZE.
MOMENT_SCALE = 1 << 36
MAX_SEGMENT_SIZE = 1 << 22

MODE_PER_N = "per-n"
MODE_PER_RANGE = "per-range"

ELIGIBLE_FLOOR = 16  # smallest n with ln ln n and ln ln ln n safely positive


class EmptySampleError(Exception):
    """A density was requested from a summary with no eligible integers."""


@dataclass(frozen=True)
class GapProfile:
    """Gap statistic of a single integer.

    ``ratio`` is the largest quotient of logs of consecutive distinct
    prime factors, ``gap`` its natural log, and ``argmax_index`` the
    1-based position j of the maximizing pair (p_j, p_{j+1}), smallest j
    on ties. All three are None when omega <= 1.
    """

    n: int
    omega: int
    gap: Optional[float]
    ratio: Optional[float]
    argmax_index: Optional[int]


def gap_profile(fact: Factorization) -> GapProfile:
    """Compute the gap statistic of one factored integer."""
    primes = fact.primes
    w = len(primes)
    if w <= 1:
        return GapProfile(n=fact.n, omega=w, gap=None, ratio=None, argmax_index=None)
    logs = [math.log(p) for p in primes]
    best = 0.0
    best_j = 0
    for j in range(w - 1):
        r = logs[j + 1] / logs[j]
        if r > best:
            best = r
            best_j = j
    return GapProfile(
        n=fact.n,
        omega=w,
        gap=math.log(best),
        ratio=best,
        argmax_index=best_j + 1,
    )


@dataclass(eq=False)
class ScanSummary:
    """Mergeable distribution summary of the gap statistic over a range set.

    ``ranges`` is a sorted tuple of disjoint [a, b) intervals. ``total``
    counts every scanned integer; ``eligible`` those with omega >= 2 (the
    statistic exists). ``hist`` holds counts of gap(n) - ln ln ln n in
    fixed bins (slot 0 underflow, slots 1..400 cover [-10, 10) in steps
    of 0.05, slot 401 overflow). ``exceed`` maps each threshold c to the
    count of eligible n whose ratio exceeds c * ln ln n (mode "per-n") or
    c * ln ln range_point (mode "per-range"). ``sum_gap_fp`` and
    ``sum_gap_sq_fp`` are fixed-point integer sums of gap and gap**2 over
    eligible n, in units of 1/MOMENT_SCALE.
    """

    ranges: tuple[tuple[int, int], ...]
    thresholds: tuple[float, ...]
    mode: str
    range_point: Optional[int]
    total: int
    eligible: int
    hist: np.ndarray
    exceed: dict[float, int]
    sum_gap_fp: int
    sum_gap_sq_fp: int

    @property
    def mean_gap(self) -> float:
        if self.eligible == 0:
            raise EmptySampleError("no eligible integers scanned")
        return self.sum_gap_fp / MOMENT_SCALE / self.eligible

    @property
    def var_gap(self) -> float:
        """Population variance of the gap statistic over eligible n."""
        m = self.mean_gap
        return self.sum_gap_sq_fp / MOMENT_SCALE / self.eligible - m * m

    def config(self) -> tuple:
        return (self.thresholds, self.mode, self.range_point)


def empty_summary(
    thresholds: Iterable[float],
    mode: str = MODE_PER_N,
    range_point: Optional[int] = None,
) -> ScanSummary:
    """The identity element for :func:`merge_summaries`."""
    thr = _normalize_thresholds(thresholds)
    return ScanSummary(
        ranges=(),
        thresholds=thr,
        mode=mode,
        range_point=range_point,
        total=0,
        eligible=0,
        hist=np.zeros(HIST_BINS + 2, dtype=np.int64),
        exceed={c: 0 for c in thr},
        sum_gap_fp=0,
        sum_gap_sq_fp=0,
    )


def _normalize_thresholds(thresholds: Iterable[float]) -> tuple[float, ...]:
    thr = tuple(sorted(set(float(c) for c in thresholds)))
    if any(c <= 0 for c in thr):
        raise ValueError("thresholds must be positive")
    return thr


def _normalize_ranges(ranges) -> tuple[tuple[int, int], ...]:
    rs = sorted(ranges)
    out: list[tuple[int, int]] = []
    for a, b in rs:
        if out and a < out[-1][1]:
            raise ValueError(f"ranges overlap near {out[-1]} and ({a}, {b})")
        if out and a == out[-1][1]:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


def _sieving_primes(table: PrimeTable, b: int) -> tuple[list[int], list[float]]:
    """The primes up to sqrt(b - 1) and their logs, for sieving below b."""
    root = isqrt(b - 1)
    if table.limit < root:
        raise InsufficientTableError(
            f"table limit {table.limit} < required sqrt bound {root}"
        )
    primes = [int(p) for p in table.primes[table.primes <= root]]
    return primes, [math.log(p) for p in primes]


def _sieve_segment(lo, hi, small_primes, prime_logs):
    """Segmented sieve of [lo, hi) by the primes up to sqrt(hi - 1).

    Returns per-integer arrays: rem, the cofactor left (1 or the largest
    prime factor); omega; last_log, the log of the largest sieved prime
    factor (+inf if none); and max_ratio, the largest ratio of logs of
    consecutive distinct prime factors (0 when omega <= 1). Primes go in
    increasing order, so each integer sees its factors ascending and the
    running maximum needs only the previous factor's log; last_log starts
    at +inf so a first factor's update (lp / inf = 0) is a no-op."""
    seglen = hi - lo
    dtype = np.int32 if hi - 1 <= 2**31 - 1 else np.int64
    rem = np.arange(lo, hi, dtype=dtype)
    omega = np.zeros(seglen, dtype=np.int8)
    last_log = np.full(seglen, np.inf, dtype=np.float64)
    max_ratio = np.zeros(seglen, dtype=np.float64)

    root = isqrt(hi - 1)
    for p, lp in zip(small_primes, prime_logs):
        if p > root:
            break
        start = (-lo) % p
        if start >= seglen:
            continue
        rem[start::p] //= p
        ll = last_log[start::p]
        mr = max_ratio[start::p]
        np.maximum(mr, lp / ll, out=mr)
        ll[...] = lp
        omega[start::p] += 1
        # positions holding p^k are exactly the p^k strides, so higher
        # powers come out without any divisibility scan
        d = p * p
        while d <= hi - 1:
            start_d = (-lo) % d
            if start_d >= seglen:
                break
            rem[start_d::d] //= p
            d *= p

    # Surviving cofactors are prime; rem == 1 contributes log 1 = 0 and
    # untouched slots have last_log = inf, so both drop out of the max.
    np.maximum(max_ratio, np.log(rem) / last_log, out=max_ratio)
    omega[rem > 1] += 1
    return rem, omega, last_log, max_ratio


def _scan_segment(lo, hi, thresholds, mode, range_point, small_primes, prime_logs):
    """Vectorized scan of [lo, hi): per-integer gap stats from
    :func:`_sieve_segment`, reduced to one :class:`ScanSummary`."""
    _, omega, _, max_ratio = _sieve_segment(lo, hi, small_primes, prime_logs)

    eligible_mask = omega >= 2
    eligible = int(np.count_nonzero(eligible_mask))
    hist = np.zeros(HIST_BINS + 2, dtype=np.int64)
    exceed = {c: 0 for c in thresholds}
    sum_fp = 0
    sum_sq_fp = 0
    if eligible:
        ratio = max_ratio[eligible_mask]
        gap = np.log(ratio)
        n_el = (np.nonzero(eligible_mask)[0] + lo).astype(np.float64)
        lnln = np.log(np.log(n_el))
        centered = gap - np.log(lnln)  # ln ln ln n, reusing ln ln n

        bins = np.floor((centered - HIST_LO) * HIST_INV_WIDTH).astype(np.int64)
        np.clip(bins, -1, HIST_BINS, out=bins)
        hist = np.bincount(bins + 1, minlength=HIST_BINS + 2).astype(np.int64)

        for c in thresholds:
            if mode == MODE_PER_N:
                bound = c * lnln
            else:
                bound = c * math.log(math.log(range_point))
            exceed[c] = int(np.count_nonzero(ratio > bound))

        sum_fp = int(np.rint(gap * MOMENT_SCALE).astype(np.int64).sum())
        sum_sq_fp = int(np.rint(gap * gap * MOMENT_SCALE).astype(np.int64).sum())

    return ScanSummary(
        ranges=((lo, hi),),
        thresholds=thresholds,
        mode=mode,
        range_point=range_point,
        total=hi - lo,
        eligible=eligible,
        hist=hist,
        exceed=exceed,
        sum_gap_fp=sum_fp,
        sum_gap_sq_fp=sum_sq_fp,
    )


def scan_range(
    a: int,
    b: int,
    thresholds: Iterable[float],
    table: PrimeTable,
    mode: str = MODE_PER_N,
    range_point: Optional[int] = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> ScanSummary:
    """Scan [a, b) and summarize the gap statistic distribution.

    Parameters
    ----------
    a, b : int
        Range bounds, 16 <= a < b; the floor keeps ln ln n and
        ln ln ln n defined and positive for every scanned integer.
    thresholds : iterable of float
        Positive scale factors c for the exceedance counters.
    table : PrimeTable
        Must reach sqrt(b - 1).
    mode : str
        "per-n" compares ratio(n) against c * ln ln n; "per-range"
        against the fixed c * ln ln range_point.
    range_point : int, optional
        Reference point for "per-range"; defaults to b - 1, the largest
        integer scanned.
    segment_size : int
        Sieve segment length; results are independent of it.

    The result is deterministic and identical for any segmentation or
    parallel split of [a, b), because every accumulator is an integer.
    """
    if not ELIGIBLE_FLOOR <= a < b:
        raise ValueError(f"need {ELIGIBLE_FLOOR} <= a < b, got [{a}, {b})")
    if mode not in (MODE_PER_N, MODE_PER_RANGE):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= segment_size <= MAX_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be in [1, {MAX_SEGMENT_SIZE}]")
    small_primes, prime_logs = _sieving_primes(table, b)
    thr = _normalize_thresholds(thresholds)
    if mode == MODE_PER_RANGE and range_point is None:
        range_point = b - 1
    if mode == MODE_PER_N:
        range_point = None

    total = empty_summary(thr, mode, range_point)
    for lo in range(a, b, segment_size):
        hi = min(lo + segment_size, b)
        total = merge_summaries(
            total,
            _scan_segment(lo, hi, thr, mode, range_point, small_primes, prime_logs),
        )
    return total


def merge_summaries(s1: ScanSummary, s2: ScanSummary) -> ScanSummary:
    """Combine summaries over disjoint ranges; exact and commutative."""
    if s1.config() != s2.config():
        raise ValueError("summaries have different thresholds or mode")
    return ScanSummary(
        ranges=_normalize_ranges(s1.ranges + s2.ranges),
        thresholds=s1.thresholds,
        mode=s1.mode,
        range_point=s1.range_point,
        total=s1.total + s2.total,
        eligible=s1.eligible + s2.eligible,
        hist=s1.hist + s2.hist,
        exceed={c: s1.exceed[c] + s2.exceed[c] for c in s1.thresholds},
        sum_gap_fp=s1.sum_gap_fp + s2.sum_gap_fp,
        sum_gap_sq_fp=s1.sum_gap_sq_fp + s2.sum_gap_sq_fp,
    )


def theoretical_density(c: float) -> float:
    """Limit density 1 - exp(-1/c) of integers whose ratio exceeds c ln ln n."""
    if c <= 0:
        raise ValueError(f"c must be > 0, got {c}")
    return -math.expm1(-1.0 / c)


def partial_alternating_sum(c: float, K: int) -> float:
    """Partial sum over k = 0..K of (-1)^k / (c^k k!).

    Even K overshoots exp(-1/c), odd K undershoots; consecutive partial
    sums bracket the limit.
    """
    if c <= 0:
        raise ValueError(f"c must be > 0, got {c}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    s = 1.0
    term = 1.0
    for k in range(1, K + 1):
        term *= -1.0 / (c * k)
        s += term
    return s


@dataclass(frozen=True)
class DensityReport:
    """Empirical exceedance density against the limiting law for one c."""

    c: float
    x: int
    empirical: float
    theoretical: float
    partial_sums: tuple[float, ...]  # K = 0..8

    @property
    def deviation(self) -> float:
        return self.empirical - self.theoretical


def empirical_density(summary: ScanSummary, c: float) -> DensityReport:
    """Exceedance density of one configured threshold of a summary."""
    c = float(c)
    if c not in summary.exceed:
        raise ValueError(f"threshold {c} not configured in this summary")
    if summary.eligible == 0:
        raise EmptySampleError("no eligible integers in summary")
    x = max(b for _, b in summary.ranges) - 1
    return DensityReport(
        c=c,
        x=x,
        empirical=summary.exceed[c] / summary.eligible,
        theoretical=theoretical_density(c),
        partial_sums=tuple(partial_alternating_sum(c, K) for K in range(9)),
    )
