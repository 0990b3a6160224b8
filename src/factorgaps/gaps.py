"""The prime-factor gap statistic and its distribution over ranges.

For an integer n with distinct prime factors p_1 < ... < p_w, the gap
statistic is

    gap(n) = ln( max_j  ln p_{j+1} / ln p_j ),

undefined (None) when w <= 1; :class:`GapProfile`, one integer's statistic,
is an immutable NamedTuple. ``scan_range`` aggregates the statistic over an
integer range [a, b) into a :class:`ScanSummary`. All its accumulators are
integer counts, so the summaries of neighbouring ranges merge exactly: folding
the parts of any partition in order reproduces the direct scan bit for bit,
regardless of segmentation or worker count. A threshold's exceedance density
is ``exceed[c] / eligible``, against the limit :func:`theoretical_density` and
the brackets of :func:`partial_alternating_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from math import isqrt
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .sieve import Factorization, InsufficientTableError, PrimeTable

HIST_LO = -10.0
HIST_WIDTH = 0.05
HIST_INV_WIDTH = 20.0  # binning multiplies by this; exact in binary
HIST_BINS = 400  # in-range bins; slots 0 and HIST_BINS+1 are under/overflow
_EDGES = HIST_LO + np.arange(HIST_BINS + 1) * HIST_WIDTH  # as the CSV prints them
_GUMBEL = np.array([math.exp(-math.exp(-u)) for u in _EDGES])  # libm, not numpy's SIMD exp
_MIDS = HIST_LO + (np.arange(HIST_BINS) + 0.5) * HIST_WIDTH

MAX_SEGMENT_SIZE = 1 << 22  # bounds the workspace: 24 B per integer, 96 MiB
# a 7.3 MiB workspace; 2**17 scans slower, and 2**19 no faster for 5.5 MiB more
# peak RSS: [16, 1e8) took 2.30 against 2.26 s of CPU and 44.2 against 38.7 MiB
DEFAULT_SEGMENT_SIZE = 1 << 18
# the first powers of the primes above min(PASS_FLOOR, segment length) take one
# vectorized pass; the powers p**k, k >= 2, of every prime take their own steps
PASS_FLOOR = 1 << 14
# integers per sub-block of the tile and the primes up to SIEVE_BLOCK >> 8:
# 1.5 MiB of prod, last_log and max_ratio, which stays in a 2 MiB L2
SIEVE_BLOCK = 1 << 16
POST_BLOCK = 1 << 15  # integers per post-pass block; results do not depend on it
TINY = np.finfo(float).tiny  # the post-pass floors ratio 0 to this: log is -708, not -inf
REDO_EPS = 1e-11  # relative margin of a block's ln ln n bounds, far above np.log's error
REDO_BATCH = 1 << 9  # integers per batch of redone post-pass outcomes

MAX_SCAN_END = 2**53  # the kernel's float64 n and prod are exact below this

MODE_PER_N = "per-n"
MODE_PER_RANGE = "per-range"

ELIGIBLE_FLOOR = 16  # smallest n with ln ln n and ln ln ln n safely positive


class EmptySampleError(Exception):
    """A density or law was requested of a range with no eligible integers."""


class GapProfile(NamedTuple):
    """Gap statistic of a single integer.

    ``ratio`` is the largest quotient of logs of consecutive distinct
    prime factors and ``gap`` its natural log, both None when omega <= 1.
    """

    n: int
    omega: int
    gap: Optional[float]
    ratio: Optional[float]


def gap_profile(fact: Factorization) -> GapProfile:
    """Compute the gap statistic of one factored integer."""
    primes = fact.primes
    if len(primes) <= 1:
        return GapProfile(n=fact.n, omega=len(primes), gap=None, ratio=None)
    logs = [math.log(p) for p in primes]
    best = max(hi / lo for lo, hi in zip(logs, logs[1:]))
    return GapProfile(n=fact.n, omega=len(primes), gap=math.log(best), ratio=best)


@dataclass(eq=False)
class ScanSummary:
    """Mergeable distribution summary of the gap statistic over [a, b).

    ``total`` counts every scanned integer; ``eligible`` those with omega
    >= 2 (the statistic exists). ``hist`` holds counts of gap(n) - ln ln
    ln n in fixed bins (slot 0 underflow, slots 1..400 cover [-10, 10) in
    steps of 0.05, slot 401 overflow). ``exceed`` maps each threshold c
    to the count of eligible n whose ratio exceeds c * ln ln n (mode
    "per-n") or c * ln ln range_point (mode "per-range"). Without the
    distribution ``hist`` is None. The law of t(n) = gap(n) - ln ln ln n
    comes from ``hist`` alone, to binning precision: ratio > 1 gives t >
    -ln ln ln n > -1.3 and ratio < log2 n < 53 gives t < ln 53 < 4, so no
    eligible n is in the under- or overflow slot.
    """

    a: int
    b: int
    thresholds: tuple[float, ...]
    mode: str
    range_point: Optional[int]
    eligible: int
    hist: Optional[np.ndarray]
    exceed: dict[float, int]

    @property
    def total(self) -> int:
        return self.b - self.a

    def _counts(self) -> np.ndarray:
        if self.hist is None:
            raise ValueError("summary was scanned without the distribution")
        if self.eligible == 0:
            raise EmptySampleError("no eligible integers scanned")
        return self.hist

    @property
    def mean_t(self) -> float:
        """Mean of t(n) over eligible n, each at its bin's midpoint."""
        return math.fsum(self._counts()[1:-1] * _MIDS) / self.eligible

    @property
    def var_t(self) -> float:
        """Population variance of t(n) at the bin midpoints, about mean_t."""
        dev = _MIDS - self.mean_t
        return math.fsum(self._counts()[1:-1] * dev * dev) / self.eligible

    @property
    def ks(self) -> tuple[float, float]:
        """(ks_gumbel, ks_u): the largest |F(u) - exp(-e^-u)| over the bin
        edges u, F the binned CDF of t over eligible n, and the first edge
        where it peaks."""
        cdf = np.cumsum(self._counts()[:-1]) / self.eligible
        dist = np.abs(cdf - _GUMBEL)
        i = int(np.argmax(dist))
        return float(dist[i]), float(_EDGES[i])

    def config(self) -> tuple:
        return (self.thresholds, self.mode, self.range_point, self.hist is not None)


def _sieving_primes(table: PrimeTable, b: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The state for sieving below b: the primes up to sqrt(b - 1) and
    their logs (slices of the table's, which come from math.log as in
    gap_profile), and the strided loop's :func:`_operands`."""
    root = isqrt(b - 1)
    if table.limit < root:
        raise InsufficientTableError(
            f"table limit {table.limit} < required sqrt bound {root}"
        )
    end = int(np.searchsorted(table.primes, root, "right"))
    primes, logs = table.primes[:end], table.logs[:end]
    return primes, logs, _operands(primes, logs)


def _operands(primes, logs):
    """Per prime up to PASS_FLOOR, the operands of its strided pass: p, then
    float(p) and log p as 0-d float64 views. A ufunc takes these as they
    are, where it converts a Python float on every call (431 against 299 ns
    per np.multiply on a 52-integer strip)."""
    m = int(np.searchsorted(primes, PASS_FLOOR, "right"))
    fl = np.stack((primes[:m].astype(float), logs[:m]), axis=1)
    return [(p, fl[i, 0, ...], fl[i, 1, ...]) for i, p in enumerate(primes[:m].tolist())]


PRESIEVE_PRIMES = (2, 3, 5, 7, 11, 13)  # their product is 30030


@lru_cache(maxsize=7)  # keys: the 7 prefixes of PRESIEVE_PRIMES
def _presieve_pattern(primes, logs):
    """The kernel's state after the first powers of ``primes`` (prod, the
    product of those dividing n, then last_log, max_ratio) over one period
    of n mod prod(primes), read-only (Oliveira e Silva et al., 2014)."""
    n = math.prod(primes)
    prod, last_log, max_ratio = np.ones(n), np.full(n, np.inf), np.zeros(n)
    for p, lp in zip(primes, logs):
        np.maximum(max_ratio[::p], lp / last_log[::p], out=max_ratio[::p])
        last_log[::p] = lp
        prod[::p] *= p
    for a in (prod, last_log, max_ratio):
        a.flags.writeable = False
    return prod, last_log, max_ratio


def _tile(out, period, off):
    """Fill ``out`` with ``period`` rotated left by ``off``, repeated."""
    head = min(period.size - off, out.size)
    out[:head] = period[off : off + head]
    q, r = divmod(out.size - head, period.size)
    out[head : head + q * period.size].reshape(q, period.size)[...] = period
    out[out.size - r :] = period[:r]


class _Workspace:
    """Arrays for segments of at most ``size`` integers, made once and
    reused through slices and ``out=``: prod, last_log and max_ratio, three
    float64 per integer (n < 2**53, so prod, a divisor of n, is exact), and
    post-pass block buffers, with the ramp 0, 1, ... that n is built from:
    7.3 MiB at the default 2**18 integers, 25.3 MiB at 2**20.
    The large-prime pass writes its updates here too; only its offsets
    (one per prime it takes) and hits (about 0.6 per integer at 1e15) are
    made per segment. Untouched pages are never faulted."""

    def __init__(self, size: int):
        self.size = size
        self.prod, self.last_log, self.max_ratio = np.empty((3, size))
        self.block = min(POST_BLOCK, size)
        self.ramp = np.arange(float(self.block))
        self.n, self.cof, self.buf = np.empty((3, self.block))
        self.bins = np.empty(self.block, dtype=np.int64)
        self.masks = np.empty((2, self.block), dtype=bool)


@lru_cache(maxsize=1)
def _scan_workspace(size: int) -> _Workspace:
    """This process's kernel workspace, kept from the last walk and rebuilt
    only for another segment length, so the tasks of a fanned-out scan
    fault its pages in once per worker."""
    return _Workspace(size)


def _sieve_segment(lo, hi, primes, logs, operands, ws):
    """Segmented sieve of [lo, hi) by the primes up to sqrt(hi - 1).

    Leaves in ``ws``, for :func:`_finish_blocks`: prod, the product of
    every sieved prime power dividing n; last_log, the log of the largest
    sieved prime factor (+inf if none); and max_ratio, the largest ratio of
    logs of consecutive distinct sieved prime factors. Each integer sees its
    factors ascending, so the running maximum needs only the previous
    factor's log; last_log starts at +inf so a first factor's update
    (lp / inf = 0) is a no-op. The segment is first filled in sub-blocks of
    SIEVE_BLOCK integers, each small enough for L2: the tiled pattern of
    PRESIEVE_PRIMES, then the strided first powers of the primes up to
    SIEVE_BLOCK >> 8. The first powers of the other primes up to
    min(PASS_FLOOR, hi - lo) follow in one strided loop over the whole
    segment, in increasing order, and those of the larger primes in
    :func:`_large_prime_pass`, which makes the loop's cost per segment
    independent of pi(sqrt(hi)). Every power p**k, k >= 2, comes last,
    one vectorized step per k over the primes whose p**(k-1) strikes:
    strided where p**k is shorter than the segment, else in one
    ``multiply.at``, as it strikes at most once (Oliveira e Silva et al.,
    2014). Products are exact below 2**53, in any order, so none of this
    changes a bit of the result."""
    seglen = hi - lo
    if seglen > ws.size:
        raise ValueError(f"[{lo}, {hi}) does not fit the workspace")
    prod, last_log, max_ratio = (a[:seglen] for a in (ws.prod, ws.last_log, ws.max_ratio))
    root = isqrt(hi - 1)
    end = int(np.searchsorted(primes, root, "right"))
    k = sum(p <= root for p in PRESIEVE_PRIMES)
    cut = min(max(k, int(np.searchsorted(primes, min(PASS_FLOOR, seglen), "right"))), end)
    near = min(max(k, int(np.searchsorted(primes, SIEVE_BLOCK >> 8, "right"))), cut)
    pattern = _presieve_pattern(tuple(primes[:k].tolist()), tuple(logs[:k].tolist()))
    for j in range(0, seglen, SIEVE_BLOCK):
        sub = [a[j : j + SIEVE_BLOCK] for a in (prod, last_log, max_ratio)]
        for out, period in zip(sub, pattern):
            _tile(out, period, (lo + j) % period.size)
        _strike(lo + j, primes[k:near], operands[k:near], *sub)
    _strike(lo, primes[near:cut], operands[near:cut], prod, last_log, max_ratio)
    struck = _large_prime_pass(lo, primes[cut:end], logs[cut:end], prod, last_log, max_ratio)
    # only a prime that strikes the segment can strike it with p**k
    big = np.concatenate((primes[:cut], struck))
    d = big * big
    while big.size:
        start = (-lo) % d
        hit = start < seglen
        many = hit & (d < seglen)
        for s, dk, p in zip(start[many].tolist(), d[many].tolist(), big[many].tolist()):
            strip = prod[s::dk]
            np.multiply(strip, float(p), out=strip)
        once = hit & ~many
        np.multiply.at(prod, start[once], big[once])
        # p**(k+1) strikes only where p**k does; d * p <= hi - 1 without overflow
        keep = hit & (d <= (hi - 1) // big)
        big, d = big[keep], d[keep] * big[keep]


def _strike(lo, primes, operands, prod, last_log, max_ratio):
    """The first powers of ``primes`` (ascending, all above 13), with
    their :func:`_operands`, on the strip of prod, last_log and max_ratio
    starting at ``lo``, one strided pass per prime; each ratio goes into
    the last_log strip it replaces."""
    starts = ((-lo) % primes).tolist()
    maximum, divide, multiply = np.maximum, np.divide, np.multiply  # not looked up per prime
    for (p, fp, lp), start in zip(operands, starts, strict=True):
        if start >= prod.size:
            continue
        ll = last_log[start::p]
        mr = max_ratio[start::p]
        maximum(mr, divide(lp, ll, out=ll), out=mr)
        ll.fill(lp)
        pr = prod[start::p]
        multiply(pr, fp, out=pr)


def _large_prime_pass(lo, primes, logs, prod, last_log, max_ratio):
    """The first powers of ``primes`` (ascending, all above the loop's) on
    the segment of prod, last_log and max_ratio starting at ``lo``, in one
    vectorized pass; returns the primes that strike it. Every hit i * p is
    listed, then ordered by (position, prime), so the integers see these
    factors ascending after the loop's: a hit's previous log is that of the
    hit before it at the same position, or else the loop's last_log. The
    ratios and products are the loop's own float operations, so the result
    is bit for bit the loop's."""
    seglen = prod.size
    start = (-lo) % primes
    hit = start < seglen
    primes, logs, start = primes[hit], logs[hit], start[hit]
    if not primes.size:
        return primes
    count = (seglen - 1 - start) // primes + 1
    which = np.repeat(np.arange(primes.size), count)  # hits prime by prime
    step = np.arange(which.size) - np.repeat(np.cumsum(count) - count, count)
    # one sort key per hit, position major: hits are distinct (position, prime)
    key = np.sort((start[which] + primes[which] * step) * primes.size + which)
    pos, which = np.divmod(key, primes.size)
    lp = logs[which]
    first = np.flatnonzero(np.diff(pos, prepend=-1))  # each position's first hit
    at = pos[first]
    prev = np.roll(lp, 1)
    prev[first] = last_log[at]
    max_ratio[at] = np.maximum(max_ratio[at], np.maximum.reduceat(lp / prev, first))
    last_log[at] = lp[np.append(first[1:], lp.size) - 1]
    prod[at] *= np.multiply.reduceat(primes[which], first)
    return primes


def _finish_blocks(lo, hi, ws):
    """Finish the sieved [lo, hi) in blocks of ``ws.block`` integers,
    yielding per block its slice of the segment, n (the ramp plus the
    block's first integer, float64 and exact below 2**53), the cofactor
    n / prod (exact, as prod divides n: 1 or the largest prime factor) in
    block buffers that the next block overwrites, and max_ratio's view with
    the cofactor's ratio taken in (0 exactly when omega <= 1, else > 1).
    log 1 = 0 and last_log = inf drop out of the max."""
    for j in range(0, hi - lo, ws.block):
        sl = slice(j, min(j + ws.block, hi - lo))
        n, cof, buf = (a[: sl.stop - j] for a in (ws.n, ws.cof, ws.buf))
        np.add(ws.ramp[: n.size], float(lo + j), out=n)
        np.divide(n, ws.prod[sl], out=cof)
        np.divide(np.log(cof, out=buf), ws.last_log[sl], out=buf)
        ratio = np.maximum(ws.max_ratio[sl], buf, out=ws.max_ratio[sl])
        yield sl, n, cof, ratio


def _walk(a, b, table, segment_size):
    """The one segment walk over [a, b): per segment :func:`_sieve_segment`,
    then per block of :func:`_finish_blocks` the workspace (for its scratch
    buffers), the block's first integer, n, the cofactor, max_ratio and
    last_log. Not re-entrant: every walk in a process sieves into the one
    workspace of :func:`_scan_workspace`, which the next block overwrites."""
    sieving = _sieving_primes(table, b)
    ws = _scan_workspace(min(segment_size, b - a))
    for lo in range(a, b, segment_size):
        hi = min(lo + segment_size, b)
        _sieve_segment(lo, hi, *sieving, ws)
        for sl, n, cof, ratio in _finish_blocks(lo, hi, ws):
            yield ws, lo + sl.start, n, cof, ratio, ws.last_log[sl]


def scan_range(
    a: int,
    b: int,
    thresholds: Iterable[float],
    table: PrimeTable,
    mode: str = MODE_PER_N,
    range_point: Optional[int] = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    distribution: bool = True,
) -> ScanSummary:
    """Scan [a, b) and summarize the gap statistic distribution.

    Parameters
    ----------
    a, b : int
        Range bounds, 16 <= a < b <= 2**53; the floor keeps ln ln n and
        ln ln ln n positive for every n, the ceiling keeps n exact as a float.
    thresholds : iterable of float
        Positive scale factors c for the exceedance counters, in any
        order; the summary keeps them sorted and without repeats.
    table : PrimeTable
        Must reach sqrt(b - 1).
    mode : str
        "per-n" compares ratio(n) against c * ln ln n; "per-range"
        against the fixed c * ln ln range_point.
    range_point : int, optional
        Reference point for "per-range", at least 2; defaults to b - 1,
        the largest integer scanned.
    segment_size : int
        Sieve segment length; results are independent of it.
    distribution : bool
        Whether to build the histogram; without it the summary holds
        total, eligible and the exceedances only, and its ``hist`` is None.

    The result is deterministic and identical for any segmentation or
    parallel split of [a, b), because every accumulator is an integer.
    Each block of :func:`_walk` adds its counts to one summary. An
    ineligible n has ratio 0, which exceeds no (positive) bound, and is
    floored to the smallest normal double before the log, so its gap of
    about -708 bins to the corrected underflow slot. Every eligible ratio
    is at least 1, so a threshold with c * top * (1 + 1e-12) < 1, top the
    ln ln of b - 1 (per-n) or of range_point, counts every eligible n with
    no comparison (the margin covers np.log against math.log). No block
    takes ln ln n per integer: math.log's at its first and last n, widened
    by REDO_EPS, bound every n's. A per-n threshold counts ratio > c upper
    as exceeding and ratio <= c lower as not; t is binned with ln upper for
    ln ln ln n, at most 20 (ln upper - ln lower) bins low. The n left open
    are redone in batches with the per-integer float operations, and the
    counts take the difference: every outcome is the per-integer one.
    """
    if not ELIGIBLE_FLOOR <= a < b <= MAX_SCAN_END:
        raise ValueError(f"need {ELIGIBLE_FLOOR} <= a < b <= 2**53, got [{a}, {b})")
    if mode not in (MODE_PER_N, MODE_PER_RANGE):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= segment_size <= MAX_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be in [1, {MAX_SEGMENT_SIZE}]")
    if mode == MODE_PER_N:
        range_point = None
    elif range_point is None:
        range_point = b - 1
    elif range_point < 2:  # ln ln range_point must exist
        raise ValueError(f"range_point must be >= 2, got {range_point}")

    thr = tuple(sorted(set(float(c) for c in thresholds)))
    if not all(0 < c < math.inf for c in thr):  # NaN fails too
        raise ValueError("thresholds must be finite and positive")
    s = ScanSummary(
        a, b, thr, mode, range_point, eligible=0,
        hist=np.zeros(HIST_BINS + 2, dtype=np.int64) if distribution else None,
        exceed=dict.fromkeys(thr, 0),
    )
    top = math.log(math.log(b - 1 if mode == MODE_PER_N else range_point))
    decided = [c for c in thr if c * top * (1 + 1e-12) >= 1]
    redo = _Redo(s, [c for c in decided if mode == MODE_PER_N])
    for ws, start, slot, _, ratio, _ in _walk(a, b, table, segment_size):
        buf, bins, mask = (x[: ratio.size] for x in (ws.buf, ws.bins, ws.masks[0]))
        block_eligible = int(np.count_nonzero(np.greater(ratio, 0, out=mask)))
        s.eligible += block_eligible
        lower = math.log(math.log(start)) * (1 - REDO_EPS)
        upper = math.log(math.log(start + ratio.size - 1)) * (1 + REDO_EPS)
        flags = None  # the n the bounds leave open
        for c in s.thresholds:
            if c not in decided:
                s.exceed[c] += block_eligible
                continue
            bound = c * upper if mode == MODE_PER_N else c * top
            above = int(np.count_nonzero(np.greater(ratio, bound, out=mask)))
            s.exceed[c] += above
            if mode == MODE_PER_N and np.count_nonzero(ratio > c * lower) > above:
                band = (ratio > c * lower) & (ratio <= bound)
                flags = band if flags is None else flags | band
        if distribution:  # slot (0 the underflow) and position in it, from ln upper
            gap = np.log(np.maximum(ratio, TINY, out=buf), out=buf)
            np.subtract(gap, math.log(upper) + HIST_LO - HIST_WIDTH, out=buf)
            buf *= HIST_INV_WIDTH
            np.floor(np.clip(buf, 0, HIST_BINS + 1, out=buf), out=slot)
            np.copyto(bins, slot, casting="unsafe")
            s.hist += np.bincount(bins, minlength=HIST_BINS + 2)
            s.hist[0] -= ratio.size - block_eligible
            spread = HIST_INV_WIDTH * (math.log(upper) - math.log(lower))
            np.greater_equal(np.subtract(buf, slot, out=buf), 1 - spread, out=mask)
            flags = mask if flags is None else np.logical_or(mask, flags, out=mask)
        if flags is not None:
            redo.add(flags, start, ratio, upper, slot)
    redo.flush()
    return s


class _Redo:
    """The n a block's bounds leave open, with ratio, the block's upper bound
    and (with the histogram) provisional slot, redone REDO_BATCH at a time."""

    def __init__(self, s: ScanSummary, per_n: list):
        self.s, self.per_n, self.k, self.held = s, per_n, 0, np.empty((4, REDO_BATCH))

    def add(self, flags, start, ratio, upper, slot):
        # at most REDO_BATCH indices at a time: larger temporaries inflate the heap
        step = flags.size if np.count_nonzero(flags) <= REDO_BATCH else REDO_BATCH
        for j in range(0, flags.size, step):
            idx = np.flatnonzero(flags[j : j + step]) + j
            while idx.size:
                take, idx = idx[: REDO_BATCH - self.k], idx[REDO_BATCH - self.k :]
                n, r, u, sl = self.held[:, self.k : self.k + take.size]
                n[:], r[:], u[:], sl[:] = take + start, ratio[take], upper, slot[take]
                self.k += take.size
                if self.k == REDO_BATCH:
                    self.flush()

    def flush(self):
        n, ratio, upper, slot = self.held[:, : self.k]
        self.k, lnln = 0, np.log(np.log(n))
        for c in self.per_n:
            self.s.exceed[c] += int(np.count_nonzero((ratio > c * lnln) & (ratio <= c * upper)))
        if self.s.hist is not None:
            gap = np.log(np.maximum(ratio, TINY))
            t = np.floor((gap - np.log(lnln) - HIST_LO) * HIST_INV_WIDTH)
            for slots, sign in ((np.clip(t, -1, HIST_BINS) + 1, 1), (slot, -1)):
                self.s.hist += sign * np.bincount(slots.astype(np.int64), minlength=HIST_BINS + 2)


def merge_summaries(s1: ScanSummary, s2: ScanSummary) -> ScanSummary:
    """The summary of [s1.a, s2.b) from those of its neighbouring parts,
    s1 of [s1.a, s1.b) and s2 of [s1.b, s2.b); exact, not commutative."""
    if s1.config() != s2.config():
        raise ValueError("summaries have different thresholds, mode or kind")
    if s1.b != s2.a:
        raise ValueError(
            f"[{s1.a}, {s1.b}) and [{s2.a}, {s2.b}) are not neighbours in order"
        )
    return replace(
        s1, b=s2.b, eligible=s1.eligible + s2.eligible,
        hist=s1.hist + s2.hist if s1.hist is not None else None,
        exceed={c: s1.exceed[c] + s2.exceed[c] for c in s1.thresholds},
    )


def theoretical_density(c: float) -> float:
    """Limit density 1 - exp(-1/c) of integers whose ratio exceeds c ln ln n."""
    if not 0 < c < math.inf:  # NaN fails both
        raise ValueError(f"c must be finite and > 0, got {c}")
    return -math.expm1(-1.0 / c)


def partial_alternating_sum(c: float, K: int) -> float:
    """Partial sum over k = 0..K of (-1)^k / (c^k k!).

    Even K overshoots exp(-1/c), odd K undershoots; consecutive partial
    sums bracket the limit.
    """
    if not 0 < c < math.inf:  # NaN fails both
        raise ValueError(f"c must be finite and > 0, got {c}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    s = 1.0
    term = 1.0
    for k in range(1, K + 1):
        term *= -1.0 / (c * k)
        s += term
    return s
