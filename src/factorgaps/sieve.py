"""Prime tables, factorization, and segmented factor scans.

Everything downstream (gap statistics, the counting identities) consumes
either a :class:`PrimeTable` or a stream of :class:`Factorization`
records, so this module is the only place that touches raw sieving.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isqrt
from typing import Iterator, Optional

import numpy as np

from . import boundary

DEFAULT_SEGMENT_SIZE = 1 << 20


class InsufficientTableError(Exception):
    """The prime table does not reach far enough for the request."""


class _Infinite:
    """Order-only sentinel for the smallest prime factor of 1.

    Compares above every number; deliberately not a float so it can never
    leak into arithmetic.
    """

    __slots__ = ()

    def __repr__(self):
        return "INFINITE"

    def __gt__(self, other):
        return not isinstance(other, _Infinite)

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinite)

    def __eq__(self, other):
        return isinstance(other, _Infinite)

    def __hash__(self):
        return hash("factorgaps.INFINITE")


INFINITE = _Infinite()


@dataclass(frozen=True)
class Factorization:
    """An integer n >= 1 with its prime factorization.

    ``factors`` lists (prime, exponent) pairs with strictly increasing
    primes; it is empty exactly for n = 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def largest_prime(self) -> int:
        """Largest prime factor, with the convention 1 for n = 1."""
        return self.factors[-1][0] if self.factors else 1

    @property
    def smallest_prime(self):
        """Smallest prime factor; INFINITE for n = 1, by convention."""
        return self.factors[0][0] if self.factors else INFINITE


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` (inclusive), ascending."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)

    def is_prime(self, v: int) -> bool:
        if v > self.limit:
            raise InsufficientTableError(f"{v} exceeds table limit {self.limit}")
        i = int(np.searchsorted(self.primes, v))
        return i < len(self.primes) and int(self.primes[i]) == v


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes up to ``limit`` inclusive.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, must be >= 2.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.nonzero(flags)[0].astype(np.int64))


def factorize(n: int, table: PrimeTable) -> Factorization:
    """Factor n by trial division over the table's primes.

    Requires ``table.limit**2 >= n`` so that after dividing out every
    table prime <= sqrt(n) an untouched cofactor > 1 is itself prime.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if table.limit * table.limit < n:
        raise InsufficientTableError(
            f"table limit {table.limit} cannot certify factors of {n}"
        )
    factors = []
    rem = n
    root = isqrt(n)
    for p in table.primes:
        p = int(p)
        if p > root:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
            root = isqrt(rem)
    if rem > 1:
        factors.append((rem, 1))
    return Factorization(n=n, factors=tuple(factors))


def segment_factor_scan(
    a: int,
    b: int,
    table: PrimeTable,
    # Python lists for a whole segment, some 300 bytes per integer, are
    # built before the first record is yielded, so segments stay far
    # smaller than the vectorized kernel's DEFAULT_SEGMENT_SIZE.
    segment_size: int = 1 << 16,
) -> Iterator[Factorization]:
    """Yield the factorization of every n in [a, b), in order.

    Works segment by segment: for each prime p <= sqrt(b-1) the multiples
    of p inside the segment are located by position and divided out, so
    the cost per integer is O(log log b) divisions instead of a full
    trial division. A cofactor > 1 surviving all table primes is prime
    (one prime factor above sqrt can remain) and is recorded with
    exponent 1.
    """
    if not 1 <= a < b:
        raise ValueError(f"need 1 <= a < b, got [{a}, {b})")
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    root = isqrt(b - 1)
    if table.limit < root:
        raise InsufficientTableError(
            f"table limit {table.limit} < required sqrt bound {root}"
        )
    small_primes = [int(p) for p in table.primes[table.primes <= root]]

    for lo in range(a, b, segment_size):
        hi = min(lo + segment_size, b)
        seglen = hi - lo
        rem = list(range(lo, hi))
        facs: list[list[tuple[int, int]]] = [[] for _ in range(seglen)]
        for p in small_primes:
            if p * p > hi - 1:
                break
            start = (-lo) % p
            for j in range(start, seglen, p):
                v = rem[j]
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                if e:
                    rem[j] = v
                    facs[j].append((p, e))
        for j in range(seglen):
            v = rem[j]
            if v > 1:
                facs[j].append((v, 1))
            yield Factorization(n=lo + j, factors=tuple(facs[j]))


def mobius(fact: Factorization) -> int:
    """Mobius function from a factorization: 0 on square factors, else (-1)^omega."""
    for _, e in fact.factors:
        if e >= 2:
            return 0
    return -1 if fact.omega % 2 else 1


def primes_in_interval(lo: float, hi: float, table: PrimeTable) -> np.ndarray:
    """Primes q with lo < q <= hi, ascending.

    ``lo`` and ``hi`` are real bounds. For integer q, q > lo iff
    q > floor(lo) and q <= hi iff q <= floor(hi), so searching with the
    floors is exact and keeps numpy from casting the whole table to
    float on every call. Power-shaped bounds (q <= p**E) must go through
    :func:`primes_in_power_interval`, which owns the tie handling.
    """
    if hi > table.limit:
        raise InsufficientTableError(
            f"interval end {hi} exceeds table limit {table.limit}"
        )
    i = int(np.searchsorted(table.primes, floor(lo), side="right"))
    j = int(np.searchsorted(table.primes, floor(hi), side="right"))
    return table.primes[i:j]


def primes_in_power_interval(
    p: int,
    x: int,
    c: float,
    table: PrimeTable,
    cap: Optional[int] = None,
) -> np.ndarray:
    """Primes q with p < q <= p**E for E = c * ln ln x, ascending.

    Membership at the upper boundary follows the tie-breaking rule in
    :mod:`factorgaps.boundary`. ``cap`` additionally restricts to q <= cap
    (an exact integer bound), which also relaxes how far the table must
    reach.
    """
    upper = boundary.power_search_bound(p, x, c)
    if cap is not None:
        upper = min(upper, float(cap))
    if upper > table.limit:
        raise InsufficientTableError(
            f"window above {p} reaches {upper:.6g}, table limit {table.limit}"
        )
    cand = primes_in_interval(float(p), upper, table)
    if len(cand) == 0:
        return cand
    # Only candidates whose log lands in the tie band need the exact test.
    rhs = boundary.gap_exponent(x, c) * np.log(float(p))
    diff = np.log(cand.astype(np.float64)) - rhs
    keep = diff <= 0.0
    band = np.abs(diff) < boundary.TIE_EPS
    if band.any():
        for i in np.nonzero(band)[0]:
            keep[i] = boundary.le_power(int(cand[i]), p, x, c)
    return cand[keep]
