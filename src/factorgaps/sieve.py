"""Prime tables, trial-division factorization, and prime windows.

The scan kernel (:mod:`factorgaps.gaps`) sieves its own segments from a
:class:`PrimeTable`. :func:`factorize` is the one factorizer beside it,
for single integers that must be decided exactly; its
:class:`Factorization` is an immutable NamedTuple, and
:mod:`factorgaps.oracle` is the independent reference for both.
:func:`primes_in_power_interval` is the one search over a table: the
window (p, p**E] of the counting layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import floor, isqrt, log
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import boundary


class InsufficientTableError(Exception):
    """The prime table does not reach far enough for the request."""


class Factorization(NamedTuple):
    """An integer n >= 1 with its prime factorization.

    ``factors`` lists (prime, exponent) pairs with strictly increasing
    primes; it is empty exactly for n = 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` (inclusive), ascending."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)

    @cached_property
    def logs(self) -> np.ndarray:
        """The primes' logs, from math.log as in gap_profile, made at the
        first use and kept: every scan or direct count over this table
        slices them."""
        return np.fromiter(map(log, self.primes.astype(float)), float, self.primes.size)


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

    Requires ``1 <= n < 2**63`` and ``table.limit >= isqrt(n)``: a
    composite n has a prime factor <= isqrt(n), so after dividing out every
    table prime up to it a cofactor > 1 is itself prime. One int64
    remainder over the primes up to isqrt(n) finds the primes that divide
    n; only those are divided out, in Python ints.
    """
    if not 1 <= n < 2**63:
        raise ValueError(f"n must be in [1, 2**63), got {n}")
    if table.limit < isqrt(n):
        raise InsufficientTableError(
            f"table limit {table.limit} cannot certify factors of {n}"
        )
    primes = table.primes[: np.searchsorted(table.primes, isqrt(n), side="right")]
    factors = []
    rem = n
    for p in primes[n % primes == 0].tolist():
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        factors.append((p, e))
    if rem > 1:
        factors.append((rem, 1))
    return Factorization(n=n, factors=tuple(factors))


def segment_factor_scan(a: int, b: int, table: PrimeTable) -> Iterator[Factorization]:
    """``factorize(n, table)`` for n in [a, b), kept only because
    perfbench/layers.py wraps it by name; ROADMAP item 11 deletes it."""
    for n in range(a, b):
        yield factorize(n, table)


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
    e = boundary.gap_exponent(x, c)
    upper = boundary.padded_exp(e * log(p))
    if cap is not None:
        upper = min(upper, float(cap))
    if upper > table.limit:
        raise InsufficientTableError(
            f"window above {p} reaches {upper:.6g}, table limit {table.limit}"
        )
    # For integer q, q <= upper iff q <= floor(upper): searching with the
    # floor is exact and keeps numpy from casting the table to float.
    lo = int(np.searchsorted(table.primes, p, side="right"))
    hi = int(np.searchsorted(table.primes, floor(upper), side="right"))
    cand = table.primes[lo:hi]
    if len(cand) == 0:
        return cand
    keep = boundary.le_banded(
        np.log(cand.astype(np.float64)),
        e * np.log(float(p)),
        lambda i: boundary.le_power(int(cand[i]), p, x, c),
    )
    return cand[keep]
