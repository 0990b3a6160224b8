"""Deliberately naive reference implementations used as ground truth.

Nothing here shares code with the fast paths: factorization is plain
trial division by every integer, and every cutoff comparison runs in
mpmath at high precision, unconditionally. Slow, but authoritative.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp

from .sieve import Factorization

_DPS = 40


@lru_cache(maxsize=300000)
def naive_factorize(n: int) -> Factorization:
    """Trial division by 2 and every odd d up to sqrt of the remainder."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors = []
    rem = n
    e = 0
    while rem % 2 == 0:
        rem //= 2
        e += 1
    if e:
        factors.append((2, e))
    d = 3
    while d * d <= rem:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            factors.append((d, e))
        d += 2
    if rem > 1:
        factors.append((rem, 1))
    return Factorization(n=n, factors=tuple(factors))


def naive_f(n: int):
    """The largest log-of-log-ratio between consecutive distinct prime
    factors of n, straight from the defining formula; None when n has
    fewer than two distinct prime factors."""
    primes = naive_factorize(n).primes
    if len(primes) <= 1:
        return None
    best = max(
        math.log(primes[j + 1]) / math.log(primes[j]) for j in range(len(primes) - 1)
    )
    return math.log(best)


@lru_cache(maxsize=100000)
def _le_power(q: int, p: int, x: int, c: float) -> bool:
    # exact-side decision of q <= p**(c ln ln x)
    with mp.workdps(_DPS):
        return mp.log(q) <= mp.mpf(c) * mp.log(mp.log(x)) * mp.log(p)


@lru_cache(maxsize=100000)
def _is_small(p: int, x: int, c: float) -> bool:
    # exact-side decision of p <= x**(1/(c ln ln x))
    if p > x:
        return False
    with mp.workdps(_DPS):
        return mp.mpf(c) * mp.log(mp.log(x)) * mp.log(p) <= mp.log(x)


def _chi(primes: tuple[int, ...], p: int, n: int, x: int, c: float) -> bool:
    # p | n and no prime factor of n inside (p, p**E]
    if n % p != 0:
        return False
    for q in primes:
        if q > p and _le_power(q, p, x, c):
            return False
    return True


def naive_N(x: int, c: float) -> int:
    """Count n <= x such that every small prime divisor p of n fails the
    lone-divisor test, testing the definition verbatim for every n."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    count = 0
    for n in range(1, x + 1):
        primes = naive_factorize(n).primes
        ok = True
        for p in primes:
            if _is_small(p, x, c) and _chi(primes, p, n, x, c):
                ok = False
                break
        if ok:
            count += 1
    return count


def naive_chi_count(m_primes: tuple[int, ...], x: int, c: float) -> int:
    """Count n <= x for which every prime in m_primes passes the
    lone-divisor test, by definition; _chi fails unless p | n, so only
    the multiples of every p in m_primes are walked."""
    step = math.lcm(*m_primes)
    count = 0
    for n in range(step, x + 1, step):
        primes = naive_factorize(n).primes
        if all(_chi(primes, p, n, x, c) for p in m_primes):
            count += 1
    return count


def naive_wide_squarefree(x: int, c: float) -> list[tuple[int, tuple[int, ...]]]:
    """Brute-force filter for the wide-gap squarefree set: all squarefree
    m <= x whose prime factors are all small and pairwise separated by
    more than an E-th power. Returned as (m, primes) sorted by
    (omega, m); includes m = 1."""
    out = [(1, ())]
    for m in range(2, x + 1):
        fact = naive_factorize(m)
        if any(e >= 2 for _, e in fact.factors):
            continue
        primes = fact.primes
        if not _is_small(primes[-1], x, c):
            continue
        if all(
            not _le_power(primes[j + 1], primes[j], x, c)
            for j in range(len(primes) - 1)
        ):
            out.append((m, primes))
    out.sort(key=lambda t: (len(t[1]), t[0]))
    return out
