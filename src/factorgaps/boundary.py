"""Boundary-exact comparisons against prime-power cutoffs.

The counting layer keeps asking two questions about a prime q and a pair
of scan parameters (x, c), with E = c * ln ln x:

  * window test: is q <= p**E for another prime p?
  * cutoff test: is p <= x**(1/E), i.e. is p a "small" prime?

Both sides are exact real numbers, but the code evaluates them through
floating logs. A double-precision answer within ``TIE_EPS`` of the
boundary is re-decided with mpmath at ``EXTENDED_DPS`` significant
digits, so set membership agrees with the exact definition even when the
double rounds the wrong way (mpmath is imported at the first such tie).
Counts built on these predicates are exact integers, not "exact up to rounding".

``force_extended()`` routes every comparison through mpmath; the
verification suite uses it to confirm that the double fast path never
disagrees with the slow exact path.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

TIE_EPS = 1e-9
EXTENDED_DPS = 40  # significant digits used to break ties

_FORCE_EXTENDED = False


@contextmanager
def force_extended():
    """Temporarily decide every comparison in extended precision."""
    global _FORCE_EXTENDED
    old = _FORCE_EXTENDED
    _FORCE_EXTENDED = True
    try:
        yield
    finally:
        _FORCE_EXTENDED = old


def gap_exponent(x: int, c: float) -> float:
    """The exponent E = c * ln ln x separating close from wide prime gaps."""
    if x < 16:
        raise ValueError(f"x must be >= 16, got {x}")
    if c <= 0:
        raise ValueError(f"c must be > 0, got {c}")
    return c * math.log(math.log(x))


def small_prime_bound(x: int, c: float) -> float:
    """The cutoff min(x**(1/E), x); primes at or below it count as small."""
    e = gap_exponent(x, c)
    if e <= 1.0:
        return float(x)
    return min(math.exp(math.log(x) / e), float(x))


@lru_cache(maxsize=256)
def _mp_exponent(x: int, c: float):
    from mpmath import mp
    with mp.workdps(EXTENDED_DPS):
        return mp.mpf(c) * mp.log(mp.log(x))


def le_power(q: int, p: int, x: int, c: float) -> bool:
    """Decide q <= p**E with E = c * ln ln x, ties in extended precision."""
    if not _FORCE_EXTENDED:
        lhs = math.log(q)
        rhs = gap_exponent(x, c) * math.log(p)
        if abs(lhs - rhs) >= TIE_EPS:
            return lhs <= rhs
    from mpmath import mp
    with mp.workdps(EXTENDED_DPS):
        return mp.log(q) <= _mp_exponent(x, c) * mp.log(p)


def le_root(p: int, x: int, c: float) -> bool:
    """Decide p <= x**(1/E), the small-prime test, ties in extended precision.

    For E <= 1 the cutoff exceeds x itself, so any p <= x qualifies; the
    log comparison already encodes that, no separate cap is needed.
    """
    if p > x:
        return False
    if not _FORCE_EXTENDED:
        lhs = gap_exponent(x, c) * math.log(p)
        rhs = math.log(x)
        if abs(lhs - rhs) >= TIE_EPS:
            return lhs <= rhs
    from mpmath import mp
    with mp.workdps(EXTENDED_DPS):
        return _mp_exponent(x, c) * mp.log(p) <= mp.log(x)


def power_search_bound(p: int, x: int, c: float) -> float:
    """A float upper bound safely above p**E, for pre-cutting candidates.

    Every prime q with ln q > E*ln p + TIE_EPS is certainly outside the
    window, so candidates need only be enumerated up to this bound and
    the few in the tie band re-checked with :func:`le_power`.
    """
    return math.exp(gap_exponent(x, c) * math.log(p) + 2.0 * TIE_EPS)


def root_search_bound(x: int, c: float) -> float:
    """A float upper bound safely above x**(1/E), same idea as above."""
    e = gap_exponent(x, c)
    if e <= 1.0:
        return float(x)
    return math.exp(math.log(x) / e + 2.0 * TIE_EPS)
