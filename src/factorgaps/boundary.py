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

:func:`le_power` and :func:`le_root` decide one pair; :func:`le_banded`
an array, for every window (``sieve.primes_in_power_interval``), the
cutoff (``counting._small_primes``) and the gap-form test of
``counting.direct_counts``. No other module knows the band.

``force_extended()`` widens the band to every comparison, windows
included; the verification suite uses it to confirm that the double
fast path never disagrees with the slow exact path.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable

import numpy as np

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


def tie_band() -> float:
    """The log band a float may not decide: TIE_EPS, or all under force_extended."""
    return math.inf if _FORCE_EXTENDED else TIE_EPS


def le_banded(lhs: np.ndarray, rhs: float, exact: Callable[[int], bool]) -> np.ndarray:
    """The mask ``lhs <= rhs`` of an array of float logs; ``exact(i)``
    re-decides each entry i within :func:`tie_band` of ``rhs``."""
    keep, band = lhs <= rhs, tie_band()
    for i in np.flatnonzero((lhs > rhs - band) & (lhs < rhs + band)).tolist():
        keep[i] = exact(i)
    return keep


def padded_exp(t: float) -> float:
    """exp(t + 2 TIE_EPS), a search bound: an integer above it has a log
    more than TIE_EPS past t, so a float comparison rules it out."""
    return math.exp(t + 2.0 * TIE_EPS)


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
    lhs, rhs = math.log(q), gap_exponent(x, c) * math.log(p)
    if abs(lhs - rhs) >= tie_band():
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
    lhs, rhs = gap_exponent(x, c) * math.log(p), math.log(x)
    if abs(lhs - rhs) >= tie_band():
        return lhs <= rhs
    from mpmath import mp
    with mp.workdps(EXTENDED_DPS):
        return _mp_exponent(x, c) * mp.log(p) <= mp.log(x)


def root_search_bound(x: int, c: float) -> float:
    """A float upper bound safely above x**(1/E), for pre-cutting candidates."""
    e = gap_exponent(x, c)
    if e <= 1.0:
        return float(x)
    return padded_exp(math.log(x) / e)
