import math
import random

import numpy as np
import pytest

from factorgaps import (
    InsufficientTableError,
    build_prime_table,
    factorize,
    primes_in_interval,
    primes_in_power_interval,
)
from factorgaps import oracle


def plain_sieve(limit):
    # independent of the numpy implementation under test
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = 0
    return [i for i in range(limit + 1) if flags[i]]


def test_build_prime_table_small():
    assert list(build_prime_table(10).primes) == [2, 3, 5, 7]
    assert list(build_prime_table(2).primes) == [2]


def test_build_prime_table_rejects_tiny():
    with pytest.raises(ValueError):
        build_prime_table(1)


def test_prime_table_against_plain_sieve(table_small):
    assert list(table_small.primes) == plain_sieve(10_000)


def test_prime_count_to_1e6(table_1e6):
    # classical value, re-derived by the plain sieve
    assert len(table_1e6) == 78498
    assert len(plain_sieve(1_000_000)) == 78498


def test_prime_table_invariants(table_small):
    ps = table_small.primes
    assert ps[0] == 2
    assert (np.diff(ps) > 0).all()
    assert 9973 in table_small.primes
    assert 9999 not in table_small.primes


@pytest.mark.parametrize(
    "n,factors",
    [
        (12, ((2, 2), (3, 1))),
        (1, ()),
        (17408, ((2, 10), (17, 1))),
        (9699690, tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19))),
        (10, ((2, 1), (5, 1))),
        (11, ((11, 1),)),
    ],
)
def test_factorize_examples(table_small, n, factors):
    fact = factorize(n, table_small)
    assert fact.factors == factors
    assert fact == oracle.naive_factorize(n)


def test_factorization_product_invariant(table_small):
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10**8)
        fact = factorize(n, table_small)
        prod = 1
        for p, e in fact.factors:
            prod *= p**e
        assert prod == n
        assert list(fact.primes) == sorted(fact.primes)
        # with the product and the order, this pins the unique factorization
        for p in fact.primes:
            assert p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_factorize_insufficient_table():
    small = build_prime_table(100)
    with pytest.raises(InsufficientTableError):
        factorize(10**9, small)


def test_factorization_conventions(table_small):
    one = factorize(1, table_small)
    assert one.factors == ()
    assert one.omega == 0
    assert one.largest_prime == 1


def test_factorize_matches_oracle_on_ranges(table_small):
    # the last range ends at the table's reach: 10**4 squared is 10**8
    for a, b in [(1, 3000), (65_530, 65_600), (99_000, 100_000), (10**8 - 500, 10**8 + 1)]:
        for n in range(a, b):
            assert factorize(n, table_small) == oracle.naive_factorize(n)


def test_primes_in_interval_examples(table_small):
    # windows of the x=30, c=1 setting, endpoints from extended precision
    assert list(primes_in_interval(5, 7.172, table_small)) == [7]
    assert list(primes_in_interval(7, 10.827, table_small)) == []
    assert list(primes_in_interval(2, 2.336, table_small)) == []
    # boundaries: lo exclusive, hi inclusive
    assert list(primes_in_interval(7.0, 11.0, table_small)) == [11]


def test_primes_in_interval_insufficient():
    small = build_prime_table(100)
    with pytest.raises(InsufficientTableError):
        primes_in_interval(2, 1000.0, small)


def test_primes_in_power_interval(table_small):
    assert list(primes_in_power_interval(5, 30, 1.0, table_small)) == [7]
    assert list(primes_in_power_interval(7, 30, 1.0, table_small)) == []
    assert list(primes_in_power_interval(2, 30, 1.0, table_small)) == []
    assert list(primes_in_power_interval(11, 30, 1.0, table_small)) == [13, 17]
    assert list(primes_in_power_interval(13, 30, 1.0, table_small)) == [17, 19, 23]
    # cap cuts the window without changing membership below it
    assert list(primes_in_power_interval(13, 30, 1.0, table_small, cap=20)) == [17, 19]
