import math
import random

import numpy as np
import pytest

from factorgaps import (
    Factorization,
    InsufficientTableError,
    build_prime_table,
    factorize,
    primes_in_interval,
    primes_in_power_interval,
    segment_factor_scan,
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
    assert table_small.is_prime(9973)
    assert not table_small.is_prime(9999)


@pytest.mark.parametrize(
    "n,factors",
    [
        (12, ((2, 2), (3, 1))),
        (1, ()),
        (17408, ((2, 10), (17, 1))),
        (9699690, tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19))),
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


def test_segment_scan_examples(table_small):
    got = list(segment_factor_scan(10, 13, table_small))
    assert [f.n for f in got] == [10, 11, 12]
    assert got[0].factors == ((2, 1), (5, 1))
    assert got[1].factors == ((11, 1),)
    assert got[2].factors == ((2, 2), (3, 1))
    assert list(segment_factor_scan(1, 2, table_small)) == [
        Factorization(n=1, factors=())
    ]


def test_segment_scan_matches_factorize(table_small):
    for a, b in [(1, 3000), (99_000, 100_000), (65_530, 65_600)]:
        for fact in segment_factor_scan(a, b, table_small):
            assert fact == factorize(fact.n, table_small)


def test_segment_scan_segment_size_independent(table_small):
    whole = list(segment_factor_scan(500, 1500, table_small))
    for size in (1, 7, 64, 1000, 4096):
        assert list(segment_factor_scan(500, 1500, table_small, segment_size=size)) == whole


def test_segment_scan_insufficient_table():
    small = build_prime_table(10)
    with pytest.raises(InsufficientTableError):
        list(segment_factor_scan(1, 1000, small))


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
