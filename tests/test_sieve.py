import math
import random

import numpy as np
import pytest

from factorgaps import (
    InsufficientTableError,
    build_prime_table,
    factorize,
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


def test_factorize_needs_only_the_root_of_n(table_small):
    # a composite n has a prime factor <= isqrt(n), so a table reaching
    # isqrt(n) certifies n's factors, though limit**2 < n; a table to
    # 10**4 factors every n < 10001**2 and refuses that square
    assert factorize(101 * 103, build_prime_table(101)).factors == ((101, 1), (103, 1))
    with pytest.raises(InsufficientTableError):
        factorize(103**2, build_prime_table(102))
    for n in range(10_001**2 - 200, 10_001**2):
        assert factorize(n, table_small) == oracle.naive_factorize(n)
    with pytest.raises(InsufficientTableError):
        factorize(10_001**2, table_small)


@pytest.mark.parametrize(
    "n,error", [(0, ValueError), (2**63, ValueError), (2**63 - 1, InsufficientTableError)]
)
def test_factorize_refuses_n_outside_int64(table_small, n, error):
    # the int64 remainder over the table needs n < 2**63; a table reaching
    # sqrt(2**63) would hold over 10**8 primes
    with pytest.raises(error):
        factorize(n, table_small)


def test_factorization_conventions(table_small):
    one = factorize(1, table_small)
    assert one.factors == ()
    assert one.primes == ()


def test_factorize_matches_oracle_on_ranges(table_small):
    # the last range ends at the table's reach: 10**4 squared is 10**8
    for a, b in [(1, 3000), (65_530, 65_600), (99_000, 100_000), (10**8 - 500, 10**8 + 1)]:
        for n in range(a, b):
            assert factorize(n, table_small) == oracle.naive_factorize(n)


def test_power_interval_non_integer_ends(table_small):
    # the search cuts at floor(p**E): a prime just below a non-integer
    # p**E is kept, one just above it is not, and p itself never is
    ln_ln_30 = math.log(math.log(30))
    for end, want in [(7.5, [7]), (6.5, []), (11.5, [7, 11]), (10.9, [7])]:
        c = math.log(end) / math.log(5) / ln_ln_30
        assert list(primes_in_power_interval(5, 30, c, table_small)) == want, end


def test_power_interval_insufficient():
    small = build_prime_table(100)
    # 97**E reaches about 270 at x = 30, c = 1; a cap at the limit suffices
    with pytest.raises(InsufficientTableError):
        primes_in_power_interval(97, 30, 1.0, small)
    assert list(primes_in_power_interval(97, 30, 1.0, small, cap=100)) == []


def test_primes_in_power_interval(table_small):
    assert list(primes_in_power_interval(5, 30, 1.0, table_small)) == [7]
    assert list(primes_in_power_interval(7, 30, 1.0, table_small)) == []
    assert list(primes_in_power_interval(2, 30, 1.0, table_small)) == []
    assert list(primes_in_power_interval(11, 30, 1.0, table_small)) == [13, 17]
    assert list(primes_in_power_interval(13, 30, 1.0, table_small)) == [17, 19, 23]
    # cap cuts the window without changing membership below it
    assert list(primes_in_power_interval(13, 30, 1.0, table_small, cap=20)) == [17, 19]
