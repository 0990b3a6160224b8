import math

import pytest

from factorgaps import factorize, oracle


def test_naive_factorize_examples():
    assert oracle.naive_factorize(1).factors == ()
    assert oracle.naive_factorize(9699690).factors == tuple(
        (p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19)
    )
    assert oracle.naive_factorize(2**16).factors == ((2, 16),)


def test_naive_factorize_matches_fast_path(table_small):
    for n in list(range(1, 500)) + [99_991, 65_536, 2 * 3 * 5 * 7 * 11 * 13]:
        assert oracle.naive_factorize(n) == factorize(n, table_small)


def test_naive_f_examples():
    assert oracle.naive_f(6) == pytest.approx(0.4605607481983634, rel=1e-13)
    assert oracle.naive_f(128) is None
    assert oracle.naive_f(34) == pytest.approx(1.407924445356445, rel=1e-13)


def test_naive_N_worked_example():
    assert oracle.naive_N(30, 1.0) == 5


def test_naive_N_vacuous():
    # cutoff belowed 2: no small primes exist, every n counts
    assert oracle.naive_N(16, 100.0) == 16


def test_naive_N_pinned_regression():
    # frozen by this oracle's first run
    assert oracle.naive_N(100, 1.0) == 18


def test_naive_chi_count_examples():
    assert oracle.naive_chi_count((5,), 30, 1.0) == 6
    assert oracle.naive_chi_count((), 30, 1.0) == 30
    assert oracle.naive_chi_count((2, 13), 30, 1.0) == 1


@pytest.mark.parametrize("c", [0.3, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("x", [30, 100, 300])
def test_naive_chi_count_matches_every_n_loop(x, c):
    # naive_chi_count walks only the multiples of its primes; the literal
    # definition tests every n <= x. The repeated prime (3, 3) is why the
    # step is their lcm and not their product.
    facts = [oracle.naive_factorize(n) for n in range(1, x + 1)]
    cases = [primes for _, primes in oracle.naive_wide_squarefree(x, c)] + [(), (3, 3)]
    for m_primes in cases:
        want = sum(
            all(oracle._chi(f.primes, p, f.n, x, c) for p in m_primes) for f in facts
        )
        assert oracle.naive_chi_count(m_primes, x, c) == want, m_primes


def test_naive_wide_squarefree_30():
    got = oracle.naive_wide_squarefree(30, 1.0)
    assert [m for m, _ in got] == [1, 2, 3, 5, 7, 11, 13, 6, 10, 14, 15, 21, 22, 26, 30]
    assert got[-1] == (30, (2, 3, 5))


@pytest.mark.parametrize("x,c", [(30, 1.0), (100, 0.5), (100, 2.0), (200, 1.0)])
def test_oracle_internal_alternating_identity(x, c):
    # the inclusion-exclusion identity verified entirely inside the oracle
    total = 0
    for _, primes in oracle.naive_wide_squarefree(x, c):
        sign = -1 if len(primes) % 2 else 1
        total += sign * oracle.naive_chi_count(primes, x, c)
    assert total == oracle.naive_N(x, c)


def test_oracle_is_deterministic():
    a = oracle.naive_N(50, 1.0)
    b = oracle.naive_N(50, 1.0)
    assert a == b
    assert oracle.naive_f(9999) == oracle.naive_f(9999)


def test_naive_f_uses_first_formula():
    # direct evaluation of the defining formula for a three-prime integer
    n = 3 * 5 * 61
    expect = math.log(max(math.log(5) / math.log(3), math.log(61) / math.log(5)))
    assert oracle.naive_f(n) == pytest.approx(expect, rel=1e-15)
