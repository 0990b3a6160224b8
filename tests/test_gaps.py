import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factorgaps import (
    build_prime_table,
    factorize,
    gap_profile,
    merge_summaries,
    partial_alternating_sum,
    scan_range,
    theoretical_density,
)
from factorgaps import gaps as gaps_module
from factorgaps import boundary, cli, counting, oracle
from factorgaps import sieve as sieve_module
from factorgaps.gaps import (
    MAX_SCAN_END,
    MODE_PER_N,
    MODE_PER_RANGE,
    EmptySampleError,
    _finish_blocks,
    _sieve_segment,
    _sieving_primes,
    _Workspace,
)

TABLE_5E4 = build_prime_table(50_000)  # reaches sqrt(2**31 + 2000)


def summaries_equal(a, b):
    return (
        (a.a, a.b, a.total) == (b.a, b.b, b.total)
        and a.eligible == b.eligible
        and np.array_equal(a.hist, b.hist)
        and a.exceed == b.exceed
    )


# ---------------------------------------------------------------- profiles


def test_profile_12(table_small):
    pr = gap_profile(factorize(12, table_small))
    assert pr.omega == 2
    assert pr.gap == pytest.approx(oracle.naive_f(12), rel=1e-15)
    assert pr.gap == pytest.approx(0.4605607481983634, rel=1e-13)
    assert pr.ratio == pytest.approx(math.exp(pr.gap), rel=1e-15)


def test_profile_absent_for_prime_powers(table_small):
    for n in (17, 128, 1 << 10, 3**7):
        pr = gap_profile(factorize(n, table_small))
        assert pr.gap is None and pr.ratio is None
        assert oracle.naive_f(n) is None


def test_profile_34(table_small):
    pr = gap_profile(factorize(34, table_small))
    assert pr.gap == pytest.approx(1.407924445356445, rel=1e-13)
    assert pr.ratio == pytest.approx(4.08746284125034, rel=1e-13)


def test_profile_30_ties_to_first(table_small):
    pr = gap_profile(factorize(30, table_small))
    # ratios (1.58496, 1.46497): the first wins
    assert pr.ratio == math.log(3) / math.log(2)
    assert pr.gap == pytest.approx(0.4605607481983634, rel=1e-13)


def test_profile_argmax_later_pair(table_small):
    # 3*5*61: ln61/ln5 beats ln5/ln3
    pr = gap_profile(factorize(3 * 5 * 61, table_small))
    assert pr.ratio == pytest.approx(math.log(61) / math.log(5), rel=1e-15)


def test_profile_radical_invariance(table_small):
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randrange(2, 100_001)
        fact = factorize(n, table_small)
        rad = 1
        for p in fact.primes:
            rad *= p
        assert gap_profile(factorize(rad, table_small)).gap == gap_profile(fact).gap


def test_profile_vs_oracle_sample(table_small):
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randrange(2, 100_001)
        got = gap_profile(factorize(n, table_small)).gap
        ref = oracle.naive_f(n)
        if ref is None:
            assert got is None
        else:
            assert got == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------- kernel


def sieve_fresh(lo, hi, table, ws=None, sieving=None):
    """_sieve_segment then _finish_blocks on [lo, hi), in a workspace of
    its own unless given: the cofactor, last_log and max_ratio, copied out
    of the workspace. Every table prime is passed (``sieving``, made from
    ``table`` unless given), as scan_range passes primes up to the root of
    its whole range; the kernel must stop at this window's root."""
    ws = ws or _Workspace(hi - lo)
    sieving = sieving or _sieving_primes(table, table.limit**2 + 1)
    _sieve_segment(lo, hi, *sieving, ws)
    blocks = [(sl, n.copy(), cof.copy()) for sl, n, cof, _ in _finish_blocks(lo, hi, ws)]
    assert [sl.start for sl, _, _ in blocks] == list(range(0, hi - lo, ws.block))
    assert np.array_equal(np.concatenate([n for _, n, _ in blocks]), np.arange(lo, hi))
    cof = np.concatenate([cof for _, _, cof in blocks])
    return cof, ws.last_log[: hi - lo].copy(), ws.max_ratio[: hi - lo].copy()


def check_sieve_segment(lo, hi, table, got=None):
    """_sieve_segment and _finish_blocks on [lo, hi) (or their result
    ``got``) against factorize + gap_profile per n.

    The kernel takes the log of the surviving cofactor with np.log, which
    can differ from math.log by an ulp, so the exact reference uses np.log
    for that prime; gap_profile (math.log throughout) is matched to 1e-15.
    """
    cof, last_log, max_ratio = got or sieve_fresh(lo, hi, table)
    assert len(cof) == len(last_log) == len(max_ratio) == hi - lo
    root = math.isqrt(hi - 1)
    for i, n in enumerate(range(lo, hi)):
        fact = factorize(n, table)
        pr = gap_profile(fact)
        primes = fact.primes
        big = primes[-1] if primes and primes[-1] > root else 1
        sieved = [p for p in primes if p <= root]
        logs = [math.log(p) for p in sieved] + [float(np.log(big))] * (big > 1)
        ratio = max((q / p for p, q in zip(logs, logs[1:])), default=0.0)
        # eligibility (omega >= 2) is exactly a positive ratio
        assert (cof[i], max_ratio[i] > 0) == (big, pr.omega >= 2), n
        assert last_log[i] == (math.log(sieved[-1]) if sieved else math.inf), n
        assert max_ratio[i] == ratio, n
        if pr.ratio is not None:
            assert max_ratio[i] == pytest.approx(pr.ratio, rel=1e-15, abs=0), n


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(1, 10**8 - 5000), length=st.integers(1, 5000))
def test_sieve_segment_matches_factorization(table_small, lo, length):
    # lo % 30030 varies, so the presieve pattern is tiled at every offset
    check_sieve_segment(lo, lo + length, table_small)


@pytest.mark.parametrize(
    "lo,hi",
    [
        (1, 3000),  # from n = 1, where small n are their own primes
        (1, 30),  # hi - 1 < 49: only 2, 3, 5 are pre-sieved
        (1, 25),  # hi - 1 < 25: the pattern of 2, 3 is tiled 4 times
        (10**6, 10**6 + 65_000),  # the mod-30030 pattern is tiled 3 times
        (100, 169),  # hi - 1 < 169: 13 is not pre-sieved
        (2**31 - 2000, 2**31 + 2000),  # where int32 integers would overflow
    ],
)
def test_sieve_segment_edge_windows(lo, hi):
    check_sieve_segment(lo, hi, TABLE_5E4)


TABLE_107E4 = build_prime_table(1_070_000)  # reaches sqrt(1031**2 * 1033**2 + 40)


@pytest.mark.parametrize("size", [None, 1000, 1])
@pytest.mark.parametrize(
    "n,half",
    [
        (1031**3, 1500),  # a cube of a prime with p * p > size
        (1031**2 * 1033**2, 40),  # two such squares on one n, in one multiply.at
    ],
)
def test_sieve_segment_large_prime_powers(n, half, size):
    # p**k (k >= 2) of primes with p * p > the workspace length take the
    # vectorized pass; at size 1 every prime does, 2 included
    half = 8 if size == 1 else half  # each one-integer segment loops over every prime
    lo, hi = n - half, n + half
    ws = _Workspace(size or hi - lo)
    for s in range(lo, hi, ws.size):
        e = min(s + ws.size, hi)
        check_sieve_segment(s, e, TABLE_107E4, sieve_fresh(s, e, TABLE_107E4, ws))


def sieve_in_segments(lo, hi, table, size, sieving):
    """sieve_fresh over [lo, hi) in segments of ``size`` through one
    workspace, the parts joined."""
    ws = _Workspace(size)
    parts = [sieve_fresh(s, min(s + size, hi), table, ws, sieving) for s in range(lo, hi, size)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def check_pass_window(lo, hi, table, sieving, sizes):
    """The whole window against factorization, and every segmentation of
    it (the same root throughout) bit for bit against the whole window."""
    assert math.isqrt(lo) == math.isqrt(hi - 1)
    whole = sieve_fresh(lo, hi, table, sieving=sieving)
    check_sieve_segment(lo, hi, table, whole)
    for size in sizes:
        got = sieve_in_segments(lo, hi, table, size, sieving)
        assert all(np.array_equal(a, b) for a, b in zip(got, whole)), size


@pytest.mark.parametrize("lo", [10**12 + 10**6, 1_144_000_000_000])
def test_large_prime_pass_near_1e12(lo):
    # primes above min(PASS_FLOOR, segment length) up to 1.07e6 take the
    # pass; one n often holds two or three of them
    sieving = _sieving_primes(TABLE_107E4, TABLE_107E4.limit**2 + 1)
    check_pass_window(lo, lo + 128, TABLE_107E4, sieving, sizes=(1, 37))


@pytest.fixture(scope="module")
def table_32e6():
    table = build_prime_table(32_000_000)  # reaches sqrt(1.024e15)
    return table, _sieving_primes(table, table.limit**2 + 1)


@pytest.mark.parametrize(
    "factors",
    [
        ((100_000, 1), (100_020, 1), (100_040, 1)),  # three distinct primes above 2**14
        ((31_000_000, 1), (32_000_000 - 1000, 1)),  # two near the root
        ((16_400, 2), (3_700_000, 1)),  # p**2 of a prime above 2**14
        ((16_400, 3), (220, 1)),  # p**3 of a prime above 2**14
    ],
)
def test_large_prime_pass_near_1e15(table_32e6, factors):
    # n is the product of the first primes above each base, raised to its
    # exponent; the window holds n and its 3 neighbours
    table, sieving = table_32e6
    n = math.prod(int(table.primes[np.searchsorted(table.primes, b)]) ** e for b, e in factors)
    assert 9 * 10**14 < n < 1_024 * 10**12
    check_pass_window(n - 2, n + 2, table, sieving, sizes=(1, 3))


@pytest.mark.parametrize(
    "n,factors",
    [
        (10**15 + 37, ((10**15 + 37, 1),)),
        (31_000_003 * 31_999_007, ((31_000_003, 1), (31_999_007, 1))),
        (999_999_999_999_989, ((999_999_999_999_989, 1),)),
        (2**48 * 3, ((2, 48), (3, 1))),
    ],
)
def test_factorize_near_1e15(table_32e6, n, factors):
    assert factorize(n, table_32e6[0]).factors == factors


@settings(max_examples=50, deadline=None)
@given(lo=st.integers(10**12, 10**15 - 64), length=st.integers(1, 32))
@example(lo=10**15 - 64, length=32)
def test_sieve_segment_matches_factorization_far(table_32e6, lo, length):
    # test_sieve_segment_matches_factorization at far windows, where most
    # sieving primes take the large-prime pass
    table, sieving = table_32e6
    check_sieve_segment(lo, lo + length, table, sieve_fresh(lo, lo + length, table, sieving=sieving))


def sympy_state(n, root):
    """The kernel's state for n, from sympy.factorint and math.log alone,
    with the primes up to ``root`` sieved: (prod, cofactor, last_log,
    max_ratio), max_ratio over every distinct prime factor."""
    factors = sorted(pytest.importorskip("sympy").factorint(n).items())
    sieved = [p for p, _ in factors if p <= root]
    prod = math.prod(p**e for p, e in factors if p <= root)
    logs = [math.log(p) for p, _ in factors]
    ratio = max((q / p for p, q in zip(logs, logs[1:])), default=0.0)
    return prod, n // prod, math.log(sieved[-1]) if sieved else math.inf, ratio


@pytest.fixture(scope="module")
def table_2_53():
    table = build_prime_table(math.isqrt(MAX_SCAN_END - 1))  # 5484598 primes
    return table, _sieving_primes(table, MAX_SCAN_END)


@pytest.mark.parametrize(
    "lo,hi", [(2**53 - 2**17, 2**53), (10**15, 10**15 + 2**17), (10**12, 10**12 + 2**17)]
)
def test_kernel_matches_sympy_reference(monkeypatch, table_2_53, lo, hi):
    # one segment of two sub-blocks, bitwise equal to one sub-block, where
    # an offset error in the tile or the strided primes would show; its 64
    # integers nearest MAX_SCAN_END or 1e15 against sympy: prod, cofactor
    # and last_log exact, max_ratio within an ulp (the cofactor's log is
    # np.log's; at 9007199254739857 = 89 * 313 * 2579 * 125373019 it is an
    # ulp off)
    table, sieving = table_2_53
    ws = _Workspace(hi - lo)
    cof, last_log, max_ratio = sieve_fresh(lo, hi, table, ws, sieving)
    prod = ws.prod[: hi - lo].copy()
    monkeypatch.setattr(gaps_module, "SIEVE_BLOCK", 2**20)
    got = sieve_fresh(lo, hi, table, ws, sieving)
    assert all(np.array_equal(a, b) for a, b in zip(got, (cof, last_log, max_ratio)))
    assert np.array_equal(ws.prod[: hi - lo], prod)
    root = math.isqrt(hi - 1)
    near = [*range(hi - 64, hi), 9007199254739857] if hi == MAX_SCAN_END else range(lo, lo + 64)
    for n in near:
        i = n - lo
        want_prod, want_cof, want_last, want_ratio = sympy_state(n, root)
        assert (prod[i], cof[i], last_log[i]) == (want_prod, want_cof, want_last), n
        assert abs(max_ratio[i] - want_ratio) <= math.ulp(want_ratio), n


def test_table_logs_made_once(monkeypatch):
    # one math.log call per prime, whatever the walks; both slice one array
    calls = []

    def log(x):
        calls.append(x)
        return math.log(x)

    monkeypatch.setattr(sieve_module, "log", log)
    table = build_prime_table(10_000)
    first, second = (_sieving_primes(table, b)[1] for b in (10**6, 10**8))
    assert len(calls) == len(table) == 1229
    assert np.shares_memory(first, table.logs) and np.shares_memory(second, table.logs)
    scan_range(10**7, 10**7 + 5000, [1.0], table)
    assert len(calls) == len(table)


def test_table_logs_are_math_log(table_small, table_2_53):
    for table in (table_small, table_2_53[0]):
        want = np.fromiter(map(math.log, table.primes.tolist()), float, len(table))
        assert table.logs.tobytes() == want.tobytes()


@settings(max_examples=15, deadline=None)
@given(lo=st.integers(10**12, MAX_SCAN_END - 64), length=st.integers(1, 64))
@example(lo=MAX_SCAN_END - 64, length=64)
def test_kernel_matches_sympy_far(table_2_53, lo, length):
    # short windows anywhere from 1e12 to 2**53 against sympy, over the
    # table to isqrt(2**53 - 1): the kernel's primes stop at each window's root
    table, sieving = table_2_53
    cof, last_log, max_ratio = sieve_fresh(lo, lo + length, table, sieving=sieving)
    root = math.isqrt(lo + length - 1)
    for i, n in enumerate(range(lo, lo + length)):
        prod, want_cof, want_last, want_ratio = sympy_state(n, root)
        assert (cof[i], last_log[i]) == (want_cof, want_last), n
        assert abs(max_ratio[i] - want_ratio) <= math.ulp(want_ratio), n


@pytest.mark.parametrize("floor", [16, 64, 300])
@pytest.mark.parametrize("lo,hi", [(10**6, 10**6 + 3000), (2**31 - 2000, 2**31 + 2000)])
def test_large_prime_pass_equals_the_loop(monkeypatch, floor, lo, hi):
    # with PASS_FLOOR lowered, primes above it that strike a segment many
    # times take the pass too, and at floor 16 even their squares are
    # shorter than the segment, so the power steps stride them; prod,
    # last_log and max_ratio stay the loop's, which the edge windows check
    want = sieve_fresh(lo, hi, TABLE_5E4)
    monkeypatch.setattr(gaps_module, "PASS_FLOOR", floor)
    got = sieve_fresh(lo, hi, TABLE_5E4)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def strike_with_floats(lo, primes, operands, prod, last_log, max_ratio):
    """The strided loop with Python floats, p and math.log(p), which every
    ufunc call converts: the bits the operand table must give."""
    assert len(operands) == len(primes)
    for p in primes.tolist():
        start = -lo % p
        if start >= prod.size:
            continue
        lp = math.log(p)
        ll = last_log[start::p]
        mr = max_ratio[start::p]
        np.maximum(mr, np.divide(lp, ll, out=ll), out=mr)
        ll.fill(lp)
        pr = prod[start::p]
        np.multiply(pr, float(p), out=pr)


def sieved_state(lo, hi, size):
    """prod, last_log and max_ratio as _sieve_segment leaves them, over
    [lo, hi) in segments of ``size``, the parts joined."""
    ws, sieving, parts = _Workspace(size), _sieving_primes(TABLE_5E4, hi), []
    for s in range(lo, hi, size):
        _sieve_segment(s, min(s + size, hi), *sieving, ws)
        parts.append([a[: min(s + size, hi) - s].copy() for a in (ws.prod, ws.last_log, ws.max_ratio)])
    return [np.concatenate(a) for a in zip(*parts)]


@pytest.mark.parametrize(
    "lo,hi,size",
    [
        (100, 169, 69),  # root below 13: the tile alone
        (10**6, 10**6 + 3000, 3000),
        (2**31 - 2000, 2**31 + 2000, 4000),
        (10**8 + 4321, 10**8 + 4321 + 2**17 + 5000, 2**17),  # a tail shorter than a sub-block
    ],
)
def test_operands_change_no_bit(monkeypatch, lo, hi, size):
    # the 0-d float64 operands give the bits that Python floats gave
    want = sieved_state(lo, hi, size)
    monkeypatch.setattr(gaps_module, "_strike", strike_with_floats)
    got = sieved_state(lo, hi, size)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_walk_builds_operands_once(monkeypatch):
    built, build = [], gaps_module._operands

    def spy(primes, logs):
        built.append(primes.size)
        return build(primes, logs)

    monkeypatch.setattr(gaps_module, "_operands", spy)
    got = scan_range(16, 16 + 3 * 4096 + 100, [1.0], TABLE_5E4, segment_size=4096)
    assert built == [29]  # the primes up to isqrt(12403) = 111, once for 4 segments
    monkeypatch.undo()
    assert summaries_equal(got, scan_range(16, 16 + 3 * 4096 + 100, [1.0], TABLE_5E4))


WINDOWS = st.one_of(
    st.tuples(st.integers(1, 150), st.integers(1, 18)),  # root < 13
    st.tuples(st.integers(1, 10**6), st.integers(1, 400)),
    st.tuples(st.integers(2**31 - 300, 2**31), st.integers(1, 300)),  # 2**31
)


@settings(max_examples=15, deadline=None)
@given(windows=st.lists(WINDOWS, min_size=3, max_size=6))
@example(windows=[(2**31 - 200, 300), (100, 60), (5, 20), (10**6, 400), (2**31 - 3, 6)])
def test_workspace_reuse_leaks_no_state(windows):
    # one workspace through consecutive windows of any length and root
    ws = _Workspace(max(n for _, n in windows))
    for lo, n in windows:
        shared = sieve_fresh(lo, lo + n, TABLE_5E4, ws)
        fresh = sieve_fresh(lo, lo + n, TABLE_5E4)
        assert all(np.array_equal(a, b) for a, b in zip(shared, fresh)), (lo, n)
        check_sieve_segment(lo, lo + n, TABLE_5E4, shared)


def test_workspace_rejects_segments_that_do_not_fit():
    ws = _Workspace(100)
    sieving = _sieving_primes(TABLE_5E4, 1000)
    with pytest.raises(ValueError):
        _sieve_segment(16, 117, *sieving, ws)  # longer than the workspace


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_post_pass_block_length_changes_nothing(monkeypatch, table_small, block):
    # segments of 1000 and 4099 integers, windows not multiples of block
    thr = (0.5, 1.0, 2.0)
    cases = [((16, 9_999), dict(segment_size=1000)), ((2**31 - 5000, 2**31 + 3000), {})]
    pars = [counting.make_params(x, c) for x, c in ((3_001, 1.0), (2_500, 0.5))]

    def results():
        gaps_module._scan_workspace.cache_clear()
        out = []
        for (a, b), kw in cases:
            for mode in (MODE_PER_N, MODE_PER_RANGE):
                out.append(scan_range(a, b, thr, TABLE_5E4, mode, **kw))
                out.append(scan_range(a, b, thr, TABLE_5E4, mode, **kw, distribution=False))
        with boundary.force_extended():  # re-decides every n by index
            forced = [counting.direct_counts(p, table_small) for p in pars]
        return out, [counting.direct_counts(p, table_small) for p in pars] + forced

    want_scans, want_counts = results()
    monkeypatch.setattr(gaps_module, "POST_BLOCK", block)
    got_scans, got_counts = results()
    assert _Workspace(4099).block == block
    for got, want in zip(got_scans, want_scans):
        assert got.config() == want.config()
        assert summaries_equal(got, want) if want.hist is not None else exceedances_equal(got, want)
    assert got_counts == want_counts
    check_sieve_segment(10**6 - 13, 10**6 + 200, TABLE_5E4)  # blocks of this length


BLOCK_WINDOWS = [
    (1, 30),  # hi - 1 < 49: the pattern of 2, 3, 5
    (100, 169),  # hi - 1 < 169: 13 is not pre-sieved
    (16, 150),
    (7 * 30030 - 5000, 7 * 30030 + 5000),  # across a period of the pattern
    (10**6 + 12_345, 10**6 + 21_345),  # lo % 30030 = 9_735
    (10**7 + 29_000, 10**7 + 38_000),  # lo % 30030 = 8_730, across a period
    (2**31 - 2000, 2**31 + 2000),
]


@pytest.fixture(scope="module")
def block_windows_default():
    """The kernel's result on each of BLOCK_WINDOWS at the default
    SIEVE_BLOCK, checked against factorization once."""
    want = [sieve_fresh(lo, hi, TABLE_5E4) for lo, hi in BLOCK_WINDOWS]
    for (lo, hi), got in zip(BLOCK_WINDOWS, want):
        check_sieve_segment(lo, hi, TABLE_5E4, got)
    return want


@pytest.mark.parametrize("block", [1, 7, 4096, 8192])
def test_sieve_block_length_changes_nothing(monkeypatch, block_windows_default, block):
    # sub-blocks of 1, 7 and 4096 integers only tile the pattern; at 8192
    # the primes 17..31 strike per sub-block too; every window is one
    # segment, cut at several offsets mod 30030, and bitwise equal to the
    # default, which passes check_sieve_segment
    monkeypatch.setattr(gaps_module, "SIEVE_BLOCK", block)
    for (lo, hi), want in zip(BLOCK_WINDOWS, block_windows_default):
        got = sieve_fresh(lo, hi, TABLE_5E4)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (lo, hi)


@pytest.mark.parametrize("block", [2**12, 2**20])
def test_default_sieve_blocks_change_nothing(monkeypatch, block):
    # one segment of three default sub-blocks and a tail, against 49
    # sub-blocks with no strided prime in them and against one sub-block
    # where the primes up to 4096 strike; its last 12000 integers, across
    # the last edge, against factorization
    lo = 10**8 + 4321
    hi = lo + 3 * gaps_module.SIEVE_BLOCK + 999
    want = sieve_fresh(lo, hi, TABLE_5E4)
    monkeypatch.setattr(gaps_module, "SIEVE_BLOCK", block)
    got = sieve_fresh(lo, hi, TABLE_5E4)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    check_sieve_segment(hi - 12_000, hi, TABLE_5E4, tuple(a[-12_000:] for a in got))


def workspace_bytes(size):
    ws = _Workspace(size)
    return sum(a.nbytes for a in vars(ws).values() if isinstance(a, np.ndarray))


def test_workspace_footprint():
    # per integer: prod, last_log and max_ratio, all float64
    assert workspace_bytes(2**20) <= 26 * 2**20


def test_default_workspace_footprint():
    # 24 B per integer plus the post-pass block buffers, ramp and two
    # masks, which do not grow with the segment
    size = gaps_module.DEFAULT_SEGMENT_SIZE
    block = min(gaps_module.POST_BLOCK, size)
    assert workspace_bytes(size) <= 24 * size + 42 * block
    assert workspace_bytes(size) <= 8 * 2**20


HIST_16_4096 = {
    186: 5, 187: 12, 188: 23, 189: 24, 190: 25, 191: 27, 192: 33, 193: 36,
    194: 43, 195: 94, 196: 68, 197: 95, 198: 86, 199: 70, 200: 64, 201: 88,
    202: 105, 203: 167, 204: 91, 205: 107, 206: 115, 207: 152, 208: 110,
    209: 100, 210: 80, 211: 101, 212: 111, 213: 95, 214: 102, 215: 83,
    216: 78, 217: 63, 218: 77, 219: 76, 220: 73, 221: 73, 222: 71, 223: 76,
    224: 21, 225: 21, 226: 31, 227: 37, 228: 43, 229: 65, 230: 62, 231: 103,
    232: 80, 233: 124,
}
HIST_2_31 = {
    178: 3, 179: 8, 180: 15, 181: 10, 182: 22, 183: 12, 184: 14, 185: 20,
    186: 24, 187: 26, 188: 24, 189: 27, 190: 51, 191: 38, 192: 35, 193: 38,
    194: 61, 195: 113, 196: 72, 197: 89, 198: 87, 199: 159, 200: 66, 201: 94,
    202: 93, 203: 136, 204: 134, 205: 93, 206: 129, 207: 122, 208: 100,
    209: 88, 210: 111, 211: 77, 212: 108, 213: 90, 214: 89, 215: 103,
    216: 86, 217: 54, 218: 86, 219: 58, 220: 64, 221: 49, 222: 42, 223: 62,
    224: 57, 225: 48, 226: 35, 227: 61, 228: 73, 229: 13, 230: 20, 231: 21,
    232: 16, 233: 14, 234: 32, 235: 45, 236: 43, 237: 59, 240: 1, 242: 1,
    243: 6, 244: 12, 245: 79, 246: 91,
}
# (eligible, hist, exceed), frozen from the kernel that compacted
# eligible n before its post-pass
PINNED_WINDOWS = {
    (16, 4096, MODE_PER_N): (3486, HIST_16_4096, {0.5: 3481, 1.0: 2781, 2.0: 1267}),
    (16, 4096, MODE_PER_RANGE): (3486, HIST_16_4096, {0.5: 3469, 1.0: 2699, 2.0: 1162}),
    (2**31 - 2000, 2**31 + 2000, MODE_PER_N): (
        3809, HIST_2_31, {0.5: 3678, 1.0: 2795, 2.0: 1344},
    ),
    (2**31 - 2000, 2**31 + 2000, MODE_PER_RANGE): (
        3809, HIST_2_31, {0.5: 3678, 1.0: 2795, 2.0: 1344},
    ),
}


@pytest.mark.parametrize("mode", [MODE_PER_N, MODE_PER_RANGE])
@pytest.mark.parametrize(
    "a,b,segment_size",
    [
        (16, 4096, 64),
        (16, 4096, 1000),
        (2**31 - 2000, 2**31 + 2000, 1000),
        (2**31 - 2000, 2**31 + 2000, 1 << 20),
    ],
)
def test_pinned_prime_dense_windows(a, b, segment_size, mode):
    # most ineligible n land in underflow slot 0 before the correction,
    # so slot 0 (pinned at 0) and eligible pin it
    s = scan_range(
        a, b, [0.5, 1.0, 2.0], TABLE_5E4, mode=mode, segment_size=segment_size
    )
    eligible, slots, exceed = PINNED_WINDOWS[a, b, mode]
    hist = np.zeros(402, dtype=np.int64)
    hist[list(slots)] = list(slots.values())
    assert s.eligible == eligible
    assert np.array_equal(s.hist, hist)
    assert s.exceed == exceed


def test_pinned_moments_near_1e8(table_small):
    # frozen from the kernel before pre-sieving; exact integer regression
    s = scan_range(10**8 - 2**20, 10**8, [0.5, 1.0, 2.0], table_small)
    assert s.eligible == 991_620
    assert s.exceed == {0.5: 960_035, 1.0: 723_604, 2.0: 351_411}
    # frozen when the law replaced the gap moments; read off the histogram
    assert (s.mean_t, s.var_t) == (0.5045415582582043, 0.5371664948189672)
    assert s.ks == (0.14505871790990985, -10.0 + 194 * 0.05)


# ---------------------------------------------------------------- scans


def test_scan_single_prime_power(table_small):
    s = scan_range(16, 17, [1.0], table_small)
    assert s.total == 1 and s.eligible == 0
    assert s.exceed == {1.0: 0}
    assert s.hist.sum() == 0


def test_scan_33_35(table_small):
    # both 33 = 3*11 and 34 = 2*17 exceed c=1: ratios 2.183 and 4.087
    # against thresholds ln ln 33 = 1.2518 and ln ln 34 = 1.2599
    s = scan_range(33, 35, [1.0], table_small)
    assert s.total == 2
    assert s.eligible == 2
    assert s.exceed == {1.0: 2}


def test_scan_totals_reconcile(table_small):
    s = scan_range(16, 100_000, [0.5, 1.0, 2.0], table_small)
    assert s.total == 99_984
    assert 0 < s.eligible < s.total
    assert int(s.hist.sum()) == s.eligible
    for c, cnt in s.exceed.items():
        assert cnt <= s.eligible


def test_scan_matches_profile_path(table_small):
    a, b = 16, 30_000
    s = scan_range(a, b, [0.5, 1.0, 2.0], table_small, segment_size=7_777)
    hist = np.zeros(402, dtype=np.int64)
    exceed = {0.5: 0, 1.0: 0, 2.0: 0}
    eligible = 0
    for n in range(a, b):
        pr = gap_profile(oracle.naive_factorize(n))
        if pr.omega < 2:
            continue
        eligible += 1
        lnln = math.log(math.log(n))
        v = pr.gap - math.log(lnln)
        bi = min(max(math.floor((v + 10.0) * 20.0), -1), 400)
        hist[bi + 1] += 1
        for c in exceed:
            if pr.ratio > c * lnln:
                exceed[c] += 1
    assert s.eligible == eligible
    assert np.array_equal(s.hist, hist)
    assert s.exceed == exceed


def test_scan_deterministic_and_segment_independent(table_small):
    base = scan_range(16, 50_000, [1.0], table_small)
    again = scan_range(16, 50_000, [1.0], table_small)
    assert summaries_equal(base, again)
    for size in (999, 4096, 1 << 20):
        assert summaries_equal(
            base, scan_range(16, 50_000, [1.0], table_small, segment_size=size)
        )


def test_merge_partition_law(table_small):
    thr = (0.5, 1.0)
    direct = scan_range(16, 40_000, thr, table_small)
    rng = random.Random(2)
    for _ in range(3):
        cuts = sorted(rng.sample(range(17, 40_000), 3))
        parts = [
            scan_range(a, b, thr, table_small)
            for a, b in zip([16] + cuts, cuts + [40_000])
        ]
        merged = functools.reduce(merge_summaries, parts)
        assert summaries_equal(merged, direct)
        assert (merged.a, merged.b) == (16, 40_000)


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(17, 60_000),
    cut_seeds=st.lists(st.floats(0, 1), max_size=4),
    segment_size=st.integers(64, 20_000),
    mode=st.sampled_from([MODE_PER_N, MODE_PER_RANGE]),
)
def test_merge_law_random_partitions(table_small, b, cut_seeds, segment_size, mode):
    thr = (0.5, 1.0, 2.0)
    kw = dict(mode=mode, range_point=b - 1, segment_size=segment_size)
    direct = scan_range(16, b, thr, table_small, **kw)
    cuts = sorted({16 + int(u * (b - 16)) for u in cut_seeds} - {16, b})
    parts = [scan_range(a, z, thr, table_small, **kw) for a, z in zip([16] + cuts, cuts + [b])]
    merged = functools.reduce(merge_summaries, parts)  # folded from the first part
    assert summaries_equal(merged, direct)
    assert (merged.a, merged.b, merged.config()) == (16, b, direct.config())


def test_merge_joins_neighbours_in_order(table_small):
    s1 = scan_range(16, 1_000, [1.0], table_small)
    s2 = scan_range(1_000, 6_000, [1.0], table_small)
    joined = merge_summaries(s1, s2)
    assert (joined.a, joined.b, joined.total) == (16, 6_000, 5_984)
    assert summaries_equal(joined, scan_range(16, 6_000, [1.0], table_small))
    gap = scan_range(7_000, 8_000, [1.0], table_small)
    overlap = scan_range(500, 2_000, [1.0], table_small)
    for left, right in ((s1, gap), (s1, overlap), (s2, s1)):  # s2 then s1: reversed
        with pytest.raises(ValueError, match="not neighbours in order"):
            merge_summaries(left, right)


def test_merge_rejects_mismatch_and_overlap(table_small):
    s1 = scan_range(16, 100, [1.0], table_small)
    s2 = scan_range(100, 200, [2.0], table_small)
    with pytest.raises(ValueError):
        merge_summaries(s1, s2)
    s3 = scan_range(50, 150, [1.0], table_small)
    with pytest.raises(ValueError):
        merge_summaries(s1, s3)


def test_scan_mode_per_range(table_small):
    s = scan_range(33, 35, [1.0], table_small, mode=MODE_PER_RANGE)
    assert s.range_point == 34
    assert s.exceed == {1.0: 2}  # both ratios beat ln ln 34
    # per-range and per-n genuinely differ on a longer stretch
    a = scan_range(16, 10_000, [1.0], table_small)
    b = scan_range(16, 10_000, [1.0], table_small, mode=MODE_PER_RANGE)
    assert a.exceed != b.exceed


def per_range_exceed(a, b, c, range_point, table):
    """The eligible n in [a, b) whose ratio exceeds c ln ln range_point, one
    integer at a time."""
    bound = c * math.log(math.log(range_point))
    ratios = (gap_profile(factorize(n, table)).ratio for n in range(a, b))
    return sum(r is not None and r > bound for r in ratios)


@pytest.mark.parametrize("c", [1.0, 1.5])
@pytest.mark.parametrize("range_point", [2, 10])
def test_scan_per_range_bound_below_zero(table_small, range_point, c):
    # c ln ln 2 < 0 and ln ln 10 = 0.83: every eligible n exceeds these bounds,
    # and no ineligible one, except 1.5 ln ln 10 = 1.25, which takes a comparison
    s = scan_range(16, 5_000, [c], table_small, mode=MODE_PER_RANGE, range_point=range_point)
    assert s.exceed == {c: per_range_exceed(16, 5_000, c, range_point, table_small)}
    assert (s.exceed[c] == s.eligible) == (c * math.log(math.log(range_point)) < 1)


def test_scan_exceed_monotone_in_c(table_small):
    s = scan_range(16, 50_000, [0.25, 0.5, 1.0, 2.0, 4.0], table_small)
    counts = [s.exceed[c] for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize("distribution", [False, True])
@pytest.mark.parametrize("mode", [MODE_PER_N, MODE_PER_RANGE])
@pytest.mark.parametrize(
    "a,b,above",
    [
        (16, 101 * 103 + 1, 1.005),  # ratio(101 * 103) = 1.0042
        (1019 * 1021 - 3000, 1019 * 1021 + 1, 1.0003),  # ratio(1019 * 1021) = 1.00028
    ],
)
def test_threshold_below_every_eligible_ratio(table_small, a, b, above, mode, distribution):
    # each window ends at a product of twin primes, whose ratio is near 1.
    # A c with c ln ln (b - 1) (1 + 1e-12) < 1 puts every bound of the
    # window below 1, so it counts every eligible n; a c `above` times that
    # cut is still compared per n, and the window's last n does not exceed
    # it, so a rule wider by that factor fails here
    cut = 1 / (math.log(math.log(b - 1)) * (1 + 1e-12))
    below, above = cut * (1 - 1e-12), cut * above
    s = scan_range(a, b, [below, above], table_small, mode, distribution=distribution)
    ratios = [gap_profile(factorize(n, table_small)).ratio for n in range(a, b)]
    eligible = sum(r is not None for r in ratios)
    point = (lambda n: n) if mode == MODE_PER_N else (lambda n: b - 1)
    want = sum(
        r is not None and r > above * math.log(math.log(point(n)))
        for n, r in zip(range(a, b), ratios)
    )
    assert s.eligible == eligible
    assert s.exceed == {below: eligible, above: want}
    assert ratios[-1] <= above * math.log(math.log(b - 1))  # so want < eligible


def test_scan_validates_arguments(table_small):
    with pytest.raises(ValueError):
        scan_range(10, 20, [1.0], table_small)  # below the floor
    with pytest.raises(ValueError):
        scan_range(20, 20, [1.0], table_small)
    with pytest.raises(ValueError):
        scan_range(16, 100, [0.0], table_small)
    with pytest.raises(ValueError):
        scan_range(16, 100, [1.0], table_small, mode="sideways")
    with pytest.raises(ValueError):  # n past 2**53 is not exact as a float
        scan_range(2**53 - 10, 2**53 + 1, [1.0], table_small)
    for point in (1, 0, -5):  # ln ln range_point does not exist
        with pytest.raises(ValueError, match="range_point"):
            scan_range(16, 100, [1.0], table_small, MODE_PER_RANGE, point)


def test_scan_law_matches_binned_profiles(table_small):
    # each eligible n binned on its own and put at its bin's midpoint; the
    # summary sums per bin instead, so the two agree to a few ulps
    s = scan_range(16, 20_000, [1.0], table_small)
    mids = []
    for n in range(16, 20_000):
        pr = gap_profile(factorize(n, table_small))
        if pr.omega >= 2:
            i = math.floor((pr.gap - math.log(math.log(math.log(n))) + 10.0) * 20.0)
            mids.append(-10.0 + (i + 0.5) * 0.05)
    mean = math.fsum(mids) / len(mids)
    var = math.fsum((m - mean) ** 2 for m in mids) / len(mids)
    assert s.mean_t == pytest.approx(mean, rel=1e-14)
    assert s.var_t == pytest.approx(var, rel=1e-13)


def test_law_of_a_hand_built_histogram(table_small):
    # 1 n in [-0.05, 0), 3 in [1, 1.05): mean 0.7625, variance 3/16 * 1.05**2
    s = scan_range(16, 17, [1.0], table_small)
    s.hist = np.zeros(402, dtype=np.int64)
    s.hist[1 + 199], s.hist[1 + 220] = 1, 3
    s.eligible = 4
    assert s.mean_t == pytest.approx(0.7625, rel=1e-15)
    assert s.var_t == pytest.approx(3 / 16 * 1.05**2, rel=1e-14)
    # binned CDF at edge u: 0 up to -0.05, 1/4 on [0, 1], 1 from 1.05
    edges = [-10.0 + i * 0.05 for i in range(401)]
    cdf = [0.0] * 200 + [0.25] * 21 + [1.0] * 180
    dist = [abs(f - math.exp(-math.exp(-u))) for f, u in zip(cdf, edges)]
    assert s.ks == (max(dist), edges[220])  # at u = 1, F = 1/4 against Gumbel's 0.69


# ---------------------------------------------------------------- exceedance-only scans


def exceedances_equal(a, b):
    return (a.a, a.b, a.total, a.eligible, a.exceed) == (b.a, b.b, b.total, b.eligible, b.exceed)


NEAR_2_31 = st.integers(2**31 - 5000, 2**31 + 299)


@settings(max_examples=40, deadline=None)
@given(
    a=st.one_of(st.integers(16, 2**31 + 299), NEAR_2_31),
    length=st.integers(1, 4000),
    segment_size=st.integers(1, 5000),
    mode=st.sampled_from([MODE_PER_N, MODE_PER_RANGE]),
    thresholds=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4),
)
@example(a=2**31 - 2000, length=4000, segment_size=1000, mode=MODE_PER_RANGE,
         thresholds=[0.5, 1.0, 2.0])
def test_exceedance_only_scan_equals_full_scan(a, length, segment_size, mode, thresholds):
    b = min(a + length, 2**31 + 300)
    kw = dict(mode=mode, segment_size=segment_size)
    full = scan_range(a, b, thresholds, TABLE_5E4, **kw)
    only = scan_range(a, b, thresholds, TABLE_5E4, **kw, distribution=False)
    assert exceedances_equal(only, full)
    assert only.range_point == full.range_point
    assert only.hist is None


@pytest.mark.parametrize("c", [1.0, 1.5])
@pytest.mark.parametrize("range_point", [2, 10])
def test_exceedance_only_per_range_bound_below_zero(table_small, range_point, c):
    # test_scan_per_range_bound_below_zero's cases, without the histogram
    kw = dict(mode=MODE_PER_RANGE, range_point=range_point)
    s = scan_range(16, 5_000, [c], table_small, **kw, distribution=False)
    assert s.exceed == {c: per_range_exceed(16, 5_000, c, range_point, table_small)}
    assert exceedances_equal(s, scan_range(16, 5_000, [c], table_small, **kw))


@settings(max_examples=25, deadline=None)
@given(
    b=st.integers(17, 60_000),
    cut_seeds=st.lists(st.floats(0, 1), max_size=4),
    segment_size=st.integers(64, 20_000),
    mode=st.sampled_from([MODE_PER_N, MODE_PER_RANGE]),
)
def test_exceedance_only_merge_law(table_small, b, cut_seeds, segment_size, mode):
    thr = (0.5, 1.0, 2.0)
    kw = dict(mode=mode, range_point=b - 1, segment_size=segment_size, distribution=False)
    direct = scan_range(16, b, thr, table_small, **kw)
    cuts = sorted({16 + int(u * (b - 16)) for u in cut_seeds} - {16, b})
    parts = [scan_range(a, z, thr, table_small, **kw) for a, z in zip([16] + cuts, cuts + [b])]
    merged = functools.reduce(merge_summaries, parts)  # folded from the first part
    assert exceedances_equal(merged, direct)
    assert merged.config() == direct.config()
    assert merged.hist is None


def test_exceedance_only_summary_refuses_moments_and_mixing(table_small):
    full = scan_range(16, 1_000, [1.0], table_small)
    only = scan_range(1_000, 2_000, [1.0], table_small, distribution=False)
    assert full.config() != only.config()
    for s1, s2 in ((full, only), (only, full)):
        with pytest.raises(ValueError):
            merge_summaries(s1, s2)
    for law in ("mean_t", "var_t", "ks"):
        with pytest.raises(ValueError):
            getattr(only, law)
    after = scan_range(2_000, 3_000, [1.0], table_small, distribution=False)
    both = scan_range(1_000, 3_000, [1.0], table_small, distribution=False)
    assert exceedances_equal(merge_summaries(only, after), both)


# ---------------------------------------------------------------- block bounds and the redo set


def reference_scan(a, b, thresholds, table, mode=MODE_PER_N, segment_size=1 << 18):
    """(eligible, exceed, hist) of [a, b) by the per-integer float
    operations on the blocks of gaps._walk: ln ln n for every n, compared
    as c * ln ln n (per-n) or against c * ln ln (b - 1), and binned with
    ln ln ln n taken from it."""
    exceed = dict.fromkeys(sorted(set(map(float, thresholds))), 0)
    top = math.log(math.log(b - 1))
    eligible, hist = 0, np.zeros(gaps_module.HIST_BINS + 2, dtype=np.int64)
    for _, _, n, _, ratio, _ in gaps_module._walk(a, b, table, segment_size):
        lnln = np.log(np.log(n))
        eligible += int(np.count_nonzero(ratio > 0))
        for c in exceed:
            bound = c * lnln if mode == MODE_PER_N else c * top
            exceed[c] += int(np.count_nonzero(ratio > bound))
        t = np.log(np.maximum(ratio, gaps_module.TINY))
        t -= np.log(lnln)
        t -= gaps_module.HIST_LO
        t *= gaps_module.HIST_INV_WIDTH
        slots = np.clip(np.floor(t), -1, gaps_module.HIST_BINS) + 1
        hist += np.bincount(slots.astype(np.int64), minlength=hist.size)
        hist[0] -= int(np.count_nonzero(ratio == 0))
    return eligible, exceed, hist


def check_against_reference(a, b, thresholds, table, mode, segment_size=1 << 18):
    eligible, exceed, hist = reference_scan(a, b, thresholds, table, mode, segment_size)
    for distribution in (True, False):
        got = scan_range(a, b, thresholds, table, mode, segment_size=segment_size,
                         distribution=distribution)
        assert (got.eligible, got.exceed) == (eligible, exceed), (a, b, distribution)
        assert got.hist is None if not distribution else np.array_equal(got.hist, hist)


@settings(max_examples=40, deadline=None)
@given(
    a=st.one_of(st.integers(16, 10**6), NEAR_2_31),
    length=st.integers(1, 3000),
    segment_size=st.integers(1, 5000),
    mode=st.sampled_from([MODE_PER_N, MODE_PER_RANGE]),
    thresholds=st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4),
    block=st.sampled_from([1, 7, 64, 4096, 2**15]),
    batch=st.sampled_from([1, 3, 64, 2**12]),
)
@example(a=16, length=3000, segment_size=5000, mode=MODE_PER_N, thresholds=[0.5, 1.0, 2.0],
         block=2**15, batch=64)
@example(a=2**31 - 1500, length=3000, segment_size=2000, mode=MODE_PER_RANGE,
         thresholds=[1.0], block=7, batch=3)
@example(a=10**5, length=3000, segment_size=5000, mode=MODE_PER_N, thresholds=[1.0],
         block=2**15, batch=2**12)  # bounds 0.021 bins apart
# 0.4 ln ln n crosses 1 near n = 195 700, inside [194 000, 214 000) as one block
# or many; 210 677 is the first n above it whose ratio, 1.0014, does not exceed
@example(a=194_000, length=20_000, segment_size=2**15, mode=MODE_PER_N,
         thresholds=[0.25, 0.4, 1.0], block=2**15, batch=64)
@example(a=194_000, length=20_000, segment_size=2**15, mode=MODE_PER_N,
         thresholds=[0.25, 0.4, 1.0], block=64, batch=64)
@example(a=194_000, length=20_000, segment_size=2**15, mode=MODE_PER_RANGE,
         thresholds=[0.25, 0.4, 1.0], block=2**15, batch=64)
@example(a=194_000, length=20_000, segment_size=2**15, mode=MODE_PER_RANGE,
         thresholds=[0.25, 0.4, 1.0], block=64, batch=64)
def test_block_bounds_equal_per_integer_scan(
    a, length, segment_size, mode, thresholds, block, batch
):
    # at any post-pass block length and redo batch, with and without the
    # histogram: the per-integer outcomes, where the first blocks above 16
    # leave most n open and later ones a few
    b = min(a + length, 2**31 + 300)
    gaps_module._scan_workspace.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gaps_module, "POST_BLOCK", block)
            mp.setattr(gaps_module, "REDO_BATCH", batch)
            check_against_reference(a, b, thresholds, TABLE_5E4, mode, segment_size)
    finally:
        gaps_module._scan_workspace.cache_clear()


def near_tie_thresholds(r, lnln, lnln_math):
    """The c whose per-integer bound fl(c * lnln) is the nearest double
    above ratio r, and the nearest below, found among the doubles near
    r / lnln; and, where np.log's ln ln n differs from math.log's, a c
    whose two bounds fall on either side of r."""
    c0 = r / lnln
    cs = [c0]
    for direction in (math.inf, -math.inf):
        c = c0
        for _ in range(16):
            c = math.nextafter(c, direction)
            cs.append(c)
    above = min((c for c in cs if c * lnln > r), key=lambda c: c * lnln)
    below = max((c for c in cs if c * lnln < r), key=lambda c: c * lnln)
    split = [c for c in cs if (r > c * lnln) != (r > c * lnln_math)]
    return [above, below] + split[:1]


@pytest.mark.parametrize(
    "lo,hi",
    [(16, 2**16), (2**31 - 2**12, 2**31 + 2**12), (10**12, 10**12 + 2**13),
     (2**53 - 2**16, 2**53 - 2**16 + 2**12)],
)
def test_near_tie_thresholds(table_2_53, lo, hi):
    # per chosen n, c * np.log(np.log(n)) one double above and one below
    # ratio(n): the whole window with every such c against the per-integer
    # scan; each n where np.log's ln ln n differs from math.log's, which
    # the block bounds start from, alone as a block of its own, with a c
    # that splits the two (REDO_EPS is what covers it)
    table, _ = table_2_53
    blocks = [(n.copy(), r.copy()) for _, _, n, _, r, _ in gaps_module._walk(lo, hi, table, 2**18)]
    n, ratio = (np.concatenate(x) for x in zip(*blocks))
    lnln = np.log(np.log(n))
    lnln_math = np.array([math.log(math.log(int(m))) for m in n])
    eligible = ratio > 0
    differ = np.flatnonzero(eligible & (lnln != lnln_math))
    chosen = np.concatenate((differ, np.flatnonzero(eligible)[:: max(1, eligible.sum() // 6)]))
    thresholds, splits = [], 0
    for i in chosen:
        cs = near_tie_thresholds(float(ratio[i]), float(lnln[i]), float(lnln_math[i]))
        thresholds += cs[:2]
        if i in differ and len(cs) == 3:
            splits += 1
            m = int(n[i])
            want = reference_scan(m, m + 1, cs, table)[1]
            assert scan_range(m, m + 1, cs, table).exceed == want, m
    check_against_reference(lo, hi, thresholds, table, MODE_PER_N)
    if lo < 2**53 - 2**16:  # np.log and math.log agree on the 4096 n there
        assert splits > 0


def workspace_spy(monkeypatch):
    """Record each _Workspace the scans build, starting from none kept."""
    built = []

    class Spy(gaps_module._Workspace):
        def __init__(self, size):
            built.append(size)
            super().__init__(size)

    monkeypatch.setattr(gaps_module, "_Workspace", Spy)
    gaps_module._scan_workspace.cache_clear()
    return built


@pytest.mark.parametrize(
    "first,second,builds",
    [
        ((16, 20_000), (50_000, 70_000), 1),  # same segment length: reused
        ((2**31 - 9000, 2**31 - 1000), (2**31 - 4000, 2**31 + 4000), 1),  # below, then across 2**31
        ((2**31 - 4000, 2**31 + 4000), (2**31 - 9000, 2**31 - 1000), 1),  # across, then below
        ((2**31 + 100, 2**31 + 5000), (2**31 - 4000, 2**31 + 4000), 1),  # above, then across
    ],
)
def test_scans_in_one_process_share_a_workspace(monkeypatch, first, second, builds):
    built = workspace_spy(monkeypatch)
    thr, kw = (0.5, 1.0, 2.0), dict(segment_size=4096)
    shared = [scan_range(a, b, thr, TABLE_5E4, **kw) for a, b in (first, second)]
    assert built == [4096] * builds
    for (a, b), got in zip((first, second), shared):
        gaps_module._scan_workspace.cache_clear()
        assert summaries_equal(got, scan_range(a, b, thr, TABLE_5E4, **kw))
        assert exceedances_equal(
            scan_range(a, b, thr, TABLE_5E4, **kw, distribution=False), got
        )


def test_workspace_rebuilt_for_another_segment_length(monkeypatch):
    built = workspace_spy(monkeypatch)
    scan_range(16, 20_000, [1.0], TABLE_5E4, segment_size=4096)
    scan_range(16, 20_000, [1.0], TABLE_5E4, segment_size=1000)
    scan_range(16, 2_000, [1.0], TABLE_5E4, segment_size=4096)  # shorter than a segment
    assert built == [4096, 1000, 1984]


# ---------------------------------------------------------------- densities


def test_theoretical_density_values():
    assert theoretical_density(1.0) == pytest.approx(0.6321205588285577, rel=1e-15)
    assert theoretical_density(2.0) == pytest.approx(1 - math.exp(-0.5), rel=1e-15)
    # large c: series 1/c - 1/(2c^2) + ...
    assert theoretical_density(1000.0) == pytest.approx(0.0009995001666, rel=1e-9)
    with pytest.raises(ValueError):
        theoretical_density(0.0)


def test_partial_alternating_sum_values():
    assert partial_alternating_sum(1.0, 0) == 1.0
    assert partial_alternating_sum(1.0, 3) == pytest.approx(1 / 3, rel=1e-14)
    assert partial_alternating_sum(1.0, 8) == pytest.approx(0.3678819444444445, rel=1e-14)
    with pytest.raises(ValueError):
        partial_alternating_sum(-1.0, 3)
    with pytest.raises(ValueError):
        partial_alternating_sum(1.0, -1)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_or_non_positive_c_is_refused(table_small, c):
    # a NaN threshold once counted every eligible n as exceeding it
    with pytest.raises(ValueError, match="finite"):
        scan_range(16, 10_000, [c, 1.0], table_small)
    with pytest.raises(ValueError, match="finite"):
        theoretical_density(c)
    with pytest.raises(ValueError, match="finite"):
        partial_alternating_sum(c, 3)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_partial_sums_bracket_limit(c):
    lim = math.exp(-1.0 / c)
    for K in range(11):
        s = partial_alternating_sum(c, K)
        if K % 2 == 0:
            assert s >= lim - 1e-15
        else:
            assert s <= lim + 1e-15


def test_empirical_density_report(table_small):
    # a threshold's density is exceed[c] / eligible against the limit
    s = scan_range(16, 100_000, [0.5, 1.0], table_small)
    assert s.b - 1 == 99_999
    empirical = s.exceed[1.0] / s.eligible
    assert 0.0 <= empirical <= 1.0
    theoretical = theoretical_density(1.0)
    assert theoretical == pytest.approx(0.6321205588285577, rel=1e-15)
    sums = [partial_alternating_sum(1.0, K) for K in range(9)]
    # consecutive partial sums bracket the limit
    lim = math.exp(-1.0)
    for K in range(8):
        lo, hi = sorted((sums[K], sums[K + 1]))
        assert lo - 1e-15 <= lim <= hi + 1e-15
    # the density row reports exactly these values
    cfg = cli.RunConfig(subcommand="density", lo=16, hi=100_000, c_values=(0.5, 1.0))
    text, rc = cli.cmd_density(cfg)
    assert rc == 0
    row = next(r for r in json.loads(text)["rows"] if r["c"] == 1.0)
    assert row["empirical"] == empirical
    assert row["theoretical"] == theoretical
    assert row["deviation"] == empirical - theoretical
    assert row["partial_sums"] == sums


def test_empirical_density_errors(table_small):
    s = scan_range(16, 100, [1.0], table_small)
    assert 3.0 not in s.exceed  # only configured thresholds are counted
    assert scan_range(16, 17, [1.0], table_small).eligible == 0
    cfg = cli.RunConfig(subcommand="density", lo=16, hi=17, c_values=(1.0,))
    with pytest.raises(EmptySampleError):
        cli.cmd_density(cfg)


def test_pinned_density_at_1e6(table_small):
    # frozen from the first verified full run; exact integer regression
    s = scan_range(16, 10**6, [0.5, 1.0, 2.0], table_small)
    assert s.total == 999_984
    assert s.eligible == 921_259
    assert s.exceed == {0.5: 898_633, 1.0: 695_369, 2.0: 331_203}
    r = scan_range(16, 10**6, [1.0], table_small, mode=MODE_PER_RANGE)
    assert r.exceed == {1.0: 679_873}
