import contextlib
import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from factorgaps import (
    InsufficientTableError,
    boundary,
    build_prime_table,
    direct_counts,
    factorize,
    inclusion_exclusion,
    inner_counts,
    is_gap_form,
    make_params,
    primes_in_power_interval,
    scan_range,
    wide_squarefree_set,
    window_coprime_density,
)
from factorgaps import counting, oracle
from factorgaps.counting import LayerCount, count_isolated_set, tuple_reciprocal_sum
from factorgaps.gaps import MODE_PER_RANGE


@pytest.fixture(scope="module")
def pars30():
    return make_params(30, 1.0)


# ---------------------------------------------------------------- params


def test_params_30(pars30):
    with mp.workdps(40):
        z = mp.mpf(1.0) * mp.log(mp.log(30))
        y = mp.e ** (mp.log(30) / z)
    assert pars30.gap_exp == pytest.approx(float(z), rel=1e-12)
    assert pars30.small_prime_bound == pytest.approx(float(y), rel=1e-12)
    assert pars30.gap_exp == pytest.approx(1.2241275407015419, rel=1e-13)
    assert pars30.small_prime_bound == pytest.approx(16.094321610556097, rel=1e-13)


def test_params_1e6():
    pars = make_params(10**6, 1.0)
    with mp.workdps(40):
        z = mp.log(mp.log(10**6))
        y = mp.e ** (mp.log(10**6) / z)
    assert pars.gap_exp == pytest.approx(float(z), rel=1e-12)
    assert pars.small_prime_bound == pytest.approx(float(y), rel=1e-12)
    assert pars.small_prime_bound == pytest.approx(192.7635587332766, rel=1e-12)


def test_params_capped_cutoff():
    pars = make_params(16, 1e-3)
    assert pars.gap_exp < 1
    assert pars.small_prime_bound == 16.0


@pytest.mark.parametrize("x,c", [(30, 0.5), (100, 1.0), (2000, 2.0), (10**6, 1.0)])
def test_params_recompute_consistency(x, c):
    pars = make_params(x, c)
    with mp.workdps(40):
        z = mp.mpf(c) * mp.log(mp.log(x))
        y = mp.mpf(x) if z <= 1 else mp.e ** (mp.log(x) / z)
    assert pars.gap_exp == pytest.approx(float(z), rel=1e-12)
    assert pars.small_prime_bound == pytest.approx(float(y), rel=1e-12)
    assert pars.small_prime_bound <= x
    assert (pars.small_prime_bound == x) == (pars.gap_exp <= 1)


def test_params_rejects_bad_input():
    with pytest.raises(ValueError):
        make_params(15, 1.0)
    with pytest.raises(ValueError):
        make_params(30, 0.0)
    with pytest.raises(ValueError):
        make_params(30, -2.0)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError):
            make_params(30, c)


# ---------------------------------------------------------------- predicates


def test_isolated_examples():
    # the oracle's definition of "p is isolated in n", at x = 30, c = 1
    cases = [
        (10, 5, True),  # window (5, 7.17] holds 7, and 7 does not divide 10
        (30, 5, True),
        (14, 2, True),  # window (2, 2.34] holds no prime at all
        (14, 7, True),
        (20, 2, True),
        (15, 2, False),  # 2 does not divide 15
        (10, 2, True),
        (35, 5, False),  # 7 | 35 and 7 <= 5**E
    ]
    for n, p, expect in cases:
        assert oracle._chi(oracle.naive_factorize(n).primes, p, n, 30, 1.0) is expect


def test_gap_form_examples(table_small, pars30):
    assert is_gap_form(factorize(25, table_small), pars30)  # omega = 1, vacuous
    assert is_gap_form(factorize(1, table_small), pars30)
    assert not is_gap_form(factorize(6, table_small), pars30)  # 3 > 2**E
    assert not is_gap_form(factorize(30, table_small), pars30)


# ---------------------------------------------------------------- direct counts


def test_direct_counts_30(table_small, pars30):
    d = direct_counts(pars30, table_small)
    assert d.n_direct == 5
    assert d.n_direct_gapform == 17
    assert d.smooth_gap_count == 12
    assert d.n_direct + d.smooth_gap_count == d.n_direct_gapform

    # the counted set, re-derived from the oracle's definitions
    counted = []
    for fact in map(oracle.naive_factorize, range(1, 31)):
        smalls = [p for p in fact.primes if oracle._is_small(p, 30, 1.0)]
        if all(not oracle._chi(fact.primes, p, fact.n, 30, 1.0) for p in smalls):
            counted.append(fact.n)
    assert counted == [1, 17, 19, 23, 29]


def test_direct_counts_vacuous_when_no_small_primes(table_small):
    pars = make_params(16, 100.0)
    assert pars.small_prime_bound < 2
    d = direct_counts(pars, table_small)
    assert d.n_direct == 16
    assert d.n_direct_gapform == 16
    assert d.smooth_gap_count == 0


@pytest.mark.parametrize("x,c", [(30, 1.0), (100, 0.5), (100, 2.0), (300, 1.0)])
def test_gapform_splits_exactly(table_small, x, c):
    # gap-form integers are the direct set plus the smooth gap-form ones
    pars = make_params(x, c)
    d = direct_counts(pars, table_small)
    assert d.n_direct + d.smooth_gap_count == d.n_direct_gapform
    smooth = 0
    for fact in map(oracle.naive_factorize, range(2, x + 1)):
        if is_gap_form(fact, pars) and boundary.le_root(fact.factors[-1][0], x, c):
            smooth += 1
    assert smooth == d.smooth_gap_count


def _definition_counts(x, c, table):
    # gap-form and smooth gap-form n <= x, one factorization per n
    pars = make_params(x, c)
    gapform = smooth = 0
    for n in range(1, x + 1):
        fact = factorize(n, table)
        if is_gap_form(fact, pars):
            gapform += 1
            smooth += n >= 2 and boundary.le_root(fact.factors[-1][0], x, c)
    return gapform, smooth


@settings(max_examples=25, deadline=None)
@given(x=st.integers(16, 3000), c=st.floats(0.3, 3.0))
def test_direct_counts_match_definition(table_small, x, c):
    d = direct_counts(make_params(x, c), table_small)
    assert (d.n_direct_gapform, d.smooth_gap_count) == _definition_counts(
        x, c, table_small
    )
    assert d.n_direct == oracle.naive_N(x, c)


@pytest.mark.parametrize(
    "x,p,q,want", [(3000, 2, 3, 395), (5000, 3, 7, 693), (2000, 5, 11, 266)]
)
def test_direct_counts_exact_at_constructed_ties(table_small, monkeypatch, x, p, q, want):
    # c puts E on ln q / ln p, so every n whose largest log ratio comes
    # from the pair (p, q) lands in the tie band of the float test
    c = (math.log(q) / math.log(p)) / math.log(math.log(x))
    pars = make_params(x, c)
    assert abs(math.log(q) / math.log(p) - pars.gap_exp) < boundary.TIE_EPS

    calls = []
    le_power = boundary.le_power

    def spy(*args):
        calls.append(args[:2])
        return le_power(*args)

    monkeypatch.setattr(boundary, "le_power", spy)
    fast = direct_counts(pars, table_small)
    assert (q, p) in calls  # the tie band was re-decided exactly
    with boundary.force_extended():
        slow = direct_counts(pars, table_small)
    assert fast == slow
    assert fast.n_direct == oracle.naive_N(x, c) == want


def test_direct_counts_force_extended_decides_every_n(table_small, monkeypatch):
    # under force_extended every n in [1, x] is re-decided from its
    # factorization, omega <= 1 included, and the counts stay exact
    x, c = 3000, 1.0
    seen = []
    exact = counting.is_gap_form

    def spy(fact, pars):
        seen.append(fact.n)
        return exact(fact, pars)

    monkeypatch.setattr(counting, "is_gap_form", spy)
    with boundary.force_extended():
        d = direct_counts(make_params(x, c), table_small)
    assert seen == list(range(1, x + 1))
    assert d.n_direct == oracle.naive_N(x, c)


def test_direct_counts_1e6(table_1e6):
    d = direct_counts(make_params(10**6, 1.0), table_1e6)
    assert (d.n_direct, d.n_direct_gapform, d.smooth_gap_count) == (
        238913, 320126, 81213
    )


@pytest.mark.parametrize("x,c", [(3001, 1.0), (20_000, 0.5), (5000, 2.0)])
def test_direct_counts_independent_of_segment_length(table_small, monkeypatch, x, c):
    # 999-integer segments: blocks and ties fall on every side of a boundary
    pars = make_params(x, c)
    want = direct_counts(pars, table_small)
    monkeypatch.setattr(counting, "DEFAULT_SEGMENT_SIZE", 999)
    assert direct_counts(pars, table_small) == want


def test_direct_counts_past_one_segment_match_the_scan(table_small):
    # [1, x] spans two default segments; gap-form n are those the
    # per-range scan at x does not count, as verify's scan-count check has it
    x, c = counting.DEFAULT_SEGMENT_SIZE + 2**14, 1.0
    pars = make_params(x, c)
    d = direct_counts(pars, table_small)
    s = scan_range(16, x + 1, (c,), table_small, MODE_PER_RANGE, range_point=x,
                   segment_size=2**16, distribution=False)
    low = sum(is_gap_form(factorize(n, table_small), pars) for n in range(1, 16))
    assert d.n_direct_gapform == low + s.total - s.exceed[c]


# ---------------------------------------------------------------- the wide set


def test_wide_set_30(table_small, pars30):
    members = wide_squarefree_set(pars30, table_small)
    by_k = {}
    for m, primes in members:
        by_k.setdefault(len(primes), []).append(m)
    assert len(members) == 15
    assert by_k[0] == [1]
    assert by_k[1] == [2, 3, 5, 7, 11, 13]
    assert by_k[2] == [6, 10, 14, 15, 21, 22, 26]
    assert by_k[3] == [30]
    # ascending by (k, m)
    keys = [(len(primes), m) for m, primes in members]
    assert keys == sorted(keys)


def test_wide_set_member_invariants(table_small, pars30):
    for m, primes in wide_squarefree_set(pars30, table_small):
        prod = 1
        for p in primes:
            prod *= p
        assert prod == m
        assert len(set(primes)) == len(primes)
        assert m <= pars30.x
        for p in primes:
            assert boundary.le_root(p, pars30.x, pars30.c)
        for a, b in zip(primes, primes[1:]):
            assert not boundary.le_power(b, a, pars30.x, pars30.c)


def test_wide_set_30_c3(table_small):
    pars = make_params(30, 3.0)
    assert [m for m, _ in wide_squarefree_set(pars, table_small)] == [1, 2]


@pytest.mark.parametrize(
    "x,c",
    [(30, 1.0), (100, 0.5), (100, 2.0), (300, 1.0), (2000, 0.7)]
    + [pytest.param(x, (p, q), id=f"{x}-tie-{p}-{q}")
       for x, p, q in ((3000, 2, 3), (5000, 3, 7), (2000, 5, 11))],
)
def test_wide_set_matches_bruteforce(table_small, monkeypatch, x, c):
    # c = (p, q) puts E on ln q / ln p, so q sits on the edge of p's window
    # and the walk's window ends must re-decide it exactly
    tie = c if isinstance(c, tuple) else None
    if tie:
        c = (math.log(tie[1]) / math.log(tie[0])) / math.log(math.log(x))
    calls = []
    le_power = boundary.le_power

    def spy(*args):
        calls.append(args[:2])
        return le_power(*args)

    monkeypatch.setattr(boundary, "le_power", spy)
    pars = make_params(x, c)
    # same shape and order as the oracle's list
    assert wide_squarefree_set(pars, table_small) == oracle.naive_wide_squarefree(x, c)
    if tie:
        assert tie[::-1] in calls


@pytest.mark.parametrize("x,c", [(30, 1.0), (100, 0.5), (300, 1.0), (2000, 0.7), (3000, 2.0)])
def test_wide_members_walk_prefix_first(table_small, x, c):
    # each chain comes after its prefix, extensions by ascending prime: the
    # walk is lexicographic by primes, and as a multiset it is the wide set
    walk = list(counting.wide_members(make_params(x, c), table_small))
    seen = {()}
    assert walk[0] == (1, ())
    for _, primes in walk[1:]:
        assert primes[:-1] in seen
        seen.add(primes)
    assert [primes for _, primes in walk] == sorted(primes for _, primes in walk)
    assert sorted(walk) == sorted(oracle.naive_wide_squarefree(x, c))


def test_wide_set_requires_table_reach():
    pars = make_params(10**6, 1.0)  # cutoff ~192.76
    with pytest.raises(InsufficientTableError):
        wide_squarefree_set(pars, build_prime_table(100))


# ---------------------------------------------------------------- inner counts


def test_inner_count_examples(table_small, pars30):
    by_m = {w[0]: w for w in wide_squarefree_set(pars30, table_small)}
    assert count_isolated_set(by_m[5], pars30, table_small) == 6
    assert count_isolated_set(by_m[22], pars30, table_small) == 1
    assert count_isolated_set(by_m[1], pars30, table_small) == 30


def test_inner_count_matches_oracle(table_small, pars30):
    for w in wide_squarefree_set(pars30, table_small):
        assert count_isolated_set(w, pars30, table_small) == oracle.naive_chi_count(
            w[1], 30, 1.0
        )


def test_inner_count_matches_definition_at_150001(table_1e6):
    # C(m) counted from the definition: every prime of m isolated in n
    x = 150_001
    pars = make_params(x, 1.0)
    by_m = dict(wide_squarefree_set(pars, table_1e6))
    want = {1: 150_001, 2: 40_000, 3: 28_773, 5: 15_330}
    ref = dict.fromkeys(want, 0)
    for f in map(oracle.naive_factorize, range(1, x + 1)):
        for m in ref:
            ref[m] += all(oracle._chi(f.primes, p, f.n, x, 1.0) for p in by_m[m])
    assert ref == want
    for m in want:
        assert count_isolated_set((m, by_m[m]), pars, table_1e6) == want[m]


@settings(max_examples=25, deadline=None)
@given(x=st.integers(16, 3000), c=st.floats(0.3, 3.0))
def test_inner_counts_match_oracle(table_small, x, c):
    # the batch runs over the whole wide set, so members share cached
    # windows; every member is checked, below E = 1 too, where the set is
    # every squarefree m <= x
    pars = make_params(x, c)
    members = wide_squarefree_set(pars, table_small)
    got = list(inner_counts(members, pars, table_small))
    assert got == [(m, primes, oracle.naive_chi_count(primes, x, c)) for m, primes in members]


def test_inner_counts_branches(table_small, monkeypatch):
    # (1000, 1): m = 1 needs no bitmap; the others mark small window
    # primes (strided) and large ones (index array). Each base prime's
    # window is cached up to x // p, so some members must cut it at x // m,
    # and some have non-empty cached windows that start above x // m.
    x, c = 1000, 1.0
    pars = make_params(x, c)
    members = wide_squarefree_set(pars, table_small)
    calls = []
    real = counting._unmarked

    def spy(qs, limit):
        calls.append((qs.tolist(), limit))
        return real(qs, limit)

    monkeypatch.setattr(counting, "_unmarked", spy)
    got = list(inner_counts(members, pars, table_small))
    assert got == [(m, primes, oracle.naive_chi_count(primes, x, c)) for m, primes in members]

    # a bitmap exactly for the members with a window prime <= x // m,
    # built from those window primes only
    want = []
    cut = late = 0
    for m, primes in members:
        limit = x // m
        cached = [
            primes_in_power_interval(p, x, c, table_small, cap=x // p) for p in primes
        ]
        qs = [int(q) for part in cached for q in part if q <= limit]
        if qs:
            want.append((qs, limit))
        cut += bool(qs) and any(part[-1] > limit for part in cached if len(part))
        late += not qs and any(len(part) for part in cached)
    assert calls == want
    assert 0 < len(calls) < len(members)
    assert cut and late
    assert any(32 * q <= limit for qs, limit in calls for q in qs)
    assert any(32 * q > limit for qs, limit in calls for q in qs)


@pytest.mark.parametrize("x,c", [(1000, 1.0), (3000, 0.5), (3000, (2, 3))],
                         ids=["1000-1", "3000-0.5", "3000-tie-2-3"])
def test_inner_counts_annotate_their_input(table_small, x, c):
    # a one-shot iterator in, each pair out unchanged and in order with its
    # C(m); the tie case puts 3 on the edge of 2's window, decided exactly
    tie = isinstance(c, tuple)
    if tie:
        c = (math.log(c[1]) / math.log(c[0])) / math.log(math.log(x))
    pars = make_params(x, c)
    with boundary.force_extended() if tie else contextlib.nullcontext():
        members = wide_squarefree_set(pars, table_small)
        got = list(inner_counts(iter(members), pars, table_small))
    assert [(m, primes) for m, primes, _ in got] == members
    for m, primes, count in got:
        assert count == oracle.naive_chi_count(primes, x, c), (m, primes)


def test_unmarked_against_brute_force():
    # strided primes (32 * q <= limit), index-array primes, and both mixed
    for qs, limit in (([3, 7], 1000), ([41, 97, 499], 1000), ([2, 31, 32, 997], 1000)):
        want = sum(all(v % q for q in qs) for v in range(1, limit + 1))
        assert counting._unmarked(np.array(qs, dtype=np.int64), limit) == want


def test_layers_1e6_half_pinned(table_1e6):
    # per-layer (k, members, N_k) at (1e6, 0.5), where 92 % of the 277 206
    # members take the no-bitmap shortcut
    bd = inclusion_exclusion(make_params(10**6, 0.5), table_1e6)
    assert [(l.k, l.m_count, l.count) for l in bd.per_k] == [
        (0, 1, 1_000_000),
        (1, 3936, 2_363_431),
        (2, 91_505, 2_296_919),
        (3, 128_184, 1_054_222),
        (4, 48_636, 208_343),
        (5, 4939, 13_051),
        (6, 5, 5),
    ]
    assert bd.n_inclusion_exclusion == bd.n_direct == 74_563


# ---------------------------------------------------------------- breakdown


@pytest.mark.parametrize("extended", [False, True], ids=["double", "extended"])
@pytest.mark.parametrize("x,c", [(3000, 2.0), (20_000, 0.5), (20_000, 0.7), (100_000, 0.4)])
def test_breakdown_never_holds_the_wide_set(table_1e6, monkeypatch, x, c, extended):
    # the layers come from one pass over the walk; the reference groups the
    # sorted set and its inner counts by omega (c = 0.4 at 1e5: all wide)
    pars = make_params(x, c)
    members = wide_squarefree_set(pars, table_1e6)
    rows = inner_counts(members, pars, table_1e6)
    want = []
    for k, layer in groupby(rows, key=lambda row: len(row[1])):
        layer = list(layer)
        want.append(LayerCount(
            k, len(layer), sum(n for _, _, n in layer), math.fsum(1.0 / m for m, _, _ in layer)
        ))

    def held(*args):
        raise AssertionError("inclusion_exclusion must not hold the wide set")

    monkeypatch.setattr(counting, "wide_squarefree_set", held)
    with boundary.force_extended() if extended else contextlib.nullcontext():
        bd = inclusion_exclusion(pars, table_1e6)
    assert bd.per_k == tuple(want)
    assert bd.n_inclusion_exclusion == bd.n_direct


def test_breakdown_30(table_small, pars30):
    bd = inclusion_exclusion(pars30, table_small)
    assert [(l.k, l.m_count, l.count) for l in bd.per_k] == [
        (0, 1, 30),
        (1, 6, 39),
        (2, 7, 15),
        (3, 1, 1),
    ]
    assert bd.bonferroni == ((0, 30), (1, -9), (2, 6), (3, 5))
    assert bd.n_inclusion_exclusion == 5 == bd.n_direct


def test_breakdown_16_large_c(table_small):
    bd = inclusion_exclusion(make_params(16, 100.0), table_small)
    assert [(l.k, l.m_count, l.count) for l in bd.per_k] == [(0, 1, 16)]
    assert bd.n_inclusion_exclusion == 16 == bd.n_direct


def test_breakdown_degenerate_exponent(table_small):
    # E < 1: every window is empty, so only n = 1 survives and the
    # alternating sum collapses to the classical floor-sum identity
    pars = make_params(100, 0.5)
    assert pars.gap_exp < 1
    bd = inclusion_exclusion(pars, table_small)
    assert bd.n_direct == 1
    assert bd.n_inclusion_exclusion == 1
    assert bd.n_inclusion_exclusion == oracle.naive_N(100, 0.5)


def test_breakdown_matches_oracle_small_grid(table_small):
    for x, c in ((30, 0.5), (30, 2.0), (100, 1.0)):
        bd = inclusion_exclusion(make_params(x, c), table_small)
        assert bd.n_inclusion_exclusion == bd.n_direct == oracle.naive_N(x, c)


def test_boundary_robustness(table_small):
    for x, c in ((30, 1.0), (1000, 0.5), (300, 2.0)):
        pars = make_params(x, c)
        fast = inclusion_exclusion(pars, table_small)
        with boundary.force_extended():
            slow = inclusion_exclusion(pars, table_small)
        assert fast == slow


def test_force_extended_reaches_every_window(table_small, monkeypatch):
    # one c puts 7 on the edge of 3's window (E = ln 7 / ln 3), another puts
    # 13 on the small-prime cutoff (x**(1/E) = 13): outside force_extended
    # the exact deciders see those ties alone, inside it every candidate
    x = 5000
    c_win = (math.log(7) / math.log(3)) / math.log(math.log(x))
    c_cut = (math.log(x) / math.log(13)) / math.log(math.log(x))
    power, root = [], []
    le_power, le_root = boundary.le_power, boundary.le_root

    def power_spy(q, p, x, c):
        power.append(q)
        return le_power(q, p, x, c)

    def root_spy(p, x, c):
        root.append(p)
        return le_root(p, x, c)

    monkeypatch.setattr(boundary, "le_power", power_spy)
    monkeypatch.setattr(boundary, "le_root", root_spy)
    want_win = [q for q in (5, 7) if oracle._le_power(q, 3, x, c_win)]
    want_small = [p for p in (2, 3, 5, 7, 11, 13) if oracle._is_small(p, x, c_cut)]

    def run():
        power.clear()
        root.clear()
        win = primes_in_power_interval(3, x, c_win, table_small).tolist()
        small = counting._small_primes(make_params(x, c_cut), table_small)
        assert (win, small) == (want_win, want_small)

    run()
    assert (power, root) == ([7], [13])
    with boundary.force_extended():
        run()
    assert (power, root) == ([5, 7], [2, 3, 5, 7, 11, 13])


# ---------------------------------------------------------------- densities


def test_window_density_trivial(table_small, pars30):
    by_m = {w[0]: w for w in wide_squarefree_set(pars30, table_small)}
    prod, pred = window_coprime_density(by_m[1], pars30, table_small)
    assert prod == 1.0 and pred == 1.0


def test_window_density_m5(table_small, pars30):
    by_m = {w[0]: w for w in wide_squarefree_set(pars30, table_small)}
    prod, pred = window_coprime_density(by_m[5], pars30, table_small)
    assert prod == pytest.approx(6 / 7, rel=1e-15)
    assert pred == pytest.approx(1 / pars30.gap_exp, rel=1e-15)


def test_window_density_mertens_spot(table_1e6):
    pars = make_params(10**6, 1.0)
    by_m = {w[0]: w for w in wide_squarefree_set(pars, table_1e6)}
    prod, pred = window_coprime_density(by_m[53], pars, table_1e6)
    assert abs(prod * pars.gap_exp - 1.0) <= 4.0 / math.log(53)
    # independent recomputation of the product over the window primes
    z = pars.gap_exp
    direct = 1.0
    for q in range(54, int(math.exp(z * math.log(53))) + 1):
        fact = oracle.naive_factorize(q)
        if len(fact.factors) == 1 and fact.factors[0][1] == 1:
            if math.log(q) <= z * math.log(53):
                direct *= 1.0 - 1.0 / q
    assert prod == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------- tuple sums


def test_tuple_sum_k0(table_small, pars30):
    assert tuple_reciprocal_sum(pars30, 0, table_small) == 1.0


def test_tuple_sum_30_frozen(table_small, pars30):
    # sums of the listed members: 1/2+1/3+1/5+1/7+1/11+1/13 and the seven pairs
    s1 = tuple_reciprocal_sum(pars30, 1, table_small)
    assert s1 == pytest.approx(1.344022644022644, rel=1e-13)
    s2 = tuple_reciprocal_sum(pars30, 2, table_small)
    assert s2 == pytest.approx(
        1 / 6 + 1 / 10 + 1 / 14 + 1 / 15 + 1 / 21 + 1 / 22 + 1 / 26, rel=1e-13
    )
    assert tuple_reciprocal_sum(pars30, 3, table_small) == pytest.approx(1 / 30, rel=1e-13)


def test_tuple_sum_rejects_negative_k(table_small, pars30):
    with pytest.raises(ValueError):
        tuple_reciprocal_sum(pars30, -1, table_small)


def test_tuple_sum_agrees_with_layer_membership(table_small, pars30):
    members = wide_squarefree_set(pars30, table_small)
    for k in (1, 2, 3):
        direct = math.fsum(1.0 / m for m, primes in members if len(primes) == k)
        assert tuple_reciprocal_sum(pars30, k, table_small) == pytest.approx(
            direct, rel=1e-13
        )


@pytest.mark.parametrize("x,c", [(30, 1.0), (3000, 2.0), (100_000, 0.5), (10**6, 1.0)])
def test_layer_recip_sum_is_tuple_sum(table_1e6, x, c):
    # fsum is correctly rounded over the same 1.0 / m terms: bitwise equal
    pars = make_params(x, c)
    bd = inclusion_exclusion(pars, table_1e6)
    for layer in bd.per_k:
        assert layer.recip_sum == tuple_reciprocal_sum(pars, layer.k, table_1e6)
