"""Acceptance criteria, one test per criterion.

Each test prints a single ACCEPTANCE line (run pytest -s to see them all)
and asserts the stated tolerances. Criterion 9 is a reported performance
target and never fails.
"""

import io
import math
import time

import pytest

from factorgaps import (
    boundary,
    build_prime_table,
    factorize,
    gap_profile,
    inclusion_exclusion,
    make_params,
    partial_alternating_sum,
    scan_range,
    theoretical_density,
    wide_squarefree_set,
    window_coprime_density,
)
from factorgaps import oracle
from factorgaps.cli import main
from factorgaps.counting import tuple_reciprocal_sum
from factorgaps.gaps import DEFAULT_SEGMENT_SIZE, MODE_PER_RANGE, _walk

GRID_X = (30, 100, 300, 1000, 2000)
GRID_C = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def grid_breakdowns():
    table = build_prime_table(4000)
    t0 = time.perf_counter()
    cells = {}
    for x in GRID_X:
        for c in GRID_C:
            cells[(x, c)] = inclusion_exclusion(make_params(x, c), table)
    naive = {(x, c): oracle.naive_N(x, c) for x in GRID_X for c in GRID_C}
    return cells, naive, time.perf_counter() - t0


def test_criterion_1_worked_example():
    table = build_prime_table(100)
    t0 = time.perf_counter()
    pars = make_params(30, 1.0)
    bd = inclusion_exclusion(pars, table)
    members = wide_squarefree_set(pars, table)
    elapsed = time.perf_counter() - t0

    assert bd.n_direct == 5
    counted = [
        fact.n
        for fact in map(oracle.naive_factorize, range(1, 31))
        if all(
            any(
                q > p and boundary.le_power(q, p, 30, 1.0)
                for q in fact.primes
            )
            for p in fact.primes
            if boundary.le_root(p, 30, 1.0)
        )
    ]
    assert counted == [1, 17, 19, 23, 29]
    assert len(members) == 15
    assert [m for m, primes in members if len(primes) == 3] == [30]
    assert [l.count for l in bd.per_k] == [30, 39, 15, 1]
    assert bd.n_inclusion_exclusion == 30 - 39 + 15 - 1 == 5
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 PASS: worked example (30, 1) exact, "
        f"{elapsed * 1000:.0f} ms"
    )


def test_criterion_2_inclusion_exclusion_identity(grid_breakdowns):
    cells, naive, elapsed = grid_breakdowns
    exact = 0
    for (x, c), bd in cells.items():
        assert bd.n_inclusion_exclusion == bd.n_direct == naive[(x, c)], (
            f"(x={x}, c={c}): IE={bd.n_inclusion_exclusion} "
            f"direct={bd.n_direct} naive={naive[(x, c)]}"
        )
        exact += 1
    assert exact == 15
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS: 15/15 exact identities on the grid, "
        f"{elapsed:.1f} s"
    )


def test_criterion_3_bonferroni_sandwich(grid_breakdowns):
    cells, _, _ = grid_breakdowns
    violations = 0
    for (x, c), bd in cells.items():
        for k, partial in bd.bonferroni:
            if k % 2 == 0 and partial < bd.n_direct:
                violations += 1
            if k % 2 == 1 and partial > bd.n_direct:
                violations += 1
        if bd.bonferroni[-1][1] != bd.n_direct:
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 3 PASS: Bonferroni sandwich, zero violations on the grid")


def test_criterion_4_mertens_windows():
    table = build_prime_table(10**6)
    pars = make_params(10**6, 1.0)
    t0 = time.perf_counter()
    singles = [
        w for w in wide_squarefree_set(pars, table) if len(w[1]) == 1 and w[0] >= 50
    ]
    assert singles and singles[-1][0] <= pars.small_prime_bound
    violations = []
    for w in singles:
        m = w[0]
        prod, _ = window_coprime_density(w, pars, table)
        err = abs(prod * pars.gap_exp - 1.0)
        if err > 4.0 / math.log(m):
            violations.append((m, err))
    elapsed = time.perf_counter() - t0
    assert not violations
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 4 PASS: window products within 4/ln p for "
        f"{len(singles)} primes in [50, {pars.small_prime_bound:.2f}], "
        f"{elapsed:.2f} s"
    )


# Meissel-Mertens constant: sum_{p <= y} 1/p = ln ln y + B + o(1).
MERTENS_B = 0.26149721284764278


def test_criterion_5_tuple_sum_trend():
    # Chain sums run over primes p <= y = small_prime_bound, not p <= x, so
    # the finite-x reference is (ln ln y)^k / k!. Since ln ln y equals
    # ln ln x - ln E with E = c ln ln x, it has the same asymptotics as
    # (ln ln x)^k / k!; but by Mertens S_1 / ln ln x drifts away from 1
    # until x ~ 1e15 (c = 1), so only the ln ln y reference can show the
    # trend at reachable x. Mertens' bound |S_1 - ln ln y - B| < 1/ln^2 y
    # (Rosser-Schoenfeld 1962, Thm. 5) pins S_1 itself, so the reference
    # cannot hide a wrong sum.
    table = build_prime_table(10_000)
    xs = (10**4, 10**5, 10**6, 10**7)
    rows = {}
    failures = []
    print("\nACCEPTANCE 5 table: S_k normalized by (ln ln y)^k / k!, y = cutoff")
    print("  x        k=1 ratio   k=2 ratio   |S_1 - ln ln y - B|   1/ln^2 y")
    for x in xs:
        pars = make_params(x, 1.0)
        log_y = math.log(pars.small_prime_bound)
        ref1 = math.log(log_y)
        ref2 = ref1 * ref1 / 2.0
        s1 = tuple_reciprocal_sum(pars, 1, table)
        r1 = s1 / ref1
        r2 = tuple_reciprocal_sum(pars, 2, table) / ref2
        rows[x] = (r1, r2)
        mertens_err = abs(s1 - ref1 - MERTENS_B)
        mertens_bound = 1.0 / (log_y * log_y)
        print(
            f"  1e{round(math.log10(x))}      {r1:.5f}     {r2:.5f}"
            f"     {mertens_err:.5f}               {mertens_bound:.5f}"
        )
        if not mertens_err < mertens_bound:
            failures.append(
                f"|S_1 - ln ln y - B| = {mertens_err:.4f} not below "
                f"1/ln^2 y = {mertens_bound:.4f} at x={x}"
            )

    for x in xs:
        for k in (1, 2):
            r = rows[x][k - 1]
            if not 0.3 < r < 1.7:
                failures.append(f"ratio {r:.4f} outside (0.3, 1.7) at x={x}, k={k}")
    gaps_to_one = [abs(rows[x][0] - 1.0) for x in xs]
    if not all(a > b for a, b in zip(gaps_to_one, gaps_to_one[1:])):
        failures.append(
            f"k=1 ratio does not move toward 1 monotonically: "
            f"distances {[f'{g:.4f}' for g in gaps_to_one]}"
        )
    assert not failures, "; ".join(failures)
    print("ACCEPTANCE 5 PASS")


def test_criterion_6_density_properties():
    table = build_prime_table(4000)
    cs = (0.25, 0.5, 1.0, 2.0, 4.0)
    t0 = time.perf_counter()
    s = scan_range(16, 10**7, cs, table)
    sr = scan_range(16, 10**7, cs, table, mode=MODE_PER_RANGE)
    elapsed = time.perf_counter() - t0

    print("\nACCEPTANCE 6 deviation table at x = 1e7:")
    print("  c      empirical(per-n)  empirical(per-range)  theoretical  deviation")
    for c in cs:
        emp, emp_r = s.exceed[c] / s.eligible, sr.exceed[c] / sr.eligible
        theo = theoretical_density(c)
        print(
            f"  {c:<5}  {emp:.7f}         {emp_r:.7f}  "
            f"          {theo:.7f}    {emp - theo:+.7f}"
        )

    # (a) exactly nonincreasing empirical density in c
    counts = [s.exceed[c] for c in cs]
    assert counts == sorted(counts, reverse=True), counts
    # (b) sanity window for c = 1
    emp = s.exceed[1.0] / s.eligible
    assert 0.30 < emp < 0.95, emp
    # (c) consecutive partial sums bracket exp(-1/c)
    for c in cs:
        lim = math.exp(-1.0 / c)
        for K in range(8):
            a = partial_alternating_sum(c, K)
            b = partial_alternating_sum(c, K + 1)
            lo, hi = sorted((a, b))
            assert lo - 1e-15 <= lim <= hi + 1e-15
    print(f"ACCEPTANCE 6 PASS: properties (a), (b), (c) hold; scan {elapsed:.1f} s")


def test_criterion_7_oracle_equivalence():
    # every n <= 1e5 on both paths the outputs take: factorize with its
    # gap profile, and the kernel's max_ratio from the segment walk
    table = build_prime_table(1000)
    t0 = time.perf_counter()
    want = {n: oracle.naive_f(n) for n in range(1, 100_001)}
    worst = kernel_worst = 0.0
    for n, f in want.items():
        fact = factorize(n, table)
        assert fact == oracle.naive_factorize(n), f"factorization mismatch at {n}"
        got = gap_profile(fact).gap
        if f is None:
            assert got is None
        else:
            worst = max(worst, abs(got - f) / f)
    for _, start, _, _, ratio, _ in _walk(1, 100_001, table, DEFAULT_SEGMENT_SIZE):
        for n, r in enumerate(ratio.tolist(), start):
            assert (r > 0) == (want[n] is not None), f"kernel eligibility mismatch at {n}"
            if r > 0:
                kernel_worst = max(kernel_worst, abs(math.log(r) - want[n]) / want[n])
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert kernel_worst <= 1e-12
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 7 PASS: all n <= 1e5 match the oracle "
        f"(worst rel {worst:.2e}, kernel {kernel_worst:.2e}), {elapsed:.1f} s"
    )


def test_criterion_8_worker_determinism(tmp_path):
    f1 = tmp_path / "w1.json"
    f8 = tmp_path / "w8.json"
    args = ["scan", "--min", "16", "--max", "1000000", "--c", "1"]
    assert main(args + ["--workers", "1", "--out", str(f1)], stdout=io.StringIO()) == 0
    assert main(args + ["--workers", "8", "--out", str(f8)], stdout=io.StringIO()) == 0
    b1 = f1.read_bytes()
    b8 = f8.read_bytes()
    assert b1 == b8
    print(f"\nACCEPTANCE 8 PASS: 1-worker and 8-worker scans byte-identical "
          f"({len(b1)} bytes)")


def _burn(n):
    s = 0
    for i in range(n):
        s += i * i
    return s


def _parallel_compute_capacity():
    """Measured aggregate speedup of two busy processes vs one; calibrates
    what worker scaling this host can express at all."""
    from concurrent.futures import ProcessPoolExecutor

    n = 6_000_000
    t0 = time.perf_counter()
    _burn(n)
    one = time.perf_counter() - t0
    with ProcessPoolExecutor(max_workers=2) as ex:
        t0 = time.perf_counter()
        list(ex.map(_burn, [n, n]))
        two = time.perf_counter() - t0
    return 2.0 * one / two


def test_criterion_9_performance_report():
    # reported, non-gating
    import os

    table = build_prime_table(10_000)
    t0 = time.perf_counter()
    scan_range(16, 10**8, [1.0], table)
    single = time.perf_counter() - t0
    rate = (10**8 - 16) / single / 1e6

    from factorgaps.cli import build_parser, config_from_args, run_scan

    speedups = {}
    for w in (2, 8):
        # as the CLI would run it: --workers above the CPU count is clamped
        cfg = config_from_args(build_parser().parse_args(
            ["scan", "--min", "16", "--max", str(10**8), "--c", "1", "--workers", str(w)]
        ))
        t0 = time.perf_counter()
        run_scan(cfg)
        speedups[w] = single / (time.perf_counter() - t0)

    cores = os.cpu_count()
    capacity = _parallel_compute_capacity()
    print(
        f"\nACCEPTANCE 9 REPORT (non-gating): single-thread "
        f"{rate:.1f} M ints/s over [16, 1e8) "
        f"({'meets' if rate >= 5.0 else 'below'} the 5 M/s target); "
        f"speedup {speedups[2]:.2f}x at 2 workers, {speedups[8]:.2f}x at 8 "
        f"on {cores} cores whose measured aggregate compute capacity is "
        f"{capacity:.2f}x a single process (the 5x-at-8 target assumes "
        f">= 8 cores)"
    )
