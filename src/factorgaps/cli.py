"""Command-line front end: scans, density tables, counting breakdowns,
wide-squarefree listings, and self-verification.

All machine output (JSON or CSV) goes to stdout unless --out is given;
diagnostics go to stderr. Reals are rendered with 17 significant digits
so files round-trip exactly. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Iterable, Optional

import numpy as np

from . import boundary, gaps
from .counting import (
    inclusion_exclusion,
    inner_counts,
    is_gap_form,
    make_params,
    wide_members,
    wide_squarefree_set,
)
from .gaps import (
    DEFAULT_SEGMENT_SIZE,
    HIST_BINS,
    HIST_LO,
    HIST_WIDTH,
    MODE_PER_N,
    MODE_PER_RANGE,
    EmptySampleError,
    merge_summaries,
    partial_alternating_sum,
    scan_range,
    theoretical_density,
)
from .sieve import InsufficientTableError, build_prime_table, factorize

COUNT_X_GUARD = 100_000_000
WIDE_ALL_X_GUARD = 10_000_000  # count and enumerate-m where E <= 1
VERIFY_GRID_X = (30, 100, 300, 1000, 2000)
VERIFY_GRID_C = (0.5, 1.0, 2.0)
DEFAULT_SEED = 20
# a task's table and prime logs cost at most 0.25 sqrt(b) integers of kernel
# work (measured for b from 1e10 to 1e15): chunks of 8 sqrt(b) keep it near 3 %
CHUNK_ROOTS = 8


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated knobs of one CLI invocation."""

    subcommand: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    x: Optional[int] = None
    c_values: tuple[float, ...] = ()
    mode: str = MODE_PER_N
    fmt: str = "json"
    out: Optional[str] = None
    workers: int = 1
    segment_size: int = DEFAULT_SEGMENT_SIZE
    seed: int = DEFAULT_SEED
    allow_large: bool = False
    x_max: int = 2000

    def validate(self) -> None:
        if self.subcommand in ("scan", "density"):
            if self.lo is None or self.hi is None:
                raise UsageError("--min and --max are required")
            if not gaps.ELIGIBLE_FLOOR <= self.lo < self.hi <= gaps.MAX_SCAN_END:
                raise UsageError(
                    f"need {gaps.ELIGIBLE_FLOOR} <= min < max <= 2**53, "
                    f"got [{self.lo}, {self.hi})"
                )
            if not self.c_values:
                raise UsageError("--c requires at least one value")
        if self.subcommand in ("count", "enumerate-m"):
            if self.x is None or self.x < 16:
                raise UsageError("--x must be an integer >= 16")
            if len(self.c_values) != 1:
                raise UsageError("--c takes exactly one value here")
            if self.subcommand == "count":
                if self.x > COUNT_X_GUARD and not self.allow_large:
                    raise UsageError(
                        f"--x {self.x} exceeds the {COUNT_X_GUARD} guard; "
                        "pass --allow-large to override"
                    )
            # the direct count walks [1, x + 1) in the scan kernel, whose
            # float64 n is exact below 2**53; enumerate-m is held to the same reach
            if self.x + 1 > gaps.MAX_SCAN_END:
                raise UsageError(f"--x {self.x} is too large: need x + 1 <= 2**53")
        if not all(math.isfinite(c) and c > 0 for c in self.c_values):
            raise UsageError("all c values must be finite and > 0")
        if self.x is not None:
            e = boundary.gap_exponent(self.x, self.c_values[0])
            if math.isinf(e):
                raise UsageError(f"--c {self.c_values[0]} overflows E = c ln ln x")
            # E <= 1 empties every window, so all 0.61 x squarefree m <= x are wide: the
            # table, the small primes and the walk's first layer grow like pi(x), and
            # count's 1/m per member like x; at c = 0.3, count peaked at 132 MiB at
            # x = 3e6 and 321 MiB at 1e7
            if e <= 1 and self.x > WIDE_ALL_X_GUARD:
                raise MemoryError(
                    f"E = c ln ln x = {fmt_real(e)} <= 1 makes all squarefree m <= x "
                    f"wide, too many to walk past --x {WIDE_ALL_X_GUARD}"
                )
        if self.subcommand == "verify" and self.x_max < VERIFY_GRID_X[0]:
            raise UsageError(f"--x-max must be >= {VERIFY_GRID_X[0]}, the smallest grid x")
        if self.workers < 1:
            raise UsageError("--workers must be >= 1")
        out_dir = os.path.dirname(os.path.abspath(self.out)) if self.out else None
        if out_dir and not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            raise UsageError(f"cannot write --out: {out_dir} is not a writable directory")
        if not 1 <= self.segment_size <= gaps.MAX_SEGMENT_SIZE:
            raise UsageError(
                f"--segment-size must be in [1, {gaps.MAX_SEGMENT_SIZE}]"
            )


# ----------------------------------------------------------------------
# deterministic rendering


def fmt_real(v: float) -> str:
    """17 significant digits: parses back to the identical double."""
    return format(float(v), ".17g")


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(render_json(v, indent + 1) for v in obj)
        return "[" + inner + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt_real(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _finite(v: float) -> Optional[float]:
    """A reference value, or None (rendered null) if it is not a finite double."""
    return v if math.isfinite(v) else None


def emit(text: str | Iterable[str], out: Optional[str], stdout) -> None:
    """Write text, or each of an iterable's strings as it comes, to --out or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if not out:
        stdout.writelines(chunks)
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None


# ----------------------------------------------------------------------
# parallel scanning


def ProcessPoolExecutor(*args, **kwargs):
    # imported at the first fan-out: commands that never fork skip multiprocessing
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(*args, **kwargs)


def _scan_task(args):
    lo, hi, thresholds, mode, range_point, segment_size, distribution = args
    table = build_prime_table(max(isqrt(hi - 1), 2))
    return scan_range(
        lo, hi, thresholds, table, mode, range_point, segment_size,
        distribution=distribution,
    )


def run_scan(
    cfg: RunConfig, distribution: bool = True, mode: Optional[str] = None
) -> gaps.ScanSummary:
    """Scan [lo, hi) with up to cfg.workers processes, never more than
    there are chunks, and fold the chunk summaries in order; the merge law
    makes the result identical for any worker count. Chunks are at least a
    segment and CHUNK_ROOTS * isqrt(hi) long, and each task builds its own
    table. ``distribution`` is passed on to scan_range, and ``mode``
    (default cfg.mode) picks the thresholds."""
    a, b = cfg.lo, cfg.hi
    mode = mode or cfg.mode
    range_point = b - 1 if mode == MODE_PER_RANGE else None
    chunk = max(cfg.segment_size, (b - a) // (cfg.workers * 8) + 1, CHUNK_ROOTS * isqrt(b))
    knobs = (cfg.c_values, mode, range_point, cfg.segment_size, distribution)
    tasks = [(lo, min(lo + chunk, b), *knobs) for lo in range(a, b, chunk)]
    workers = min(cfg.workers, len(tasks))
    if workers == 1:
        return _scan_task((a, b, *knobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return functools.reduce(merge_summaries, pool.map(_scan_task, tasks))


def _law(s: gaps.ScanSummary) -> dict:
    """The law of t(n) from the histogram, each value None without eligible n."""
    law = (s.mean_t, s.var_t, *s.ks) if s.eligible else (None,) * 4
    return dict(zip(("mean_t", "var_t", "ks_gumbel", "ks_u"), law))


def summary_payload(s: gaps.ScanSummary) -> dict:
    return {
        "range": [s.a, s.b],
        "mode": s.mode,
        "range_point": s.range_point,
        "total": s.total,
        "eligible": s.eligible,
        "law": _law(s),
        "exceed": {fmt_real(c): s.exceed[c] for c in s.thresholds},
        "histogram": {
            "lo": HIST_LO,
            "width": HIST_WIDTH,
            "bins": HIST_BINS,
            "underflow": int(s.hist[0]),
            "counts": [int(v) for v in s.hist[1:-1]],
            "overflow": int(s.hist[-1]),
        },
    }


def summary_csv(s: gaps.ScanSummary) -> str:
    lines = [f"# range={s.a}:{s.b}", f"# mode={s.mode}"]
    if s.range_point is not None:
        lines.append(f"# range_point={s.range_point}")
    lines.append(f"# total={s.total}")
    lines.append(f"# eligible={s.eligible}")
    lines += [f"# {k}={'nan' if v is None else fmt_real(v)}" for k, v in _law(s).items()]
    for c in s.thresholds:
        lines.append(f"# exceed_{fmt_real(c)}={s.exceed[c]}")
    lines.append("bin_lo,bin_hi,count")
    lines.append(f"-inf,{fmt_real(HIST_LO)},{int(s.hist[0])}")
    for i in range(HIST_BINS):
        lo = HIST_LO + i * HIST_WIDTH
        hi = HIST_LO + (i + 1) * HIST_WIDTH
        lines.append(f"{fmt_real(lo)},{fmt_real(hi)},{int(s.hist[i + 1])}")
    lines.append(f"{fmt_real(HIST_LO + HIST_BINS * HIST_WIDTH)},inf,{int(s.hist[-1])}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# subcommands


def cmd_scan(cfg: RunConfig, stdout) -> int:
    s = run_scan(cfg)
    if cfg.fmt == "json":
        emit(render_json(summary_payload(s)) + "\n", cfg.out, stdout)
    else:
        emit(summary_csv(s), cfg.out, stdout)
    return 0


def cmd_density(cfg: RunConfig, stdout) -> int:
    """One row per c with the empirical exceedance share under both
    threshold conventions, against the limiting density. Only the
    exceedances are counted; the histogram and law of t(n) are scan's."""
    per_n = run_scan(cfg, distribution=False, mode=MODE_PER_N)
    per_range = run_scan(cfg, distribution=False, mode=MODE_PER_RANGE)
    if not per_n.eligible:
        raise EmptySampleError(f"no eligible integers in [{cfg.lo}, {cfg.hi})")
    cols = ("c", "empirical", "empirical_per_n", "empirical_per_range", "theoretical", "deviation")
    rows = []
    for c in per_n.thresholds:
        emp_n, emp_r = (s.exceed[c] / s.eligible for s in (per_n, per_range))
        emp = emp_n if cfg.mode == MODE_PER_N else emp_r
        theo = theoretical_density(c)
        sums = [partial_alternating_sum(c, K) for K in range(9)]
        rows.append(((c, emp, emp_n, emp_r, theo, emp - theo), sums))
    if cfg.fmt == "json":
        payload = {
            "range": [cfg.lo, cfg.hi],
            "mode": cfg.mode,
            "eligible": per_n.eligible,
            # 1 / (c^k k!) overflows for tiny c: a non-finite sum renders null
            "rows": [
                dict(zip(cols, vals), partial_sums=[_finite(v) for v in sums])
                for vals, sums in rows
            ],
        }
        emit(render_json(payload) + "\n", cfg.out, stdout)
    else:
        lines = [
            f"# range={cfg.lo}:{cfg.hi}",
            f"# mode={cfg.mode}",
            f"# eligible={per_n.eligible}",
            ",".join(cols + tuple(f"partial_K{k}" for k in range(9))),
        ]
        lines += [",".join(fmt_real(v) for v in (*vals, *sums)) for vals, sums in rows]
        emit("\n".join(lines) + "\n", cfg.out, stdout)
    return 0


def cmd_count(cfg: RunConfig, stdout) -> int:
    x, c = cfg.x, cfg.c_values[0]
    pars = make_params(x, c)
    # factorize needs reach >= isqrt(x); every window min(p**E, x // p) of the
    # inner counts peaks where the two meet, at x**(E/(E+1)), tie-padded
    e = pars.gap_exp
    table = build_prime_table(max(
        isqrt(x - 1) + 1,
        math.ceil(boundary.root_search_bound(x, c)),
        math.ceil(boundary.padded_exp(e / (e + 1) * math.log(x))) + 1,
    ))
    bd = inclusion_exclusion(pars, table)
    identity_ok = bd.n_inclusion_exclusion == bd.n_direct
    per_k = []
    for layer in bd.per_k:
        k, k_fact = layer.k, math.factorial(layer.k)
        poisson_den = c**k * k_fact  # 0.0 when c**k underflows
        per_k.append(
            {
                "k": k,
                "m_count": layer.m_count,
                "N_k": layer.count,
                "poisson_ref": _finite(x / poisson_den if poisson_den else math.inf),
                "S_k": layer.recip_sum,
                # the empty product at k = 0, also where y rounds to 1
                "tuple_ref": _finite(
                    math.log(math.log(pars.small_prime_bound)) ** k / k_fact if k else 1.0
                ),
            }
        )
    payload = {
        "params": {
            "x": pars.x,
            "c": pars.c,
            "Z": pars.gap_exp,
            "y": pars.small_prime_bound,
        },
        "N_direct": bd.n_direct,
        "N_direct_gapform": bd.n_direct_gapform,
        "smooth_gap_count": bd.smooth_gap_count,
        "per_k": per_k,
        "bonferroni": [list(t) for t in bd.bonferroni],
        "N_inclusion_exclusion": bd.n_inclusion_exclusion,
        "identity_check": "PASS" if identity_ok else "FAIL",
    }
    emit(render_json(payload) + "\n", cfg.out, stdout)
    if not identity_ok:
        print(
            f"FAIL identity: N_inclusion_exclusion={bd.n_inclusion_exclusion} "
            f"!= N_direct={bd.n_direct}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_enumerate_m(cfg: RunConfig, stdout) -> int:
    x, c = cfg.x, cfg.c_values[0]
    pars = make_params(x, c)
    table = build_prime_table(math.ceil(boundary.root_search_bound(x, c)))
    rows = (f"{w.k},{w.m},{' '.join(map(str, w.primes))}\n" for w in wide_members(pars, table))
    emit(chain(["k,m,primes\n"], rows), cfg.out, stdout)
    return 0


# ----------------------------------------------------------------------
# verification


def _check(results, name, ok, detail=""):
    results.append((name, bool(ok), detail))


def run_verification(x_max: int = 2000, seed: int = DEFAULT_SEED):
    """Run the invariant grid against the naive reference implementations.

    Returns (all_ok, results) with one (name, ok, detail) triple per
    check; detail carries the compared values on failure.
    """
    from . import oracle  # mpmath loads with it, on the verify path only

    results: list[tuple[str, bool, str]] = []
    rng = random.Random(seed)
    # 10**4 reaches every grid x (<= 2000) and factorize up to 10**8, past
    # the oracle sample's n <= 10**5; a larger x_max runs no further check
    table = build_prime_table(10_000)

    # counting identities on the grid
    for x in VERIFY_GRID_X:
        if x > x_max:
            continue
        for c in VERIFY_GRID_C:
            pars = make_params(x, c)
            bd = inclusion_exclusion(pars, table)
            nv = oracle.naive_N(x, c)
            _check(
                results,
                f"identity x={x} c={c}",
                bd.n_inclusion_exclusion == bd.n_direct == nv,
                f"IE={bd.n_inclusion_exclusion} direct={bd.n_direct} naive={nv}",
            )
            # gap-form n <= x are those the per-range scan at x does not count
            s = scan_range(16, x + 1, (c,), table, MODE_PER_RANGE, range_point=x)
            low = sum(is_gap_form(factorize(n, table), pars) for n in range(1, 16))
            _check(
                results,
                f"scan-count x={x} c={c}",
                bd.n_direct_gapform == low + s.total - s.exceed[c],
                f"gapform={bd.n_direct_gapform} scan={low + s.total - s.exceed[c]}",
            )
            sandwich = all(
                (part >= bd.n_direct) if (k % 2 == 0) else (part <= bd.n_direct)
                for k, part in bd.bonferroni
            ) and bd.bonferroni[-1][1] == bd.n_direct
            _check(
                results,
                f"bonferroni x={x} c={c}",
                sandwich,
                f"partials={bd.bonferroni} direct={bd.n_direct}",
            )

            members = wide_squarefree_set(pars, table)
            got = [(w.m, w.primes) for w in members]
            want = oracle.naive_wide_squarefree(x, c)
            _check(
                results,
                f"wide-set x={x} c={c}",
                got == want,
                f"sizes {len(got)} vs {len(want)}",
            )

            bad = []
            for w, mine in zip(members, inner_counts(members, pars, table)):
                ref = oracle.naive_chi_count(w.primes, x, c)
                if mine != ref:
                    bad.append((w.m, mine, ref))
                    if len(bad) >= 3:
                        break
            _check(
                results,
                f"inner-counts x={x} c={c}",
                not bad,
                f"mismatches {bad}",
            )

    # boundary robustness: extended precision everywhere changes nothing
    for x in (30, 300, 1000):
        if x > x_max:
            continue
        for c in VERIFY_GRID_C:
            pars = make_params(x, c)
            fast = inclusion_exclusion(pars, table)
            with boundary.force_extended():
                slow = inclusion_exclusion(pars, table)
            _check(
                results,
                f"boundary-robust x={x} c={c}",
                fast == slow,
                f"fast={fast.n_inclusion_exclusion} slow={slow.n_inclusion_exclusion}",
            )

    # Eq-style identity entirely inside the oracle
    for x, c in ((30, 1.0), (100, 0.5), (100, 2.0), (300, 1.0)):
        if x > x_max:
            continue
        total = 0
        for m, primes in oracle.naive_wide_squarefree(x, c):
            sign = -1 if len(primes) % 2 else 1
            total += sign * oracle.naive_chi_count(primes, x, c)
        nv = oracle.naive_N(x, c)
        _check(
            results,
            f"oracle-internal identity x={x} c={c}",
            total == nv,
            f"sum={total} naive={nv}",
        )

    # gap statistic vs oracle on a seeded sample
    sample = [rng.randrange(2, 100_001) for _ in range(1500)]
    worst = 0.0
    rad_ok = True
    for n in sample:
        fact = factorize(n, table)
        pr = gaps.gap_profile(fact)
        ref = oracle.naive_f(n)
        if (pr.gap is None) != (ref is None):
            worst = math.inf
            break
        if ref is not None:
            worst = max(worst, abs(pr.gap - ref) / abs(ref))
        rad = 1
        for p in fact.primes:
            rad *= p
        if gaps.gap_profile(factorize(rad, table)).gap != pr.gap:
            rad_ok = False
    _check(results, "gap vs oracle (sample)", worst <= 1e-12, f"worst rel {worst:.3g}")
    _check(results, "radical invariance (sample)", rad_ok)

    # merge law on a random partition
    cut = rng.randrange(17, 40_000)
    thr = (0.5, 1.0, 2.0)
    s1 = scan_range(16, cut, thr, table)
    s2 = scan_range(cut, 40_000, thr, table)
    m = merge_summaries(s1, s2)
    d = scan_range(16, 40_000, thr, table)
    merged_equal = (m.a, m.b, m.eligible, m.exceed) == (d.a, d.b, d.eligible, d.exceed)
    merged_equal = merged_equal and np.array_equal(m.hist, d.hist)
    _check(results, f"merge law (cut {cut})", merged_equal)
    _check(
        results,
        "exceed monotone in c",
        d.exceed[0.5] >= d.exceed[1.0] >= d.exceed[2.0],
        f"{d.exceed}",
    )

    # alternating-series bracketing
    brack_ok = True
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        lim = math.exp(-1.0 / c)
        for K in range(11):
            s = partial_alternating_sum(c, K)
            if K % 2 == 0 and s < lim - 1e-15:
                brack_ok = False
            if K % 2 == 1 and s > lim + 1e-15:
                brack_ok = False
    _check(results, "partial sums bracket exp(-1/c)", brack_ok)

    all_ok = all(ok for _, ok, _ in results)
    return all_ok, results


def cmd_verify(cfg: RunConfig, stdout) -> int:
    t0 = time.perf_counter()
    all_ok, results = run_verification(x_max=cfg.x_max, seed=cfg.seed)
    for name, ok, detail in results:
        if ok:
            stdout.write(f"PASS {name}\n")
        else:
            stdout.write(f"FAIL {name}: {detail}\n")
    n_ok = sum(1 for _, ok, _ in results)
    stdout.write(
        f"{'OK' if all_ok else 'FAILED'}: {n_ok}/{len(results)} checks passed\n"
    )
    # the elapsed time varies run to run, so it stays out of stdout
    print(f"verify took {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# argument parsing


def _parse_c_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise UsageError(f"bad --c list {text!r}: {exc}") from None
    if not vals:
        raise UsageError("empty --c list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="factorgaps",
        description="Largest gap between prime factors: scans, densities, exact counts.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    # dests are RunConfig's field names; metavars keep --help as the flags read
    for name, text, c_help in (
        ("scan", "distribution summary over [min, max)", "comma-separated thresholds"),
        ("density", "empirical vs limiting exceedance density", None),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--min", dest="lo", metavar="MIN", type=int, required=True)
        p.add_argument("--max", dest="hi", metavar="MAX", type=int, required=True)
        p.add_argument("--c", dest="c_values", metavar="C", required=True, help=c_help)
        p.add_argument("--mode", choices=("n", "range"), default="n")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("count", help="inclusion-exclusion breakdown at x")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", dest="c_values", metavar="C", required=True)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("enumerate-m", help="list the wide squarefree set")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", dest="c_values", metavar="C", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the invariant grid against the oracle")
    p.add_argument("--x-max", type=int, default=2000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return ap


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(ns))
    if isinstance(cfg.c_values, str):  # verify has no --c
        cfg.c_values = _parse_c_list(cfg.c_values)
    cfg.mode = MODE_PER_RANGE if cfg.mode == "range" else MODE_PER_N
    cfg.validate()
    cpus = os.cpu_count() or 1
    if cfg.workers > cpus:
        print(f"note: --workers {cfg.workers} clamped to {cpus}, the CPU count",
              file=sys.stderr)
        cfg.workers = cpus
    return cfg


HANDLERS = {
    "scan": cmd_scan,
    "density": cmd_density,
    "count": cmd_count,
    "enumerate-m": cmd_enumerate_m,
    "verify": cmd_verify,
}


def main(argv=None, stdout=None) -> int:
    # the imports' heap lives to the end: no collection, at exit or in a worker, walks it
    gc.freeze()
    stdout = stdout or sys.stdout
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = config_from_args(ns)
        return HANDLERS[cfg.subcommand](cfg, stdout)
    except (UsageError, EmptySampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InsufficientTableError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
