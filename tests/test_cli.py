import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from factorgaps import (
    boundary,
    build_prime_table,
    cli,
    make_params,
    partial_alternating_sum,
    theoretical_density,
    wide_squarefree_set,
)
from factorgaps.cli import main, run_verification
from factorgaps.gaps import (
    DEFAULT_SEGMENT_SIZE,
    HIST_BINS,
    MODE_PER_N,
    MODE_PER_RANGE,
    ScanSummary,
)


def run_cli(*argv):
    out = io.StringIO()
    rc = main(list(argv), stdout=out)
    return rc, out.getvalue()


# ---------------------------------------------------------------- count


def test_count_worked_example():
    rc, text = run_cli("count", "--x", "30", "--c", "1")
    assert rc == 0
    doc = json.loads(text)
    assert doc["N_direct"] == 5
    assert doc["N_direct_gapform"] == 17
    assert doc["smooth_gap_count"] == 12
    assert [row["N_k"] for row in doc["per_k"]] == [30, 39, 15, 1]
    assert [row["m_count"] for row in doc["per_k"]] == [1, 6, 7, 1]
    assert doc["N_inclusion_exclusion"] == 5
    assert doc["identity_check"] == "PASS"
    assert doc["bonferroni"] == [[0, 30], [1, -9], [2, 6], [3, 5]]
    assert doc["params"]["Z"] == pytest.approx(1.2241275407015419, rel=1e-15)
    assert list(doc["params"]) == ["x", "c", "Z", "y"]


def test_count_vacuous_case():
    rc, text = run_cli("count", "--x", "16", "--c", "100")
    assert rc == 0
    doc = json.loads(text)
    assert doc["per_k"] == [
        {
            "k": 0,
            "m_count": 1,
            "N_k": 16,
            "poisson_ref": 16.0,
            "S_k": 1.0,
            "tuple_ref": 1.0,
        }
    ]
    assert doc["N_direct"] == 16


def test_count_tuple_ref_uses_small_prime_cutoff():
    # chain sums run over primes p <= y, so their reference is (ln ln y)^k / k!
    rc, text = run_cli("count", "--x", "1000", "--c", "1")
    doc = json.loads(text)
    lly = math.log(math.log(doc["params"]["y"]))
    refs = [row["tuple_ref"] for row in doc["per_k"]]
    assert refs == [lly**k / math.factorial(k) for k in range(len(refs))]


def test_count_guard():
    rc, _ = run_cli("count", "--x", "200000000", "--c", "1")
    assert rc == 2


def test_count_reals_round_trip():
    rc, text = run_cli("count", "--x", "30", "--c", "1")
    doc = json.loads(text)
    z = doc["params"]["Z"]
    assert float(format(z, ".17g")) == z


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "c,want_rc", [("1e-200", 0), ("5e-324", 0), ("1e-77", 0), ("1e17", 0), ("1e308", 2)]
)
def test_count_extreme_c_prints_strict_json_or_refuses(monkeypatch, c, want_rc):
    # c**k underflows (poisson_ref), y rounds to 1 (tuple_ref), or E
    # overflows; a reference that is not a finite double renders null
    if want_rc == 2:
        monkeypatch.setattr(cli, "build_prime_table", lambda limit: pytest.fail("table"))
    rc, text = run_cli("count", "--x", "1000", "--c", c)
    assert rc == want_rc
    if rc == 2:
        assert text == ""
        return
    doc = json.loads(text, parse_constant=_no_constant)
    assert doc["identity_check"] == "PASS"
    assert doc["per_k"][0]["tuple_ref"] == 1


@pytest.mark.parametrize("c", ["1e-300", "1e-77", "5e-324"])
def test_density_extreme_c_prints_strict_json(c):
    # the terms 1 / (c^k k!) of the partial sums overflow: a non-finite
    # partial sum renders null
    rc, text = run_cli("density", "--min", "16", "--max", "1000", "--c", c)
    assert rc == 0
    (row,) = json.loads(text, parse_constant=_no_constant)["rows"]
    assert row["partial_sums"][0] == 1 and None in row["partial_sums"]


@pytest.mark.parametrize("argv", [
    ("scan", "--min", "16", "--max", "100", "--c", "1"),
    ("count", "--x", "30", "--c", "1"),
    ("density", "--min", "16", "--max", "100", "--c", "1"),
])
def test_unwritable_out_is_a_usage_error(monkeypatch, tmp_path, capsys, argv):
    # refused before any work: no prime table is built
    monkeypatch.setattr(cli, "build_prime_table", lambda limit: pytest.fail("table"))
    (tmp_path / "a-file").write_text("")
    for out in (tmp_path / "missing" / "x.json", tmp_path / "a-file" / "x.json", tmp_path):
        rc, text = run_cli(*argv, "--out", str(out))
        assert (rc, text) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def test_out_write_failure_is_still_a_usage_error(tmp_path, capsys):
    # the directory checks out, but the path itself is a directory
    rc, text = run_cli("count", "--x", "30", "--c", "1", "--out", str(tmp_path))
    assert (rc, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: cannot write --out")


def _cli_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _write_error(rc, err, argv):
    """The one stderr line of a failed write, after verify's timing line."""
    lines = err.splitlines()
    assert rc == 2 and "Traceback" not in err
    assert len(lines) == 1 + (argv[0] == "verify")
    assert all(line.startswith("verify took ") for line in lines[:-1])
    return lines[-1]


@pytest.mark.parametrize("argv,first", [
    # the reader takes one row and closes the pipe while rows still stream
    (("enumerate-m", "--x", "1000000", "--c", "0.5"), b"k,m,primes\n"),
    # the pipe is closed before verify writes anything
    (("verify",), None),
], ids=["enumerate-m", "verify"])
def test_closed_stdout_pipe_is_one_error_line(argv, first):
    with subprocess.Popen(
        [sys.executable, "-m", "factorgaps.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    ) as proc:
        if first:
            assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert _write_error(proc.returncode, err, argv) == (
        "error: cannot write stdout: [Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("scan", "--min", "16", "--max", "1000", "--c", "1"),
    ("scan", "--min", "16", "--max", "1000", "--c", "1", "--format", "csv"),
    ("density", "--min", "16", "--max", "1000", "--c", "1"),
    ("density", "--min", "16", "--max", "1000", "--c", "1", "--format", "csv"),
    ("count", "--x", "1000", "--c", "1"),
    ("enumerate-m", "--x", "1000", "--c", "1"),
    ("verify",),
], ids=["scan-json", "scan-csv", "density-json", "density-csv", "count", "enumerate-m", "verify"])
def test_full_stdout_is_one_error_line(argv):
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "factorgaps.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_cli_env(),
        )
    assert _write_error(res.returncode, res.stderr, argv).startswith(
        "error: cannot write stdout: ")


@pytest.mark.parametrize(
    "x,c,reach",
    [(10**5, 1.0, 3533), (10**5, 0.5, 12375), (10**5, 2.0, 14148), (10**5, 0.3, 10**5)],
)
def test_count_table_reaches_only_what_count_reads(monkeypatch, x, c, reach):
    # the widest window x**(E/(E+1)), or the small-prime cutoff (x itself when E <= 1)
    limits = []

    def spy(limit):
        limits.append(limit)
        return build_prime_table(limit)

    monkeypatch.setattr(cli, "build_prime_table", spy)
    rc, text = run_cli("count", "--x", str(x), "--c", str(c))
    assert rc == 0
    assert limits == [reach]
    monkeypatch.setattr(cli, "build_prime_table", lambda limit: build_prime_table(x))
    assert run_cli("count", "--x", str(x), "--c", str(c)) == (0, text)


# ---------------------------------------------------------------- enumerate-m


def by_k_m(rows):
    return sorted(rows, key=lambda row: tuple(map(int, row.split(",")[:2])))


def test_enumerate_m_30():
    # rows come in walk order, lexicographic by primes; sorted by (k, m)
    # they are the held set's listing
    rc, text = run_cli("enumerate-m", "--x", "30", "--c", "1")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[0] == "k,m,primes"
    rows = lines[1:]
    assert rows[:5] == ["0,1,", "1,2,2", "2,6,2 3", "3,30,2 3 5", "2,10,2 5"]
    assert rows[-1] == "1,13,13"
    assert by_k_m(rows) == [
        f"{len(primes)},{m},{' '.join(map(str, primes))}"
        for m, primes in wide_squarefree_set(make_params(30, 1.0), build_prime_table(30))
    ]


def test_enumerate_m_30_c3():
    rc, text = run_cli("enumerate-m", "--x", "30", "--c", "3")
    rows = text.strip().splitlines()[1:]
    assert rows == ["0,1,", "1,2,2"]


@pytest.mark.parametrize(
    "x,c,reach", [(10**5, 1.0, 112), (10**8, 1.0, 558), (100, 0.5, 100)]
)
def test_enumerate_m_table_reaches_only_small_primes(monkeypatch, table_1e6, x, c, reach):
    # the table needs to reach only the small-prime cutoff (x itself when E <= 1)
    limits = []

    def spy(limit):
        limits.append(limit)
        return build_prime_table(limit)

    monkeypatch.setattr(cli, "build_prime_table", spy)
    rc, text = run_cli("enumerate-m", "--x", str(x), "--c", str(c))
    assert rc == 0
    assert limits == [reach]
    if x <= table_1e6.limit:
        members = wide_squarefree_set(make_params(x, c), table_1e6)
        assert by_k_m(text.splitlines()[1:]) == [
            f"{len(primes)},{m},{' '.join(map(str, primes))}" for m, primes in members
        ]


# ---------------------------------------------------------------- scan


def test_scan_hand_case():
    rc, text = run_cli("scan", "--min", "33", "--max", "35", "--c", "1")
    assert rc == 0
    doc = json.loads(text)
    assert doc["total"] == 2
    assert doc["eligible"] == 2
    assert doc["exceed"] == {"1": 2}


def test_scan_totals_reconcile():
    rc, text = run_cli("scan", "--min", "16", "--max", "100000", "--c", "0.5,1,2")
    doc = json.loads(text)
    assert doc["total"] == 99_984
    h = doc["histogram"]
    assert h["underflow"] + sum(h["counts"]) + h["overflow"] == doc["eligible"]


def test_scan_worker_determinism():
    # 65536-integer chunks split the range into 5, so 4 workers still fork
    args = ("scan", "--min", "16", "--max", "300000", "--c", "1", "--segment-size", "65536")
    rc1, a = run_cli(*args, "--workers", "1")
    rc2, b = run_cli(*args, "--workers", "4")
    assert rc1 == rc2 == 0
    assert a == b


def test_scan_single_chunk_starts_no_pool(monkeypatch):
    # [16, 16 + one default segment) is a single chunk for any worker count
    args = ("scan", "--min", "16", "--max", str(16 + DEFAULT_SEGMENT_SIZE), "--c", "1")
    rc1, a = run_cli(*args, "--workers", "1")

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a one-chunk scan must not start worker processes")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    rc4, b = run_cli(*args, "--workers", "4")
    assert rc1 == rc4 == 0
    assert a == b


def test_far_window_is_one_chunk_at_any_worker_count(monkeypatch):
    # [1e15, 1e15 + 2**22) is shorter than CHUNK_ROOTS * isqrt(max), so it
    # is one task with one table, and 2 workers start no pool
    args = ("scan", "--min", "1000000000000000", "--max", "1000000004194304",
            "--c", "0.5,1,2")
    tables = []
    monkeypatch.setattr(cli, "build_prime_table",
                        lambda limit: tables.append(limit) or build_prime_table(limit))
    rc1, a = run_cli(*args, "--workers", "1")

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a one-chunk scan must not start worker processes")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rc2, b = run_cli(*args, "--workers", "2")
    assert rc1 == rc2 == 0
    assert a == b
    assert tables == [math.isqrt(1000000004194303)] * 2


def zero_summary(lo, hi, thresholds, mode, range_point):
    thr = tuple(sorted(set(thresholds)))
    hist = np.zeros(HIST_BINS + 2, dtype=np.int64)
    return ScanSummary(lo, hi, thr, mode, range_point, 0, hist, dict.fromkeys(thr, 0))


def fake_pool(monkeypatch, started, run=True):
    """Replace the CLI's process pool by one that forks nothing: it records
    (max_workers, tasks) and runs the tasks in this process, or with
    ``run`` False returns a zero summary of each task's chunk."""

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            started.append((self.max_workers, len(tasks)))
            if run:
                return map(fn, tasks)
            # a task is (lo, hi, thresholds, mode, range_point, ..., distribution)
            return [zero_summary(*t[:5]) for t in tasks]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)


@pytest.mark.parametrize("requested,cpus,want", [(1000, 3, 3), (3, 3, 3), (2, 3, 2), (4, None, 1)])
def test_scan_workers_clamped_to_cpu_count(monkeypatch, capsys, requested, cpus, want):
    args = ("scan", "--min", "16", "--max", "300000", "--c", "1", "--segment-size", "4096")
    rc1, a = run_cli(*args, "--workers", "1")
    started = []
    fake_pool(monkeypatch, started)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rc, b = run_cli(*args, "--workers", str(requested))
    assert rc1 == rc == 0 and a == b
    assert [w for w, _ in started] == ([want] if want > 1 else [])
    err = capsys.readouterr().err
    assert (f"--workers {requested} clamped to {want}" in err) == (requested > want)


def test_density_prints_one_clamp_note(monkeypatch, capsys):
    started = []
    fake_pool(monkeypatch, started)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rc, _ = run_cli("density", "--min", "16", "--max", "300000", "--c", "1",
                    "--workers", "9", "--segment-size", "65536")
    assert rc == 0
    assert started == [(2, 5), (2, 5)]  # both scans run on the clamped count
    assert capsys.readouterr().err.count("note: --workers 9 clamped to 2") == 1


def test_huge_worker_request_forks_only_the_cpu_count(monkeypatch, capsys):
    # unclamped, 1000 workers would split [16, 1e8) into 96 chunks and fork 96
    started = []
    fake_pool(monkeypatch, started, run=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rc, _ = run_cli("scan", "--min", "16", "--max", "100000000", "--c", "1",
                    "--workers", "1000")
    assert rc == 0
    assert started == [(2, 16)]
    assert "clamped to 2" in capsys.readouterr().err


def test_cli_import_loads_no_mpmath_or_multiprocessing():
    # count and scan with one worker never use them; they load on first use
    code = (
        "import sys, factorgaps.cli; "
        "print(sorted(m for m in ('mpmath', 'multiprocessing', "
        "'concurrent.futures.process') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert res.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("given,want", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_unless_set(given, want):
    # factorgaps makes no BLAS call, so importing it (and numpy through it)
    # starts no OpenBLAS pool thread; a value the caller set is kept
    code = (
        "import os, factorgaps; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    threads, value = res.stdout.split()
    assert value == want
    if given is None:
        assert threads == "1"


def test_main_freezes_the_import_heap():
    # importing leaves the collector alone; main moves what the imports built
    # to the permanent generation, and prints what the module entry prints
    code = (
        "import gc, io, factorgaps.cli as cli; frozen = gc.get_freeze_count(); "
        "buf = io.StringIO(); rc = cli.main(['count', '--x', '3000', '--c', '1'], stdout=buf); "
        "print(frozen, gc.get_freeze_count() > 0, rc); print(buf.getvalue(), end='')"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    head, body = res.stdout.split(b"\n", 1)
    assert head == b"0 True 0"
    ref = subprocess.run(
        [sys.executable, "-m", "factorgaps.cli", "count", "--x", "3000", "--c", "1"],
        capture_output=True, env=env, check=True,
    )
    assert body == ref.stdout and b"identity_check" in body


def test_export_list_resolves():
    import factorgaps

    assert [name for name in factorgaps.__all__ if not hasattr(factorgaps, name)] == []


def test_scan_csv_shape():
    rc, text = run_cli("scan", "--min", "16", "--max", "2000", "--c", "1", "--format", "csv")
    assert rc == 0
    lines = text.strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# total=1984") for l in header)
    assert data[0] == "bin_lo,bin_hi,count"
    assert len(data) == 1 + 402  # column row, under, 400 bins, over
    eligible = int(next(l for l in header if l.startswith("# eligible=")).split("=")[1])
    assert sum(int(l.split(",")[2]) for l in data[1:]) == eligible


@pytest.mark.parametrize("lo,hi", [(16, 19), (30, 31)])  # one eligible n each
def test_scan_variance_never_negative(lo, hi):
    # var_t is taken about the mean in a second pass, so one n gives exactly 0
    argv = ("scan", "--min", str(lo), "--max", str(hi), "--c", "1")
    rc, text = run_cli(*argv)
    assert rc == 0 and json.loads(text)["law"]["var_t"] == 0
    rc, text = run_cli(*argv, "--format", "csv")
    assert rc == 0 and "# var_t=0\n" in text


def test_scan_out_file(tmp_path):
    path = tmp_path / "scan.json"
    rc, text = run_cli(
        "scan", "--min", "33", "--max", "35", "--c", "1", "--out", str(path)
    )
    assert rc == 0
    assert text == ""
    assert json.loads(path.read_text())["total"] == 2


def test_scan_usage_errors():
    rc, _ = run_cli("scan", "--min", "20", "--max", "10", "--c", "1")
    assert rc == 2
    rc, _ = run_cli("scan", "--min", "16", "--max", "30", "--c", "0")
    assert rc == 2
    rc, _ = run_cli("scan", "--min", "16", "--max", "30", "--c", "1,nan")
    assert rc == 2
    rc, _ = run_cli("scan", "--min", "16", "--max", "30", "--c", "1", "--segment-size", "0")
    assert rc == 2
    rc, _ = run_cli("scan", "--min", "8", "--max", "30", "--c", "1")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--min", "16", "--max", "1000"),
        ("density", "--min", "16", "--max", "1000"),
        ("count", "--x", "1000"),
    ],
)
@pytest.mark.parametrize("c", ["nan", "inf"])
def test_non_finite_c_refused_before_any_table(monkeypatch, capsys, argv, c):
    def no_table(limit):
        raise AssertionError("--c must be checked before the prime table")

    monkeypatch.setattr(cli, "build_prime_table", no_table)
    assert run_cli(*argv, "--c", c) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_density_without_eligible_integers_is_a_usage_error(capsys, fmt):
    # 16 and 17 have one prime factor each; scan reports null moments there
    argv = ("--min", "16", "--max", "18", "--c", "1", "--format", fmt)
    assert run_cli("density", *argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for mode in ("n", "range"):
        assert run_cli("scan", *argv, "--mode", mode)[0] == 0


@pytest.mark.parametrize("mode", ["n", "range"])
def test_density_has_no_mode_flag(monkeypatch, capsys, mode):
    # density prints both conventions; --mode is scan's
    monkeypatch.setattr(cli, "build_prime_table", lambda limit: pytest.fail("table"))
    assert run_cli("density", "--min", "16", "--max", "100", "--c", "1", "--mode", mode) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "unrecognized arguments: --mode" in err


@pytest.mark.parametrize("cmd", ["scan", "density"])
def test_range_past_2_53_refused_before_any_allocation(monkeypatch, cmd):
    def no_table(limit):
        raise AssertionError("the range guard must fire before the prime table")

    monkeypatch.setattr(cli, "build_prime_table", no_table)
    for workers in ("1", "2"):
        rc, out = run_cli(
            cmd, "--min", str(2**53 - 100), "--max", str(2**53 + 1), "--c", "1",
            "--workers", workers,
        )
        assert (rc, out) == (2, "")
    cli.RunConfig(subcommand=cmd, lo=2**53 - 100, hi=2**53, c_values=(1.0,)).validate()


def test_count_x_past_2_53_refused_before_any_allocation(monkeypatch):
    def no_table(limit):
        raise AssertionError("the 2**53 guard must fire before the prime table")

    monkeypatch.setattr(cli, "build_prime_table", no_table)
    for x in (2**53, 10**19, 2**63 - 1):
        rc, out = run_cli("count", "--x", str(x), "--c", "1", "--allow-large")
        assert (rc, out) == (2, "")
    cli.RunConfig(subcommand="count", x=2**53 - 1, c_values=(1.0,), allow_large=True).validate()


@pytest.mark.parametrize("cmd", ["count", "enumerate-m"])
def test_all_wide_set_refused_before_any_allocation(monkeypatch, capsys, cmd):
    # E = 0.3 ln ln x <= 1: every squarefree m <= x is wide, about 0.61 x members
    def no_table(limit):
        raise AssertionError("the wide-set guard must fire before the prime table")

    monkeypatch.setattr(cli, "build_prime_table", no_table)
    assert run_cli(cmd, "--x", str(10**7 + 1), "--c", "0.3") == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1
    cli.RunConfig(subcommand=cmd, x=10**7, c_values=(0.3,)).validate()


def test_enumerate_m_x_past_2_53_refused_before_any_allocation(monkeypatch):
    def no_table(limit):
        raise AssertionError("the 2**53 guard must fire before the prime table")

    monkeypatch.setattr(cli, "build_prime_table", no_table)
    for x in (2**53, 10**19, 2**63 - 1):
        rc, out = run_cli("enumerate-m", "--x", str(x), "--c", "1")
        assert (rc, out) == (2, "")
    cli.RunConfig(subcommand="enumerate-m", x=2**53 - 1, c_values=(1.0,)).validate()


@pytest.mark.parametrize(
    "argv,fields",
    [
        (
            "scan --min 20 --max 90 --c 2,1 --mode range --workers 2 "
            "--segment-size 64 --format csv --out s.csv",
            dict(lo=20, hi=90, c_values=(2.0, 1.0), mode=MODE_PER_RANGE, workers=2,
                 segment_size=64, fmt="csv", out="s.csv"),
        ),
        (
            "density --min 16 --max 100 --c 0.5",
            dict(lo=16, hi=100, c_values=(0.5,), mode=MODE_PER_N, workers=1,
                 segment_size=DEFAULT_SEGMENT_SIZE, fmt="json", out=None),
        ),
        (
            "count --x 200000000 --c 1 --allow-large --out c.json",
            dict(x=200_000_000, c_values=(1.0,), allow_large=True, out="c.json"),
        ),
        ("enumerate-m --x 3000 --c 0.5", dict(x=3000, c_values=(0.5,), allow_large=False)),
        ("verify", dict(c_values=())),
    ],
)
def test_flags_reach_run_config(monkeypatch, argv, fields):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # --workers 2 is not clamped
    argv = argv.split()
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    assert cfg.subcommand == argv[0]
    assert {k: getattr(cfg, k) for k in fields} == fields


def test_capacity_error_exit_code(monkeypatch):
    import factorgaps.cli as cli
    from factorgaps import build_prime_table

    monkeypatch.setattr(cli, "build_prime_table", lambda limit: build_prime_table(2))
    rc, _ = run_cli("scan", "--min", "16", "--max", "100000", "--c", "1")
    assert rc == 3


# ---------------------------------------------------------------- density


def test_density_rows():
    rc, text = run_cli("density", "--min", "16", "--max", "100000", "--c", "2,0.5,1")
    assert rc == 0
    doc = json.loads(text)
    assert doc["mode"] == MODE_PER_N
    cs = [row["c"] for row in doc["rows"]]
    assert cs == sorted(cs)
    emp = [row["empirical"] for row in doc["rows"]]
    assert emp == sorted(emp, reverse=True)
    one = next(row for row in doc["rows"] if row["c"] == 1)
    assert one["theoretical"] == pytest.approx(0.6321205588285577, rel=1e-15)
    assert one["empirical_per_n"] != one["empirical_per_range"]
    for row in doc["rows"]:
        c = row["c"]
        assert row["empirical"] == row["empirical_per_n"]
        assert row["theoretical"] == theoretical_density(c)
        assert row["deviation"] == row["empirical"] - row["theoretical"]
        assert row["partial_sums"] == [partial_alternating_sum(c, K) for K in range(9)]
        # consecutive partial sums bracket the limit
        lim = math.exp(-1.0 / c)
        for pair in zip(row["partial_sums"], row["partial_sums"][1:]):
            assert min(pair) - 1e-15 <= lim <= max(pair) + 1e-15


def test_density_pinned_to_scan_counts_without_histogram(monkeypatch):
    # test_pinned_density_at_1e6's counts, read back from the density rows
    summaries = []
    true_run_scan = cli.run_scan

    def spy(*args, **kwargs):
        summaries.append(true_run_scan(*args, **kwargs))
        return summaries[-1]

    monkeypatch.setattr(cli, "run_scan", spy)
    rc, text = run_cli("density", "--min", "16", "--max", "1000000", "--c", "0.5,1,2")
    assert rc == 0
    doc = json.loads(text)
    assert doc["eligible"] == 921_259
    exceed = {0.5: 898_633, 1.0: 695_369, 2.0: 331_203}
    for row in doc["rows"]:
        assert row["empirical_per_n"] == exceed[row["c"]] / 921_259
        assert row["empirical"] == row["empirical_per_n"]
    one = next(row for row in doc["rows"] if row["c"] == 1)
    assert one["empirical_per_range"] == 679_873 / 921_259
    assert [s.mode for s in summaries] == [MODE_PER_N, MODE_PER_RANGE]
    assert all(s.hist is None for s in summaries)


def test_density_csv():
    rc, text = run_cli(
        "density", "--min", "16", "--max", "20000", "--c", "1", "--format", "csv"
    )
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[-1].count(",") == 14  # c, 4 densities + deviation, 9 partials


# ---------------------------------------------------------------- verify


@pytest.fixture(scope="module")
def verification():
    return run_verification()


def test_verify_small_grid_passes(verification):
    ok, results = verification
    assert ok
    assert all(flag for _, flag, _ in results)


def test_verify_cli_exit_zero():
    rc, text = run_cli("verify")
    assert rc == 0
    assert "OK:" in text
    assert "FAIL" not in text.split("OK:")[0].replace("FAILED", "")


def test_verify_stdout_reproducible(capsys):
    # elapsed time goes to stderr, so stdout is the same on every run
    first = run_cli("verify")
    second = run_cli("verify")
    assert first == second
    assert first[1].splitlines()[-1].endswith(" checks passed")
    assert "verify took" in capsys.readouterr().err


def test_verify_cross_checks_scan_against_count(verification, monkeypatch):
    ok, results = verification
    names = {name for name, _, _ in results if name.startswith("scan-count")}
    assert ok and len(names) == len(cli.VERIFY_GRID_X) * len(cli.VERIFY_GRID_C) == 15
    # an exceedance count off by one in the scan must fail every such check
    true_scan_range = cli.scan_range

    def faulty(*args, **kwargs):
        s = true_scan_range(*args, **kwargs)
        s.exceed = {c: v + 1 for c, v in s.exceed.items()}
        return s

    monkeypatch.setattr(cli, "scan_range", faulty)
    _, results = run_verification()
    assert names <= {name for name, flag, _ in results if not flag}


def test_verify_negative_control(monkeypatch):
    # widen windows by wrongly including primes just above the boundary;
    # the fault must be caught and reported as a failure
    true_le_power = boundary.le_power

    def faulty(q, p, x, c):
        d = math.log(q) - boundary.gap_exponent(x, c) * math.log(p)
        if 0.0 < d < 0.3:
            return True
        return true_le_power(q, p, x, c)

    monkeypatch.setattr(boundary, "le_power", faulty)
    ok, results = run_verification()
    assert not ok
    rc, text = run_cli("verify")
    assert rc == 1
    lines = text.splitlines()
    n_pass = sum(line.startswith("PASS ") for line in lines)
    assert n_pass < len(results) == len(lines) - 1
    assert lines[-1] == f"FAILED: {n_pass}/{len(results)} checks passed"


# ---------------------------------------------------------------- output digests

# sha256 prefixes of stdout; a change that alters output on purpose updates
# them and says so in CHANGES.md
STDOUT_DIGESTS = {
    "scan --min 16 --max 300000 --c 0.5,1,2": "11d4e0eb6fd47be2",
    "scan --min 16 --max 300000 --c 0.5,1,2 --mode range --format csv": "79f435a43e9a842b",
    "scan --min 16 --max 300000 --c 0.5,1,2 --format csv": "d0a4357dff4cffe7",
    # 0.25 ln ln n < 1 throughout; 0.4 ln ln n crosses 1 near n = 195 000
    "scan --min 16 --max 300000 --c 0.25,0.4,1": "f20e4ba5d470ab76",
    "scan --min 16 --max 300000 --c 0.25,0.4,1 --mode range": "dfec9ece9e99610c",
    # no eligible n: the law prints nan
    "scan --min 16 --max 18 --c 1 --format csv": "88eacbecd9ade5f5",
    "scan --min 2147400000 --max 2147600000 --c 0.5,1,2 --segment-size 65536":
        "3f6acc670d72452a",
    "density --min 16 --max 300000 --c 0.25,0.5,1,2,4": "9a02f2198f7cc873",
    "density --min 16 --max 300000 --c 0.25,0.5,1,2,4 --format csv": "582e6f252493eb5d",
    # partial sums past K = 1 overflow: null in JSON, inf and nan in CSV
    "density --min 16 --max 1000 --c 1e-300": "38fc4d14362b0a36",
    "density --min 16 --max 1000 --c 1e-300 --format csv": "8484352f88031e32",
    "count --x 100000 --c 1": "94d4de79f7c034f6",
    "count --x 100000 --c 0.5": "03f1090cb1186b19",
    "count --x 100000 --c 2": "6ce6091f6f0922c9",
    "enumerate-m --x 1000000 --c 1": "261ad30f66513b81",
    "enumerate-m --x 9007199254740990 --c 1": "ececdb1d21d25414",
    "verify": "e908ce8fd965b8b7",
}


def test_stdout_digests_unchanged():
    got = {
        argv: hashlib.sha256(run_cli(*argv.split())[1].encode()).hexdigest()[:16]
        for argv in STDOUT_DIGESTS
    }
    assert got == STDOUT_DIGESTS
