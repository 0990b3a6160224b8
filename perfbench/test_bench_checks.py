"""Tests of the benchmark's own output checks and layer tracing.

    PYTHONPATH=src python -m pytest -q perfbench

Each check must pass on a real output of the current code and fail once
any count in it is off by one, or once the 2-worker stdout differs from
the 1-worker stdout by one byte. Inputs are small: the file runs in
seconds.
"""

import copy
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import layers  # noqa: E402
from factorgaps import cli, oracle  # noqa: E402


def run_cli(*args) -> str:
    buf = io.StringIO()
    assert cli.main(list(args), stdout=buf) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def count_out():
    return json.loads(run_cli("count", "--x", "3000", "--c", "1"))


def count_paths(out):
    """Paths to every integer count in a count payload."""
    paths = [("N_direct",), ("N_direct_gapform",), ("smooth_gap_count",),
             ("N_inclusion_exclusion",)]
    for i in range(len(out["per_k"])):
        paths += [("per_k", i, "N_k"), ("per_k", i, "m_count")]
    for i in range(len(out["bonferroni"])):
        paths.append(("bonferroni", i, 1))
    return paths


def test_count_check_passes_on_real_output(count_out):
    assert checks.check_count(json.dumps(count_out), 3000, 1.0, naive=True) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_count_check_fails_on_any_count_off_by_one(count_out, delta):
    for path in count_paths(count_out):
        bad = copy.deepcopy(count_out)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        assert checks.check_count(json.dumps(bad), 3000, 1.0), path


def test_prime_power_count_matches_oracle():
    for lo, hi in ((1, 2000), (16, 5000), (99_000, 101_000)):
        want = sum(
            1 for n in range(lo, hi) if len(oracle.naive_factorize(n).primes) == 1
        )
        assert checks.count_prime_powers(lo, hi) == want


def test_scan_checks_fail_on_eligible_off_by_one():
    lo, hi, cs = 16, 30_000, (0.5, 1.0, 2.0)
    text = run_cli("scan", "--min", str(lo), "--max", str(hi), "--c", "0.5,1,2")
    pp = checks.count_prime_powers(lo, hi)
    assert checks.check_scan(text, lo, hi, cs, pp) == []
    for delta in (1, -1):
        bad = json.loads(text)
        bad["eligible"] += delta
        assert checks.check_scan(json.dumps(bad), lo, hi, cs, pp)

    wlo, whi = 1_000_000, 1_000_800
    window = run_cli("scan", "--min", str(wlo), "--max", str(whi), "--c", "0.5,1,2")
    assert checks.check_scan_window(window, wlo, whi, cs) == []
    for field in ("eligible", ("exceed", "1")):
        bad = json.loads(window)
        if isinstance(field, tuple):
            bad[field[0]][field[1]] += 1
        else:
            bad[field] += 1
        assert checks.check_scan_window(json.dumps(bad), wlo, whi, cs)


def test_density_checks_and_worker_invariance():
    lo, hi, cs = 16, 200_000, (0.25, 0.5, 1.0, 2.0, 4.0)
    args = ["density", "--min", str(lo), "--max", str(hi), "--c", "0.25,0.5,1,2,4"]
    one = run_cli(*args, "--workers", "1")
    two = run_cli(*args, "--workers", "2")
    assert checks.check_same_bytes(one.encode(), two.encode(), "density") == []
    assert checks.check_density(one, lo, hi, cs, checks.count_prime_powers(lo, hi)) == []

    raw = two.encode()
    for i in (0, len(raw) // 2, len(raw) - 2):
        flipped = raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1 :]
        assert checks.check_same_bytes(one.encode(), flipped, "density")
    assert checks.check_same_bytes(one.encode(), raw[:-1], "density")

    bad = json.loads(one)
    bad["eligible"] += 1
    assert checks.check_density(
        json.dumps(bad), lo, hi, cs, checks.count_prime_powers(lo, hi))


def test_traced_run_reports_forked_workers():
    parts = os.path.join(HERE, "out", "test-trace")
    shutil.rmtree(parts, ignore_errors=True)
    os.makedirs(parts)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "traced_cli.py"), parts,
         "density", "--min", "16", "--max", "300000", "--c", "1", "--workers", "2",
         "--segment-size", "65536"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    m = layers.layer_metrics(*layers.load_parts(parts))
    shutil.rmtree(parts)
    assert m["cli.run_scan_calls"] == 2
    assert m["cli.workers_used"] == 2
    assert m["cli.tasks"] == m["gaps.scan_range_calls"] > 2
    assert m["gaps.ints_scanned"] == 2 * (300_000 - 16)
    assert m["sieve.table_calls"] == m["cli.tasks"]


def test_layer_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    m = layers.layer_metrics([], Counter())
    assert names == list(m) + ["trace.overhead_s"]
