import io
import json
import math

import pytest

from factorgaps import boundary, cli
from factorgaps.cli import main, run_verification


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


def test_count_guard():
    rc, _ = run_cli("count", "--x", "200000000", "--c", "1")
    assert rc == 2


def test_count_reals_round_trip():
    rc, text = run_cli("count", "--x", "30", "--c", "1")
    doc = json.loads(text)
    z = doc["params"]["Z"]
    assert float(format(z, ".17g")) == z


# ---------------------------------------------------------------- enumerate-m


def test_enumerate_m_30():
    rc, text = run_cli("enumerate-m", "--x", "30", "--c", "1")
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[0] == "k,m,primes"
    rows = lines[1:]
    assert len(rows) == 15
    assert rows[0] == "0,1,"
    assert rows[-1] == "3,30,2 3 5"


def test_enumerate_m_30_c3():
    rc, text = run_cli("enumerate-m", "--x", "30", "--c", "3")
    rows = text.strip().splitlines()[1:]
    assert rows == ["0,1,", "1,2,2"]


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
    args = ("scan", "--min", "16", "--max", "300000", "--c", "1")
    rc1, a = run_cli(*args, "--workers", "1")

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a one-chunk scan must not start worker processes")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    rc4, b = run_cli(*args, "--workers", "4")
    assert rc1 == rc4 == 0
    assert a == b


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
    rc, _ = run_cli("scan", "--min", "16", "--max", "30", "--c", "1", "--segment-size", "0")
    assert rc == 2
    rc, _ = run_cli("scan", "--min", "8", "--max", "30", "--c", "1")
    assert rc == 2


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
    cs = [row["c"] for row in doc["rows"]]
    assert cs == sorted(cs)
    emp = [row["empirical"] for row in doc["rows"]]
    assert emp == sorted(emp, reverse=True)
    one = next(row for row in doc["rows"] if row["c"] == 1)
    assert one["theoretical"] == pytest.approx(0.6321205588285577, rel=1e-15)
    assert len(one["partial_sums"]) == 9
    assert one["empirical_per_n"] != one["empirical_per_range"]
    assert one["deviation"] == pytest.approx(one["empirical"] - one["theoretical"])


def test_density_csv():
    rc, text = run_cli(
        "density", "--min", "16", "--max", "20000", "--c", "1", "--format", "csv"
    )
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[-1].count(",") == 14  # c, 4 densities + deviation, 9 partials


# ---------------------------------------------------------------- verify


def test_verify_small_grid_passes():
    ok, results = run_verification(x_max=100, seed=20)
    assert ok
    assert all(flag for _, flag, _ in results)


def test_verify_cli_exit_zero():
    rc, text = run_cli("verify", "--x-max", "100")
    assert rc == 0
    assert "OK:" in text
    assert "FAIL" not in text.split("OK:")[0].replace("FAILED", "")


def test_verify_stdout_reproducible(capsys):
    # elapsed time goes to stderr, so stdout depends on the inputs only
    first = run_cli("verify", "--x-max", "30")
    second = run_cli("verify", "--x-max", "30")
    assert first == second
    assert first[1].splitlines()[-1].endswith(" checks passed")
    assert "verify took" in capsys.readouterr().err


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
    ok, results = run_verification(x_max=100, seed=20)
    assert not ok
    rc, text = run_cli("verify", "--x-max", "100")
    assert rc == 1
    assert "FAIL" in text
