"""Benchmark of the factorgaps CLI: scan, density and count.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workload's command is run as a subprocess in rounds until
the rounds add up to S seconds (at least one round). Each round's stdout
is checked after the command ends, outside the timed region; a failed
command or check counts the round as failed. Seed-chosen side checks
(small inputs against ``factorgaps.oracle`` or a second worker count)
run once per run and apply to every round.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` one more round runs under
``traced_cli.py`` and the line holds the per-layer metrics. Outputs and
trace files go to ``perfbench/out/<workload>/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checks
import layers

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DEADLINE_S = 170.0
SETUP_STARTS = 9

SCAN_MAX = 100_000_000
SCAN_C = (0.5, 1.0, 2.0)
SCAN_WINDOW = 10_000
DENSITY_MAX = 50_000_000
DENSITY_C = (0.25, 0.5, 1.0, 2.0, 4.0)
DENSITY_SUBRANGE = 1_000_000
COUNT_X = 1_000_000
COUNT_C = 1.0


def c_arg(cs) -> str:
    return ",".join(format(c, "g") for c in cs)


@dataclass
class Workload:
    args: list[str]
    ints: int  # integers covered by one command
    check: Callable[[str], list[str]]  # checks of one round's stdout
    side_checks: Callable[["Runner", random.Random], list[str]]


@dataclass
class Result:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


@dataclass
class Runner:
    out_dir: str
    deadline: float
    env: dict

    def run(self, argv: list[str], name: str) -> Result:
        """Run argv to its end; CPU and peak RSS cover the whole process
        tree (the CLI reaps its workers, so wait4 reports them). The
        command gets its own process group, which is killed at the run's
        deadline or when the benchmark itself is stopped."""
        out_path = os.path.join(self.out_dir, name + ".out")
        err_path = os.path.join(self.out_dir, name + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                start_new_session=True,
            )
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,)
            )
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            text = fh.read()
        return Result(
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=ru.ru_utime + ru.ru_stime,
            rss_mb=ru.ru_maxrss / 1024.0,
            stdout=text,
        )

    def cli(self, args: list[str], name: str) -> Result:
        return self.run([sys.executable, "-m", "factorgaps.cli", *args], name)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _failed(res: Result, what: str) -> list[str]:
    return [] if res.rc == 0 else [f"{what}: exit code {res.rc}"]


def _guarded(check, *args) -> list[str]:
    """Run a check; output of the wrong shape fails it instead of
    stopping the benchmark."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


# ----------------------------------------------------------------------
# workloads


def scan_side(runner: Runner, rng: random.Random) -> list[str]:
    lo = SCAN_MAX - SCAN_WINDOW - rng.randrange(1_000_000)
    hi = lo + SCAN_WINDOW
    res = runner.cli(
        ["scan", "--min", str(lo), "--max", str(hi), "--c", c_arg(SCAN_C)],
        "side-window",
    )
    return _failed(res, "window scan") or (
        checks.check_scan_window(res.stdout, lo, hi, SCAN_C)
        + checks.check_scan(res.stdout, lo, hi, SCAN_C,
                            checks.count_prime_powers(lo, hi))
    )


def density_side(runner: Runner, rng: random.Random) -> list[str]:
    lo = rng.randrange(16, DENSITY_MAX - DENSITY_SUBRANGE)
    hi = lo + DENSITY_SUBRANGE
    args = ["density", "--min", str(lo), "--max", str(hi), "--c", c_arg(DENSITY_C)]
    one = runner.cli(args + ["--workers", "1"], "side-1w")
    two = runner.cli(args + ["--workers", "2"], "side-2w")
    return (_failed(one, "1-worker density") + _failed(two, "2-worker density")) or (
        checks.check_same_bytes(one.stdout.encode(), two.stdout.encode(),
                                f"density [{lo}, {hi}) 1 vs 2 workers")
        + checks.check_density(one.stdout, lo, hi, DENSITY_C,
                               checks.count_prime_powers(lo, hi))
    )


def count_side(runner: Runner, rng: random.Random) -> list[str]:
    x = rng.randrange(2000, 5001)
    res = runner.cli(["count", "--x", str(x), "--c", format(COUNT_C, "g")], "side-count")
    return _failed(res, f"count x={x}") or checks.check_count(
        res.stdout, x, COUNT_C, naive=True
    )


def workloads() -> dict[str, Workload]:
    # The prime-power counts are the same for every round; compute once.
    cache: dict[tuple[int, int], int] = {}

    def prime_powers(lo, hi):
        if (lo, hi) not in cache:
            cache[(lo, hi)] = checks.count_prime_powers(lo, hi)
        return cache[(lo, hi)]

    return {
        "scan-1w": Workload(
            args=["scan", "--min", "16", "--max", str(SCAN_MAX),
                  "--c", c_arg(SCAN_C), "--workers", "1"],
            ints=SCAN_MAX - 16,
            check=lambda text: checks.check_scan(
                text, 16, SCAN_MAX, SCAN_C, prime_powers(16, SCAN_MAX)),
            side_checks=scan_side,
        ),
        "density-2w": Workload(
            args=["density", "--min", "16", "--max", str(DENSITY_MAX),
                  "--c", c_arg(DENSITY_C), "--workers", "2"],
            ints=DENSITY_MAX - 16,
            check=lambda text: checks.check_density(
                text, 16, DENSITY_MAX, DENSITY_C, prime_powers(16, DENSITY_MAX)),
            side_checks=density_side,
        ),
        "count-c1": Workload(
            args=["count", "--x", str(COUNT_X), "--c", format(COUNT_C, "g")],
            ints=COUNT_X,
            check=lambda text: checks.check_count(text, COUNT_X, COUNT_C),
            side_checks=count_side,
        ),
    }


# ----------------------------------------------------------------------
# main


def setup_seconds(runner: Runner) -> float:
    """Median wall time of interpreter start plus ``import factorgaps.cli``."""
    times = []
    for i in range(SETUP_STARTS):
        res = runner.run([sys.executable, "-c", "import factorgaps.cli"], "setup")
        if res.rc != 0:
            raise SystemExit(f"error: importing factorgaps.cli failed ({res.rc})")
        times.append(res.wall_s)
    return statistics.median(times)


def traced_round(runner: Runner, wl: Workload, name: str, seed: int):
    """One round under traced_cli.py; returns its result and layer metrics."""
    parts = os.path.join(runner.out_dir, "trace-parts")
    shutil.rmtree(parts, ignore_errors=True)
    os.makedirs(parts)
    res = runner.run(
        [sys.executable, os.path.join(HERE, "traced_cli.py"), parts, *wl.args],
        "traced",
    )
    spans, counters = layers.load_parts(parts)
    metrics = layers.layer_metrics(spans, counters)
    with open(os.path.join(runner.out_dir, f"trace-seed{seed}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "args": wl.args,
                   "metrics": metrics, "counters": counters, "spans": spans}, fh)
    shutil.rmtree(parts)
    return res, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    start = time.monotonic()
    # Stopping the benchmark unwinds through Runner.run, which kills the
    # running command's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "factorgaps", "cli.py")):
        print(f"error: no factorgaps sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import factorgaps

    if os.path.dirname(os.path.abspath(factorgaps.__file__)) != os.path.join(SRC, "factorgaps"):
        print(f"error: factorgaps imported from {factorgaps.__file__}", file=sys.stderr)
        return 2
    table = workloads()
    if ns.workload not in table:
        print(f"error: unknown workload {ns.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[ns.workload]

    out_dir = os.path.join(HERE, "out", ns.workload)
    os.makedirs(out_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    runner = Runner(out_dir=out_dir, deadline=start + RUN_DEADLINE_S, env=env)

    setup_s = setup_seconds(runner)
    rounds: list[Result] = []
    problems: list[list[str]] = []
    while not rounds or sum(r.wall_s for r in rounds) < ns.seconds:
        res = runner.cli(wl.args, "round")
        rounds.append(res)
        problems.append(_failed(res, "command") or _guarded(wl.check, res.stdout))
        if time.monotonic() > runner.deadline:
            break

    side = _guarded(wl.side_checks, runner, random.Random(f"{ns.workload}:{ns.seed}"))
    layer = None
    if ns.trace:
        res, layer = traced_round(runner, wl, ns.workload, ns.seed)
        problems.append(
            _failed(res, "traced command") or _guarded(wl.check, res.stdout))
        layer["trace.overhead_s"] = res.wall_s - statistics.median(
            r.wall_s for r in rounds)

    failed = sum(1 for p in problems if p or side)
    for i, p in enumerate(problems):
        for msg in p:
            print(f"FAIL {ns.workload} round {i}: {msg}", file=sys.stderr)
    for msg in side:
        print(f"FAIL {ns.workload} side check: {msg}", file=sys.stderr)

    if layer is not None:
        values = layer
        spec = "per_layer"
    else:
        wall = statistics.median(r.wall_s for r in rounds)
        values = {
            "wall_s": wall,
            "ints_per_s": wl.ints / wall,
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": max(r.rss_mb for r in rounds),
            "setup_s": setup_s,
        }
        spec = "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in json.load(fh)[spec]
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
