"""Paired timings of one command from two source trees.

    python3 tools/paired.py PARENT_SRC CHANGE_SRC PAIRS ARG...

Runs ``python ARG...`` (for instance ``-m factorgaps.cli count --x
1000000 --c 1`` or ``-c "import factorgaps.cli"``) with ``PYTHONPATH``
set to each ``src`` directory in turn, PAIRS times per side, the parent
first in odd pairs and the change first in even pairs, after one
unrecorded pair that fills the bytecode caches. As ``perfbench/run.py``
does, every ``PYTHON*`` variable of this process is dropped from the
command's environment, and each command is reaped with ``os.wait4``, so
its CPU and peak RSS are its own; this process imports no third-party
module, so a child's peak RSS does not start from a large heap. The
unrecorded pair's stdout goes to two temporary files, which are compared
chunk by chunk only after the timed pairs: a forked child's peak RSS
starts at this process's, so this process never reads them whole. Every
other stdout, and every stderr, goes to /dev/null. A non-zero exit stops
the runs; a difference in stdout does not.

It prints whether the two stdouts were byte-identical, or else the first
offset where they differ; per side the median and quartiles
(``statistics.quantiles``, n=4, exclusive) of wall, CPU and peak RSS; and
per metric the pairs the change won (lower is better, ties count for
neither side) and the claim rule's verdict: a gain is claimed only if the
change won at least ceil(0.9 * PAIRS) pairs and the parent's median minus
the change's exceeds the parent's q3 - q1; then one JSON line with every
value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


def run_once(src: str, argv: list[str], stdout=subprocess.DEVNULL) -> dict[str, float]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, cwd=os.path.dirname(src),
        stdout=stdout, stderr=subprocess.DEVNULL,
    )
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status)
    if rc != 0:
        raise SystemExit(f"error: {argv} with PYTHONPATH={src} exited {rc}")
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
    }


def first_difference(a, b, chunk: int = 1 << 20) -> int | None:
    """The first offset where two open files differ, or None if they are equal."""
    a.seek(0)
    b.seek(0)
    offset = 0
    while True:
        x, y = a.read(chunk), b.read(chunk)
        if x != y:
            return offset + len(os.path.commonprefix([x, y]))
        if not x:
            return None
        offset += len(x)


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("pairs", type=int)
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="arguments to the interpreter")
    ns = ap.parse_args(argv)
    if ns.pairs < 2 or not ns.command:
        ap.error("need at least 2 pairs and a command")
    sides = {"parent": os.path.abspath(ns.parent_src),
             "change": os.path.abspath(ns.change_src)}
    for src in sides.values():
        if not os.path.isfile(os.path.join(src, "factorgaps", "cli.py")):
            ap.error(f"no factorgaps sources under {src}")

    with tempfile.TemporaryFile() as parent_out, tempfile.TemporaryFile() as change_out:
        outputs = {"parent": parent_out, "change": change_out}
        for side, fh in outputs.items():
            run_once(sides[side], ns.command, fh)
        runs: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
        for i in range(ns.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], ns.command))
        sizes = {side: os.fstat(fh.fileno()).st_size for side, fh in outputs.items()}
        first = first_difference(parent_out, change_out)
    same = first is None
    result = {"command": ns.command, "pairs": ns.pairs, "sides": sides,
              "stdout": {"identical": same, "first_difference": first, "bytes": sizes}}
    print(f"{' '.join(ns.command)}: {ns.pairs} pairs")
    if same:
        print(f"  stdout       identical, {sizes['parent']} bytes")
    else:
        print(f"  stdout       differs from byte {first}"
              f" (parent {sizes['parent']}, change {sizes['change']} bytes)")
    for m in METRICS:
        values = {side: [r[m] for r in runs[side]] for side in sides}
        stats = {side: spread(values[side]) for side in sides}
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        for side in sides:
            s = stats[side]
            print(f"  {m:12s} {side:6s} median {s['median']:.4f}"
                  f"  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}")
        need = math.ceil(9 * ns.pairs / 10)
        gain = stats["parent"]["median"] - stats["change"]["median"]
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        met = wins >= need and gain > iqr
        print(f"  {m:12s} claim {'met' if met else 'not met'}: change won"
              f" {wins}/{ns.pairs} (need {need}), median gain {gain:.4f}"
              f" vs parent q3 - q1 {iqr:.4f}")
        result[m] = {side: dict(stats[side], values=values[side]) for side in sides}
        result[m]["change_wins"] = wins
        result[m]["claim"] = {"met": met, "need_wins": need,
                              "median_gain": gain, "parent_iqr": iqr}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
