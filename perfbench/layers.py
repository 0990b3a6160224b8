"""Layer tracing from outside the package.

:class:`Tracer` replaces public functions of the ``factorgaps`` modules
with wrappers that record a span (name, parent, process, start, end,
attributes) or bump a counter, everywhere the original function object is
bound, so callers that imported it by name are caught too. Worker
processes forked from a traced process inherit the wrappers; each process
keeps its spans in memory and writes them to its own part file when it
ends. :func:`layer_metrics` turns the spans of one command into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from collections import Counter, defaultdict

NS = 1e-9


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.stack: list[tuple[int, str]] = []
        self.next_id = 0
        self.pid = os.getpid()
        # ProcessPoolExecutor workers leave through multiprocessing's
        # exit handlers, not atexit, so a finalizer writes their part file.
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self):
        self.spans = []
        self.counters = Counter()
        self.pid = os.getpid()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def _new_id(self) -> int:
        self.next_id += 1
        return self.pid * 1_000_000 + self.next_id

    def _record(self, sid, name, parent, t0, t1, attrs):
        self.spans.append(
            {"id": sid, "parent": parent, "name": name,
             "pid": self.pid, "t0": t0, "t1": t1, "attrs": attrs}
        )

    def timed(self, name, fn, attrs=None):
        """Wrap fn in a span; ``attrs(args, kwargs, result)`` adds fields.
        A call nested directly in a span of the same name (recursion)
        is not recorded again."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1][0] if tracer.stack else None
            sid = tracer._new_id()
            tracer.stack.append((sid, name))
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer.stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            tracer._record(sid, name, parent, t0, t1, extra)
            return result

        return wrapper

    def counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name, fn):
        """Wrap a generator function; the span records the time spent
        inside the generator itself (``self_ns``) and the items yielded."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            parent = tracer.stack[-1][0] if tracer.stack else None
            t0 = time.perf_counter_ns()
            busy = 0
            items = 0
            clock = time.perf_counter_ns
            try:
                while True:
                    t = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += clock() - t
                        break
                    busy += clock() - t
                    items += 1
                    yield item
            finally:
                tracer._record(tracer._new_id(), name, parent, t0, clock(),
                               {"self_ns": busy, "items": items})

        return wrapper

    def flush(self):
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every ``factorgaps`` module in place."""
    import factorgaps
    from factorgaps import boundary, cli, counting, gaps, sieve

    def ints(args, kwargs, result):
        return {"ints": args[1] - args[0]}

    def candidates(args, kwargs, result):
        m, pars = args[0], args[1]
        return {"candidates": pars.x // m.m}

    def members(args, kwargs, result):
        return {"members": len(result)}

    wrappers = {
        cli.run_scan: tracer.timed("cli.run_scan", cli.run_scan),
        cli.render_json: tracer.timed("cli.render", cli.render_json),
        cli.summary_payload: tracer.timed("cli.render", cli.summary_payload),
        cli.summary_csv: tracer.timed("cli.render", cli.summary_csv),
        sieve.build_prime_table: tracer.timed(
            "sieve.build_prime_table", sieve.build_prime_table),
        sieve.factorize: tracer.counted("sieve.factorize", sieve.factorize),
        sieve.segment_factor_scan: tracer.generator(
            "sieve.segment_factor_scan", sieve.segment_factor_scan),
        gaps.scan_range: tracer.timed("gaps.scan_range", gaps.scan_range, ints),
        gaps.merge_summaries: tracer.timed(
            "gaps.merge_summaries", gaps.merge_summaries),
        counting.wide_squarefree_set: tracer.timed(
            "counting.wide_squarefree_set", counting.wide_squarefree_set, members),
        counting.count_isolated_set: tracer.timed(
            "counting.count_isolated_set", counting.count_isolated_set, candidates),
        counting.direct_counts: tracer.timed(
            "counting.direct_counts", counting.direct_counts),
        counting.tuple_reciprocal_sum: tracer.timed(
            "counting.tuple_reciprocal_sum", counting.tuple_reciprocal_sum),
        counting.inclusion_exclusion: tracer.timed(
            "counting.inclusion_exclusion", counting.inclusion_exclusion),
        boundary.le_power: tracer.counted("boundary.le_power", boundary.le_power),
        boundary.le_root: tracer.counted("boundary.le_root", boundary.le_root),
    }
    for module in (factorgaps, boundary, cli, counting, gaps, sieve):
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                setattr(module, attr, wrappers[value])


def load_parts(out_dir: str) -> tuple[list[dict], Counter]:
    spans: list[dict] = []
    counters: Counter = Counter()
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("spans-") and fname.endswith(".json"):
            with open(os.path.join(out_dir, fname)) as fh:
                part = json.load(fh)
            spans.extend(part["spans"])
            counters.update(part["counters"])
    return spans, counters


def layer_metrics(spans: list[dict], counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced command (times in seconds)."""
    by_id = {s["id"]: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def dur(s):
        return (s["t1"] - s["t0"]) * NS

    def total(name):
        return sum(dur(s) for s in named[name])

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    m: dict[str, float] = {}

    # cli: fan-out of run_scan. A task is one scan_range call under a
    # run_scan; a worker's busy time is its table builds and scans there.
    runs = named["cli.run_scan"]
    busy_max = busy_mean = overhead = 0.0
    tasks = workers = 0
    for r in runs:
        busy = defaultdict(float)
        for s in spans:
            if s["parent"] == r["id"] and s["name"] in (
                "gaps.scan_range", "sieve.build_prime_table"
            ):
                busy[s["pid"]] += dur(s)
                tasks += s["name"] == "gaps.scan_range"
        if busy:
            busy_max += max(busy.values())
            busy_mean += sum(busy.values()) / len(busy)
            overhead += dur(r) - max(busy.values())
            workers = max(workers, len(busy))
    m["cli.run_scan_calls"] = len(runs)
    m["cli.run_scan_s"] = total("cli.run_scan")
    m["cli.tasks"] = tasks
    m["cli.workers_used"] = workers
    m["cli.worker_busy_max_s"] = busy_max
    m["cli.worker_imbalance"] = busy_max / busy_mean if busy_mean else 0.0
    m["cli.fanout_overhead_s"] = overhead
    m["cli.render_s"] = total("cli.render")

    scans = named["sieve.segment_factor_scan"]
    m["sieve.table_calls"] = len(named["sieve.build_prime_table"])
    m["sieve.table_s"] = total("sieve.build_prime_table")
    m["sieve.factorizations"] = (
        sum(s["attrs"]["items"] for s in scans) + counters["sieve.factorize"]
    )
    m["sieve.factor_scan_s"] = sum(s["attrs"]["self_ns"] for s in scans) * NS

    ints = sum(s["attrs"]["ints"] for s in named["gaps.scan_range"])
    inner_merges = sum(
        dur(s) for s in named["gaps.merge_summaries"]
        if parent_name(s) == "gaps.scan_range"
    )
    kernel = total("gaps.scan_range") - inner_merges
    m["gaps.scan_range_calls"] = len(named["gaps.scan_range"])
    m["gaps.kernel_s"] = kernel
    m["gaps.kernel_ns_per_int"] = kernel / NS / ints if ints else 0.0
    m["gaps.merge_calls"] = len(named["gaps.merge_summaries"])
    m["gaps.merge_s"] = total("gaps.merge_summaries")
    m["gaps.ints_scanned"] = ints

    def factorizations_under(name):
        return sum(s["attrs"]["items"] for s in scans if parent_name(s) == name)

    m["counting.wide_set_s"] = total("counting.wide_squarefree_set")
    m["counting.wide_members"] = sum(
        s["attrs"]["members"] for s in named["counting.wide_squarefree_set"]
    )
    m["counting.inner_calls"] = len(named["counting.count_isolated_set"])
    m["counting.inner_s"] = total("counting.count_isolated_set")
    m["counting.inner_candidates"] = sum(
        s["attrs"]["candidates"] for s in named["counting.count_isolated_set"]
    )
    m["counting.inner_factorizations"] = factorizations_under(
        "counting.count_isolated_set")
    m["counting.direct_s"] = total("counting.direct_counts")
    m["counting.direct_factorizations"] = factorizations_under(
        "counting.direct_counts")
    m["counting.tuple_sums_s"] = total("counting.tuple_reciprocal_sum")

    m["boundary.le_power_calls"] = counters["boundary.le_power"]
    m["boundary.le_root_calls"] = counters["boundary.le_root"]
    return m
