"""cptower benchmark: `cpt sweep` and cached `cpt iso`, run through the real
entry point ``cptower.cli.main`` in one process, with no ``--jobs``.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep-three-stage --seed 1 \
        --seconds 30 --trace 0

Workloads (README.md in this directory says why each exists):

  sweep-three-stage  cpt sweep --theorem three-stage --range 2 --bound 3
  sweep-eight-dim    cpt sweep --theorem eight-dim --range 8 --bound 3
  iso-cached         closed loop, one client: 150 seeded pairs, each asked
                     3 times in seeded order, cpt iso A B --bound 2, with
                     CPT_CACHE_DIR set to a fresh empty directory per pass

A pass is one run of the workload's cli.main calls with in-process caches
cold.  Passes repeat until the next one would end after --seconds (at least
3 with --trace 0).  Every sweep row and every iso output is compared with
the pinned outputs in expected/ (written by pin.py).  With --trace 1 the
passes alternate untraced and traced; the traced ones wrap the layer
bindings listed in tracing.py.

Untraced passes run a reference chunk (refspeed.py) between operations, and
the end-to-end timings are scaled to the reference host speed with it; the
info line also gives them unscaled.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 2 without
a result when src/cptower is missing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from itertools import zip_longest

import refspeed
from tracing import Tracer, layer_bindings
from workloads import ISO_WORKLOAD, WORKLOADS, import_cptower, prepare

SETUP_PROBES = 11
MIN_PASSES = 3

# Bindings (tracing labels) that must fire on every traced run of a
# workload; a missing one means a layer was silently dropped.
_COMMON_BINDINGS = {
    "cptower.cli.main",
    "cptower.catalog.search",
    "cptower.isosearch.verify",
    "RingPresentation.normal_form",
    "Poly.substitute",
}
EXPECTED_BINDINGS = {
    "sweep-three-stage": _COMMON_BINDINGS | {
        "cptower.cli.sweep_distinctness",
        "cptower.catalog._cached_search",
        "cptower.catalog.presentation",
    },
    ISO_WORKLOAD: _COMMON_BINDINGS | {
        "cptower.cli._cached_search",
        "cptower.cli.presentation",
        "cptower.catalog.verify",
    },
}
EXPECTED_BINDINGS["sweep-eight-dim"] = EXPECTED_BINDINGS["sweep-three-stage"]


class SetupProbes:
    """Time set-up in fresh processes (``workloads.py`` run as a script),
    one at a time, spread over the rounds of a run so that their median
    covers more than one moment of the host's load.  One first probe, which
    may compile bytecode, is discarded.  Each probe also times reference
    chunks after its set-up; ``times`` holds set-up times scaled to the
    reference speed with them, ``raw_times`` the times as taken."""

    def __init__(self, workload: str, seed: int, total: int):
        probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "workloads.py")
        self.cmd = [sys.executable, probe, workload, str(seed)]
        self.total = total
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self._probe()
        self.times.clear()
        self.raw_times.clear()

    def _probe(self) -> None:
        done = subprocess.run(self.cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        setup, chunk = map(float, done.stdout.split()[-2:])
        self.raw_times.append(setup)
        self.times.append(setup * refspeed.scale([chunk]))

    def take(self, rounds_left: int) -> None:
        """Run this round's share of the probes not yet run."""
        missing = self.total - len(self.times)
        for _ in range(-(-missing // max(1, rounds_left))):
            self._probe()


# -- one pass --------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float  # reference chunks excluded
    latencies: list  # seconds per operation: sweep row or iso query
    attempted: int
    failed: int
    problems: list  # checks other than per-operation output mismatches
    counters: dict  # deterministic counts measured without tracing
    chunks: list  # reference chunk times; empty in traced passes
    tracer: Tracer | None = None


# Counters that only a sweep produces; they read 0 on iso-cached.
ROW_COUNTERS = (
    "catalog.rows.found", "catalog.rows.exhausted",
    "catalog.rows.betti_mismatch", "catalog.presentation_of.hits",
    "catalog.presentation_of.misses",
)


def sweep_pass(mods, argv, expected, pacer) -> PassResult:
    catalog = mods.catalog
    catalog.presentation_of.cache_clear()
    latencies: list = []
    worker = catalog._sweep_worker

    def timed_worker(arg):
        start = time.perf_counter()
        try:
            return worker(arg)
        finally:
            latencies.append(time.perf_counter() - start)
            if pacer is not None:
                pacer.after(latencies[-1])

    out = io.StringIO()
    catalog._sweep_worker = timed_worker
    try:
        with redirect_stdout(out):
            start = time.perf_counter()
            code = mods.cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        catalog._sweep_worker = worker
    cache_info = catalog.presentation_of.cache_info()
    try:
        report = json.loads(out.getvalue())
        rows, summary = report["rows"], report["summary"]
    except (ValueError, KeyError, TypeError):
        rows, summary = [], None
    pinned = expected["rows"]
    failed = sum(
        1 for got, want in zip_longest(rows, pinned)
        if got != want or not got["pass"]
    )
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit code {code}, pinned {expected['exit']}")
    if summary != expected["summary"]:
        problems.append(f"summary {summary}, pinned {expected['summary']}")
    verdicts = [r.get("verdict", {}) for r in rows]
    reasons = [v.get("reason") for v in verdicts]
    counters = {
        "catalog.rows.found": sum(
            1 for v in verdicts if v.get("result") == "found"),
        "catalog.rows.exhausted": reasons.count("exhausted"),
        "catalog.rows.betti_mismatch": reasons.count("betti_mismatch"),
        "catalog.presentation_of.hits": cache_info.hits,
        "catalog.presentation_of.misses": cache_info.misses,
        "catalog.cache.bytes_written": 0,
    }
    chunks = [] if pacer is None else pacer.chunks
    return PassResult(wall - sum(chunks), latencies, len(pinned), failed,
                      problems, counters, chunks)


def iso_pass(mods, queries, expected, work_dir, pacer) -> PassResult:
    mods.catalog.presentation_of.cache_clear()
    outputs = expected["outputs"]
    cache_dir = tempfile.mkdtemp(dir=work_dir)
    os.environ["CPT_CACHE_DIR"] = cache_dir
    latencies = []
    failed = 0
    try:
        pass_start = time.perf_counter()
        for argv in queries:
            out = io.StringIO()
            with redirect_stdout(out):
                start = time.perf_counter()
                code = mods.cli.main(argv)
                latencies.append(time.perf_counter() - start)
            if pacer is not None:
                pacer.after(latencies[-1])
            want = outputs[f"{argv[1]} {argv[2]}"]
            if code != want["exit"] or out.getvalue() != want["stdout"]:
                failed += 1
        wall = time.perf_counter() - pass_start
        written = sum(
            os.path.getsize(os.path.join(cache_dir, name))
            for name in os.listdir(cache_dir)
        )
    finally:
        del os.environ["CPT_CACHE_DIR"]
        shutil.rmtree(cache_dir)
    counters = dict.fromkeys(ROW_COUNTERS, 0)
    counters["catalog.cache.bytes_written"] = written
    chunks = [] if pacer is None else pacer.chunks
    return PassResult(wall - sum(chunks), latencies, len(queries), failed,
                      [], counters, chunks)


def traced(one_pass, mods):
    """One pass with every layer binding wrapped, and no reference chunks,
    which would land inside the spans."""
    tracer = Tracer()
    with tracer.installed(layer_bindings(
        mods.cli, mods.catalog, mods.isosearch, mods.towers, mods.polyring
    )):
        result = one_pass(None)
    result.tracer = tracer
    return result


def run_passes(one_pass, mods, seconds: float, trace: bool, probes=None):
    """Untraced passes (and, with trace, a traced pass after each) until
    the next round would end after ``seconds``.  Set-up probes, if given,
    run at the start of the rounds."""
    untraced_runs, traced_runs = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        if probes is not None:
            left = seconds - (round_start - start)
            probes.take(int(left / longest) if longest else probes.total)
        untraced_runs.append(one_pass(refspeed.Pacer()))
        if trace:
            traced_runs.append(traced(one_pass, mods))
        longest = max(longest, time.perf_counter() - round_start)
        enough = trace or len(untraced_runs) >= MIN_PASSES
        if enough and time.perf_counter() - start + longest > seconds:
            if probes is not None:
                probes.take(1)
            return untraced_runs, traced_runs


# -- metrics ---------------------------------------------------------------


def percentile(values, q: int) -> float:
    """The q-th percentile; 0 for no values, so that a layer a workload
    never reached reads 0 instead of failing the run."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def operation_medians(runs) -> list[float]:
    """Each operation's median time across the passes.  Every pass runs the
    same operations in the same order, and a burst of load from other
    processes that slows part of one pass moves these much less than it
    moves that pass's own times."""
    return [statistics.median(t) for t in zip(*(r.latencies for r in runs))]


def typical_pass_s(runs) -> float:
    """The wall time of one pass: the sum of the operation medians plus the
    median time spent outside operations."""
    outside = statistics.median(r.wall_s - sum(r.latencies) for r in runs)
    return sum(operation_medians(runs)) + outside


def at_reference_speed(run: PassResult) -> PassResult:
    """The pass with its times scaled by its own reference chunks."""
    k = refspeed.scale(run.chunks)
    return replace(run, wall_s=run.wall_s * k,
                   latencies=[t * k for t in run.latencies])


def end_to_end_metrics(runs, setup_times) -> dict:
    operations = operation_medians(runs)
    pass_s = typical_pass_s(runs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_s": (pass_s, "s"),
        "iso_p50_ms": (1000 * percentile(operations, 50), "ms"),
        "iso_p95_ms": (1000 * percentile(operations, 95), "ms"),
        "iso_qps": (len(operations) / pass_s, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def layer_counts(result: PassResult) -> dict:
    """The deterministic counters of one traced pass."""
    span = result.tracer.span
    counters = result.tracer.counters
    return {
        "isosearch.search.calls": span("isosearch.search").calls,
        "isosearch.search.found": counters["isosearch.search.found"],
        "isosearch.verify.calls": span("isosearch.verify").calls,
        "catalog.cache.hits": counters["catalog.cache.hits"],
        "catalog.cache.misses": counters["catalog.cache.misses"],
        "cli.main.calls": span("cli.main").calls,
        "towers.presentation.calls": span("towers.presentation").calls,
        "towers.normal_form.calls": span("towers.normal_form").calls,
        "polyring.substitute.calls": span("polyring.substitute").calls,
        **result.counters,
    }


def layer_metrics(untraced_runs, traced_runs) -> dict:
    counts = layer_counts(traced_runs[0])

    def seconds(fn) -> float:
        return statistics.median(fn(r.tracer.span) for r in traced_runs)

    search_s = seconds(lambda s: s("isosearch.search").total_s)
    search_durations = [
        d for r in traced_runs
        for d in r.tracer.span("isosearch.search").durations
    ]
    calls = counts["isosearch.search.calls"]
    lookups = counts["catalog.cache.hits"] + counts["catalog.cache.misses"]
    untraced_wall = typical_pass_s(untraced_runs)
    traced_wall = typical_pass_s(traced_runs)
    metrics = {
        "isosearch.search.calls": (calls, "count"),
        "isosearch.search_s": (search_s, "s"),
        "isosearch.search.self_s": (
            seconds(lambda s: s("isosearch.search").self_s), "s"),
        "isosearch.search.p50_ms": (
            1000 * percentile(search_durations, 50), "ms"),
        "isosearch.search.p90_ms": (
            1000 * percentile(search_durations, 90), "ms"),
        "isosearch.searches_per_s": (ratio(calls, search_s), "1/s"),
        "isosearch.found_ratio": (
            ratio(counts["isosearch.search.found"], calls), "ratio"),
        "isosearch.verify.calls": (counts["isosearch.verify.calls"], "count"),
        "isosearch.verify_s": (
            seconds(lambda s: s("isosearch.verify").total_s), "s"),
        "catalog.sweep_distinctness_s": (
            seconds(lambda s: s("catalog.sweep_distinctness").total_s), "s"),
        "catalog.self_s": (
            seconds(lambda s: s("catalog.sweep_distinctness").self_s), "s"),
    }
    for name in ("catalog.rows.found", "catalog.rows.exhausted",
                 "catalog.rows.betti_mismatch",
                 "catalog.presentation_of.hits",
                 "catalog.presentation_of.misses",
                 "catalog.cache.hits", "catalog.cache.misses"):
        metrics[name] = (counts[name], "count")
    metrics.update({
        "catalog.cache.hit_ratio": (
            ratio(counts["catalog.cache.hits"], lookups), "ratio"),
        "catalog.cache.bytes_written": (
            counts["catalog.cache.bytes_written"], "B"),
        "catalog.cache.self_s": (
            seconds(lambda s: s("catalog.cached_search").self_s), "s"),
        "cli.main.calls": (counts["cli.main.calls"], "count"),
        "cli.self_s": (seconds(lambda s: s("cli.main").self_s), "s"),
        "towers.presentation.calls": (
            counts["towers.presentation.calls"], "count"),
        "towers.presentation_s": (
            seconds(lambda s: s("towers.presentation").total_s), "s"),
        "towers.normal_form.calls": (
            counts["towers.normal_form.calls"], "count"),
        "towers.normal_form_s": (
            seconds(lambda s: s("towers.normal_form").total_s), "s"),
        "polyring.substitute.calls": (
            counts["polyring.substitute.calls"], "count"),
        "polyring.substitute_s": (
            seconds(lambda s: s("polyring.substitute").total_s), "s"),
        "trace.overhead_share": (
            (traced_wall - untraced_wall) / untraced_wall, "ratio"),
    })
    return metrics


def self_checks(workload, untraced_runs, traced_runs) -> list[str]:
    """Problems that make a run incorrect beyond mismatched outputs."""
    runs = untraced_runs + traced_runs
    problems = [p for r in runs for p in r.problems]
    if any(len(r.latencies) != r.attempted for r in runs):
        problems.append("operations timed differ from operations attempted")
    if any(r.counters != runs[0].counters for r in runs):
        problems.append("deterministic counters differ between passes")
    if traced_runs:
        first = layer_counts(traced_runs[0])
        if any(layer_counts(r) != first for r in traced_runs):
            problems.append("traced counters differ between passes")
        fired = set().union(*(r.tracer.fired for r in traced_runs))
        missing = sorted(EXPECTED_BINDINGS[workload] - fired)
        if missing:
            problems.append(f"bindings never traced: {', '.join(missing)}")
    return problems


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- entry point -----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = import_cptower()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    probes = None if args.trace else SetupProbes(args.workload, args.seed,
                                                 SETUP_PROBES)
    inputs, expected = prepare(args.workload, args.seed, mods)
    work_dir = os.path.join(os.getcwd(), ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.workload == ISO_WORKLOAD:
            def one_pass(pacer):
                return iso_pass(mods, inputs, expected, work_dir, pacer)
        else:
            def one_pass(pacer):
                return sweep_pass(mods, inputs[0], expected, pacer)
        untraced_runs, traced_runs = run_passes(
            one_pass, mods, args.seconds, bool(args.trace), probes
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    runs = untraced_runs + traced_runs
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = self_checks(args.workload, untraced_runs, traced_runs)
    scales = [refspeed.scale(r.chunks) for r in untraced_runs]
    if args.trace:
        metrics = layer_metrics(untraced_runs, traced_runs)
        unscaled = None
    else:
        metrics = end_to_end_metrics(
            [at_reference_speed(r) for r in untraced_runs], probes.times)
        unscaled = {
            name: value for name, (value, _unit) in
            end_to_end_metrics(untraced_runs, probes.raw_times).items()
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_info(),
        "passes": {"untraced": len(untraced_runs),
                   "traced": len(traced_runs)},
        "samples": {
            "operations_per_pass": len(untraced_runs[0].latencies),
            "latencies": sum(len(r.latencies) for r in untraced_runs),
            "setup_probes": 0 if probes is None else len(probes.times),
        },
        "failed_share": failed / attempted,
        "reference_scale": {"min": min(scales),
                            "median": statistics.median(scales),
                            "max": max(scales)},
        "unscaled_metrics": unscaled,
        "counters": layer_counts(traced_runs[0]) if traced_runs
        else untraced_runs[0].counters,
    }
    print("info " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"  {'failed_share':<{width}}  {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
