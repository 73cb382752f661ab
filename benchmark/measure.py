"""Timed passes of one workload and the metrics computed from them.

`run_workload` sets the workload up several times (the median build time
plus the import time is `setup_s`), runs timed passes for the time given,
and prints every metric with its unit, then the JSON result line. Timings
of set-up and of CPU-bound passes are scaled by the host-speed gauge
(gauge.py) and also printed unscaled.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from endpoint import STEPS, summarize
from gauge import Gauge
from tracer import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "1/s",
    "replay_docs_per_s": "1/s",
    "doc_latency_p50_ms": "ms",
    "doc_latency_p90_ms": "ms",
    "calls_per_doc": "calls",
    "critical_path_calls_per_doc": "calls",
    "peak_rss_mb": "MB",
}
# The end-to-end figures that are times; the others are counts and memory.
TIMINGS = ("setup_s", "docs_per_s", "replay_docs_per_s", "doc_latency_p50_ms", "doc_latency_p90_ms")
PER_LAYER = {
    **{f"backend.calls.{step}": "count" for step in STEPS},
    "backend.calls.total": "count",
    "backend.mock.complete_us": "us",
    "backend.mock.match_checks_per_call": "count",
    "backend.endpoint.inflight_mean": "count",
    "backend.endpoint.inflight_max": "count",
    "backend.store.hit_share": "share",
    "backend.store.time_share": "share",
    "pipeline.run_ms": "ms",
    "pipeline.self_ms_per_doc": "ms",
    "pipeline.run_batch.parallelism": "ratio",
    "parsing.parse_us_per_reply": "us",
    **{f"parsing.locate_quote.calls.{k}": "count"
       for k in ("exact", "case_insensitive", "fuzzy", "not_found")},
    "parsing.locate_quote.ms.exact": "ms",
    "parsing.locate_quote.max_ms": "ms",
    "parsing.locate_quote.stage3_share": "share",
    "prompts.build_us": "us",
    "prompts.kchars_per_doc": "kchar",
    "core.merge_us": "us",
    "data.results_mb": "MB",
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "process.cpu_ms_per_doc": "ms",
    "trace.overhead_share": "share",
}

# Units of the printed-only per-layer figures whose name does not end in one.
EXTRA_UNITS = {
    "parsing.locate_quote.fuzzy_us_per_kchar": "us/kchar",
    **{f"parsing.locate_quote.ms.{k}": "ms" for k in ("case_insensitive", "fuzzy", "not_found")},
}


class BenchmarkError(Exception):
    """The benchmark's own bookkeeping disagrees with itself."""


def run_passes(workload, budget_s: float, tracer=None) -> list:
    """Timed passes until the next one would end past the budget (at least one).

    Each pass's request logs are summarized as soon as it ends and then
    dropped, so memory holds one pass's requests at a time.
    """
    workload.tracer = tracer
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()  # each pass starts from the same heap, not the last pass's garbage
        began = time.perf_counter()
        p = workload.run_pass()
        if not p.failed:
            p.log = summarize(p.endpoints, workload.marker)
            calls = p.log.calls if p.mock_calls is None else p.mock_calls
            if sum(p.log.calls_by_step.values()) != calls:
                raise BenchmarkError(
                    f"per-step calls sum to {sum(p.log.calls_by_step.values())}, "
                    f"calls_per_doc x doc-runs is {calls}"
                )
            p.windows = (summarize(p.latency_endpoints, workload.marker).windows
                         if p.latency_endpoints else p.log.windows)
        p.endpoints = p.latency_endpoints = []
        passes.append(p)
        now = time.perf_counter()
        if now - start + (now - began) > budget_s:
            break
    workload.tracer = None
    return passes


def interval(gauge: Gauge | None, start: float, end: float) -> float:
    """An interval, scaled by the gauge (see gauge.py), or raw without one."""
    return end - start if gauge is None else gauge.scaled(start, end)


def pass_figures(p, gauge: Gauge | None) -> dict:
    """End-to-end figures of one pass."""
    seconds = sum(interval(gauge, *r) for r in p.regions)
    replay = sum(interval(gauge, *r) for r in p.replay_regions)
    latencies = [1e3 * interval(gauge, *w) for w in p.windows]
    calls = p.log.calls if p.mock_calls is None else p.mock_calls
    return {
        "docs_per_s": p.docs / seconds,
        "replay_docs_per_s": p.replay_docs / replay if replay else p.docs / seconds,
        "doc_latency_p50_ms": statistics.median(latencies),
        # The inclusive method interpolates between doc-runs and never past
        # the slowest, which matters on long_notes' six doc-runs a pass.
        "doc_latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "calls_per_doc": calls / p.docs,
        "critical_path_calls_per_doc": p.log.critical_path_per_doc,
    }


def end_to_end(passes, setup_s: float, gauge: Gauge | None) -> dict:
    """Medians over passes of the per-pass figures."""
    figures = [pass_figures(p, gauge) for p in passes]
    metrics = {"setup_s": setup_s}
    for name in figures[0]:
        metrics[name] = statistics.median(f[name] for f in figures)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: metrics[name] for name in END_TO_END}


def per_layer(untraced, traced, tracer) -> tuple[dict, dict]:
    metrics, extra = layer_metrics(
        tracer.spans, tracer.counts(), len(traced), sum(p.log.calls for p in traced)
    )
    for step in STEPS:
        metrics[f"backend.calls.{step}"] = statistics.fmean(
            p.log.calls_by_step[step] for p in traced)
    metrics["backend.calls.total"] = statistics.fmean(p.log.calls for p in traced)
    metrics["backend.endpoint.inflight_mean"] = statistics.median(
        p.log.inflight_mean for p in untraced)
    metrics["backend.endpoint.inflight_max"] = max(p.log.inflight_max for p in untraced)
    docs = sum(p.docs for p in untraced)
    metrics["prompts.kchars_per_doc"] = sum(p.log.prompt_chars for p in untraced) / docs / 1e3
    metrics["data.results_mb"] = statistics.median(p.results_bytes for p in untraced) / 1e6
    metrics["process.cpu_ms_per_doc"] = 1e3 * sum(p.cpu_seconds for p in untraced) / docs
    metrics["trace.overhead_share"] = (
        statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in untraced) - 1.0
    )
    return {name: metrics[name] for name in PER_LAYER}, extra


def print_metrics(workload_name: str, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        unit = units.get(name) or EXTRA_UNITS.get(name) or name.rpartition("_")[2]
        print(f"{workload_name:<17} {name:<40} {value:>14.6g} {unit}")


def run_workload(args, gauge: Gauge, imports: list[tuple[float, float]]) -> int:
    """Set up one workload, run its passes, print its metrics; 0 if all checks pass.

    `imports` holds the import time of selfverify, scaled and raw, per repeat.
    """
    cls = WORKLOADS[args.workload]
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        builds = []
        with gauge.running():
            for _ in range(SETUP_REPEATS):
                began = time.perf_counter()
                workload = cls(ROOT, args.seed, work_dir)
                builds.append((began, time.perf_counter()))
        setup_s = (statistics.median(scaled for scaled, _ in imports)
                   + statistics.median(interval(gauge, *b) for b in builds))
        setup_raw_s = (statistics.median(raw for _, raw in imports)
                       + statistics.median(interval(None, *b) for b in builds))

        if args.trace:
            untraced = run_passes(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
        elif workload.cpu_bound:
            with gauge.running():
                passes = run_passes(workload, args.seconds)
        else:
            passes = run_passes(workload, args.seconds)

        attempted = sum(p.docs for p in passes)
        failed = sum(p.failed for p in passes)
        for p in passes:
            for error in p.errors:
                print(f"check failed: {error}", file=sys.stderr)
        if failed:
            metrics = {}
        elif args.trace:
            metrics, extra = per_layer(untraced, traced, tracer)
            tracer.write(HERE / "_out" / f"trace-{args.workload}-seed{args.seed}.jsonl",
                         workload.marker)
            print_metrics(args.workload, metrics, PER_LAYER)
            print_metrics(args.workload, extra, {})
        else:
            metrics = end_to_end(passes, setup_s, gauge if workload.cpu_bound else None)
            print_metrics(args.workload, metrics, END_TO_END)
            # The timings unscaled, for reading against other measurements.
            unscaled = end_to_end(passes, setup_raw_s, None)
            print_metrics(args.workload, {f"{n}.unscaled": unscaled[n] for n in TIMINGS},
                          {f"{n}.unscaled": END_TO_END[n] for n in TIMINGS})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"{args.workload:<17} {'fail_rate':<40} {failed / attempted:>14.6g} share")
    print(f"{args.workload:<17} {'passes':<40} {len(passes):>14d} "
          f"({attempted} doc-runs, {len(gauge.slices)} gauge slices)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": (PER_LAYER if args.trace else END_TO_END)[n]}
                                  for n, v in metrics.items()}}))
    return 0 if failed == 0 else 1


