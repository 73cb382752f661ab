"""Traced run: spans around the public functions of each selfverify module.

Each function is wrapped, from outside the package, under the module
attribute where its caller looks it up (`selfverify.pipeline.locate_quote`,
not `selfverify.parsing.locate_quote`). A span records name, parent span,
thread, wall start and end, the CPU time of its thread, and what it served.
Spans stay in memory while the passes run and are written out at the end.
`ScriptStep.matches`, hot and tiny, is counted instead of spanned.

Per-call times are thread CPU time, so a call does not absorb the time its
thread waited for the interpreter lock while the other client ran. Spans
that start on a `run_batch` worker thread are children of the `run_batch`
span that started them.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from selfverify import backend, cli, data, evaluation, pipeline, synthetic

from endpoint import Endpoint

LAYERS = ("backend", "pipeline", "parsing", "prompts", "core", "data", "evaluation", "cli", "synthetic")
_PARSERS = ("parse_bulleted_list", "parse_status_pairs", "parse_evidence", "parse_verdict", "parse_icd_codes")
_BUILDERS = (
    "build_original_prompt", "build_omission_prompt", "build_evidence_prompt",
    "build_prune_prompt", "build_icd_map_prompt", "build_megaprompt", "sample_demonstrations",
)
_FAN_OUT = "pipeline.run_batch"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    cpu: float
    info: object = None

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        return counter

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._restore.append((owner, attr, original))

    def span(self, owner, attr: str, name: str, info=None) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                cpu, start = time.thread_time(), time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end, cpu = time.perf_counter(), time.thread_time() - cpu
                    stack.pop()
                tracer.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, cpu,
                                         info(args, result) if info else None))
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer._counter()[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        span = self.span
        request = lambda args, result: args[1]  # noqa: E731
        span(backend.MockBackend, "complete", "backend.mock.complete", request)
        self.count(backend.ScriptStep, "matches", "backend.mock.match_check")
        span(backend.CachingBackend, "complete", "backend.caching.complete")
        span(backend.ReplayBackend, "complete", "backend.replay.complete")
        span(backend, "cache_key", "backend.cache_key")
        span(backend.ResponseStore, "get", "backend.store.get", lambda args, result: result is not None)
        span(backend.ResponseStore, "put", "backend.store.put")
        span(cli, "load_script", "backend.load_script")
        span(Endpoint, "complete", "backend.endpoint.complete", request)
        document = lambda args, result: args[1].id  # noqa: E731
        span(pipeline.ExtractionPipeline, "run", "pipeline.run", document)
        span(pipeline.ExtractionPipeline, "run_megaprompt", "pipeline.run", document)
        span(pipeline, "run_batch", _FAN_OUT)
        span(cli, "run_batch", _FAN_OUT)
        span(pipeline, "locate_quote", "parsing.locate_quote",
             lambda args, result: (len(args[0]), result.match_kind.value))
        for fn in _PARSERS:
            span(pipeline, fn, "parsing.parse")
        for fn in _BUILDERS:
            span(pipeline, fn, "prompts.build")
        span(pipeline, "merge", "core.merge")
        span(data, "result_to_record", "data.result_to_record")
        span(cli, "write_run", "data.write_run")
        span(cli, "load_run", "data.load_run")
        span(cli, "load_dataset", "data.load_dataset")
        span(cli, "evaluate_doc", "evaluation.evaluate_doc")
        span(evaluation, "evaluate_doc", "evaluation.evaluate_doc")
        span(cli, "main", "cli.main")
        span(synthetic, "directional_backend", "synthetic.directional_backend")
        span(synthetic, "directional_corpus", "synthetic.directional_corpus")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def counts(self) -> Counter:
        total = Counter()
        for counter in self._counters:
            total.update(counter)
        return total

    def write(self, path: Path, marker) -> None:
        """Write the spans as JSON lines, each with the doc it served.

        Locator spans also carry the text length and the match outcome.
        """
        adopt_orphans(self.spans)
        by_id = {s.id: s for s in self.spans}
        doc_of: dict[int, str | None] = {}

        def doc(sid):
            """The Document id of the enclosing pipeline run, else the prompt's marker."""
            if sid not in by_id:
                return None
            if sid not in doc_of:
                s = by_id[sid]
                found = s.info if s.name == "pipeline.run" else doc(s.parent)
                if found is None and isinstance(s.info, backend.LlmRequest):
                    match = marker.search(s.info.text)
                    found = match.group(0) if match else None
                doc_of[sid] = found
            return doc_of[sid]

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                line = {"id": s.id, "parent": s.parent, "name": s.name, "thread": s.thread,
                        "start": s.start, "end": s.end, "cpu": s.cpu, "doc": doc(s.id)}
                if s.name == "parsing.locate_quote":
                    line["text_chars"], line["outcome"] = s.info
                fh.write(json.dumps(line) + "\n")


def adopt_orphans(spans: list[Span]) -> None:
    """Give each parentless span on a worker thread its fan-out span as parent."""
    fan_outs = [s for s in spans if s.name == _FAN_OUT]
    for s in spans:
        if s.parent is None and s.name != _FAN_OUT:
            enclosing = [f for f in fan_outs
                         if f.thread != s.thread and f.start <= s.start and s.end <= f.end]
            if enclosing:
                s.parent = max(enclosing, key=lambda f: f.start).id


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, float], dict[int, float]]:
    """Each span's (wall, CPU) time minus the part its child spans cover.

    Wall time subtracts the union of the children's intervals; CPU time
    subtracts the CPU of children on the same thread.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    wall, cpu = {}, {}
    for s in spans:
        kids = children[s.id]
        wall[s.id] = s.wall - _union((k.start, k.end) for k in kids)
        cpu[s.id] = s.cpu - sum(k.cpu for k in kids if k.thread == s.thread)
    return wall, cpu


def layer_metrics(spans: list[Span], counts: Counter, passes: int, replies: int):
    """Per-layer figures from the spans of the traced passes.

    Returns (metrics, extra): `metrics` exist on every workload; `extra` are
    per-call figures of layers only some workloads reach. Counts are per
    pass; per-call times are means of thread CPU time.
    """
    adopt_orphans(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def cpu_mean(name, scale):
        found = by_name[name]
        return scale * statistics.fmean(s.cpu for s in found) if found else None

    self_wall, self_cpu = self_times(spans)
    cpu_by_layer = Counter()
    for s in spans:
        cpu_by_layer[s.name.split(".")[0]] += self_cpu[s.id]
    cpu_total = sum(cpu_by_layer.values())

    locate = by_name["parsing.locate_quote"]
    kinds = ("exact", "case_insensitive", "fuzzy", "not_found")
    locate_ms = {k: [1e3 * s.cpu for s in locate if s.info[1] == k] for k in kinds}
    stage3 = [s for s in locate if s.info[1] in ("fuzzy", "not_found")]
    stage3_cpu = sum(s.cpu for s in stage3)

    by_id = {s.id: s for s in spans}
    # Store lookups of the record phase are the ones a CachingBackend makes.
    record_gets = [s.info for s in by_name["backend.store.get"]
                   if s.parent in by_id and by_id[s.parent].name == "backend.caching.complete"]
    store_cpu = sum(s.cpu for n in ("backend.cache_key", "backend.store.get", "backend.store.put")
                    for s in by_name[n])

    runs = by_name["pipeline.run"]
    batch_wall = sum(s.wall for s in by_name[_FAN_OUT])
    batched_run_wall = sum(s.wall for s in runs if s.parent in by_id and by_id[s.parent].name == _FAN_OUT)
    mock_calls = len(by_name["backend.mock.complete"])

    metrics = {
        "backend.mock.complete_us": cpu_mean("backend.mock.complete", 1e6),
        "backend.mock.match_checks_per_call": counts["backend.mock.match_check"] / max(mock_calls, 1),
        "backend.store.hit_share": sum(record_gets) / len(record_gets) if record_gets else 0.0,
        "backend.store.time_share": store_cpu / cpu_total,
        "pipeline.run_ms": 1e3 * statistics.fmean(s.wall for s in runs),
        "pipeline.self_ms_per_doc": 1e3 * statistics.fmean(self_wall[s.id] for s in runs),
        "pipeline.run_batch.parallelism": batched_run_wall / batch_wall if batch_wall else 0.0,
        "parsing.parse_us_per_reply": 1e6 * sum(s.cpu for s in by_name["parsing.parse"]) / max(replies, 1),
        **{f"parsing.locate_quote.calls.{k}": len(v) / passes for k, v in locate_ms.items()},
        "parsing.locate_quote.ms.exact": statistics.fmean(locate_ms["exact"]) if locate_ms["exact"] else 0.0,
        "parsing.locate_quote.max_ms": max((1e3 * s.cpu for s in locate), default=0.0),
        "parsing.locate_quote.stage3_share": stage3_cpu / cpu_total,
        "prompts.build_us": cpu_mean("prompts.build", 1e6),
        "core.merge_us": cpu_mean("core.merge", 1e6),
        **{f"{layer}.self_share": cpu_by_layer[layer] / cpu_total for layer in LAYERS},
    }
    cli_runs = by_name["cli.main"]
    extra = {
        "backend.cache_key_us": cpu_mean("backend.cache_key", 1e6),
        "backend.store.get_us": cpu_mean("backend.store.get", 1e6),
        "backend.store.put_us": cpu_mean("backend.store.put", 1e6),
        **{f"parsing.locate_quote.ms.{k}": statistics.fmean(v) for k, v in locate_ms.items()
           if v and k != "exact"},
        "parsing.locate_quote.fuzzy_us_per_kchar": (
            1e6 * stage3_cpu / (sum(s.info[0] for s in stage3) / 1e3) if stage3 else None),
        "data.result_to_record_us": cpu_mean("data.result_to_record", 1e6),
        "data.write_run_ms": cpu_mean("data.write_run", 1e3),
        "data.load_run_ms": cpu_mean("data.load_run", 1e3),
        "data.load_dataset_ms": cpu_mean("data.load_dataset", 1e3),
        "evaluation.evaluate_doc_us": cpu_mean("evaluation.evaluate_doc", 1e6),
        "cli.self_ms": 1e3 * statistics.fmean(self_cpu[s.id] for s in cli_runs) if cli_runs else None,
        "synthetic.directional_backend_ms": (
            1e3 * sum(s.cpu for s in by_name["synthetic.directional_backend"]) / passes or None),
    }
    return metrics, {k: v for k, v in extra.items() if v is not None}
