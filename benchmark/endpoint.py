"""Stand-in model endpoint and the analysis of its request log.

Every workload sends its model calls through an `Endpoint`. Offline
workloads give it no latency; `live_chain` gives it a fixed 20 ms sleep per
call, standing in for a live server. The request log is the one source for
per-doc latency, critical-path length, in-flight requests and the per-step
call counts.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass

from selfverify.backend import Backend, LlmRequest, LlmResponse

# Step names, classified by a phrase of the prompt template that sends them.
# Megaprompt comes first because it embeds the original prompt and mentions
# "exact quote" in its postscript.
STEPS = ("original", "omission", "evidence", "prune", "icd_map", "megaprompt")
_STEP_PHRASES = (
    ("megaprompt", "silently draft your list"),
    ("omission", "missing from the list above"),
    ("evidence", "give one exact quote from the"),
    ("prune", "You are verifying one extracted"),
    ("icd_map", "Convert each diagnosis"),
    ("original", "List every"),
)
# The steps that open a doc-run.
_FIRST_STEPS = ("original", "megaprompt")


def classify_step(prompt: str) -> str:
    for step, phrase in _STEP_PHRASES:
        if phrase in prompt:
            return step
    raise ValueError(f"prompt matches no known step template: {prompt[:80]!r}")


class Endpoint(Backend):
    """Wraps a scripted backend: sleeps `latency_s`, then answers, and logs.

    The log holds (request, thread id, start, end) per call, in completion
    order. Appending to a list is atomic, so concurrent clients need no lock.
    """

    def __init__(self, inner: Backend, latency_s: float = 0.0):
        self.inner = inner
        self.latency_s = latency_s
        self.log: list[tuple[LlmRequest, int, float, float]] = []

    def complete(self, request: LlmRequest) -> LlmResponse:
        start = time.perf_counter()
        if self.latency_s:
            time.sleep(self.latency_s)
        response = self.inner.complete(request)
        self.log.append((request, threading.get_ident(), start, time.perf_counter()))
        return response


@dataclass
class Call:
    step: str
    start: float
    end: float


def doc_runs(log, marker: re.Pattern) -> list[list[Call]]:
    """Group one endpoint's log into doc-runs.

    A call belongs to the doc named by the marker in its prompt. A prompt
    without note text (the ICD code-mapping step) belongs to the doc its
    thread last served. A doc-run opens at each original or megaprompt call,
    so one doc run under several seeds on one endpoint splits correctly.
    """
    runs: list[list[Call]] = []
    open_run: dict[str, list[Call]] = {}
    doc_of_thread: dict[int, str] = {}
    for request, thread, start, end in sorted(log, key=lambda entry: entry[2]):
        text = request.text
        step = classify_step(text)
        found = marker.search(text)
        if found:
            doc = found.group(0)
        elif thread in doc_of_thread:
            doc = doc_of_thread[thread]
        else:
            raise ValueError(f"cannot tell which doc a {step} call belongs to")
        doc_of_thread[thread] = doc
        if step in _FIRST_STEPS or doc not in open_run:
            open_run[doc] = []
            runs.append(open_run[doc])
        open_run[doc].append(Call(step, start, end))
    return runs


def critical_path(calls: list[Call]) -> int:
    """Longest chain of calls in which each starts after the previous ended."""
    count = 0
    last_end = float("-inf")
    for call in sorted(calls, key=lambda c: c.end):
        if call.start >= last_end:
            count += 1
            last_end = call.end
    return count


def overlaps(calls: list[Call]) -> bool:
    ordered = sorted(calls, key=lambda c: c.start)
    return any(b.start < a.end for a, b in zip(ordered, ordered[1:]))


def inflight(logs) -> tuple[float, int]:
    """Time-averaged and peak number of requests in flight over the logs."""
    events = []
    busy = 0.0
    for log in logs:
        for _, _, start, end in log:
            events.append((start, 1))
            events.append((end, -1))
            busy += end - start
    if not events:
        return 0.0, 0
    events.sort()
    peak = level = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    span = events[-1][0] - events[0][0]
    return (busy / span if span > 0 else 0.0), peak


@dataclass
class LogSummary:
    calls: int
    calls_by_step: dict[str, int]
    runs: int
    windows: list[tuple[float, float]]  # per doc-run, first request to last reply
    critical_path_per_doc: float
    serial: bool
    prompt_chars: int
    inflight_mean: float
    inflight_max: int


def summarize(endpoints: list[Endpoint], marker: re.Pattern) -> LogSummary:
    runs = [run for ep in endpoints for run in doc_runs(ep.log, marker)]
    if not runs:
        raise ValueError("the request log is empty: no model call reached the endpoint")
    by_step = dict.fromkeys(STEPS, 0)
    for run in runs:
        for call in run:
            by_step[call.step] += 1
    windows = [(min(c.start for c in run), max(c.end for c in run)) for run in runs]
    mean_inflight, peak = inflight([ep.log for ep in endpoints])
    return LogSummary(
        calls=sum(len(ep.log) for ep in endpoints),
        calls_by_step=by_step,
        runs=len(runs),
        windows=windows,
        critical_path_per_doc=sum(critical_path(run) for run in runs) / len(runs),
        serial=not any(overlaps(run) for run in runs),
        prompt_chars=sum(len(req.text) for ep in endpoints for req, _, _, _ in ep.log),
        inflight_mean=mean_inflight,
        inflight_max=peak,
    )
