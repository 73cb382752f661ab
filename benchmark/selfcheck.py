"""Checks of the benchmark itself: `python3 benchmark/run.py --self-check`.

The metric names and units in BENCHMARK.json must be the ones run.py
prints. For each workload, a small untampered pass must pass its output
check, and a pass whose script gives one deliberately wrong answer must
fail it. On
every untampered pass the per-step call counts must sum to calls_per_doc x
doc-runs, and while no two calls of one doc-run overlap (a serial pipeline)
the critical path must equal calls_per_doc.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads
from endpoint import summarize
from measure import END_TO_END, PER_LAYER


def _flip_phantomycin_note0(mock) -> None:
    """Keep an invented drug in note 0 that the script normally prunes."""
    for step in mock.steps:
        if step.matcher == ["Candidate medication: phantomycin", "Note 0."]:
            step.response = "Yes. It is in the note."
            return
    raise LookupError("directional script has no phantomycin verdict for note 0")


def _exact_for_case_folded(notes):
    """Quote the case-folded passage of the first note verbatim instead."""
    note = notes[0]
    q = next(q for q in note.quotes if q.kind == "case_insensitive")
    passage = note.document.text[q.start : q.end]

    def tamper(mock) -> None:
        for step in mock.steps:
            if isinstance(step.response, str) and q.quote in step.response:
                step.response = step.response.replace(q.quote, passage)
                return
        raise LookupError("long-note script has no case-folded quote")

    return tamper


def _flip_first_verdict():
    """Reverse the first prune verdict of the planned cases."""
    done = []

    def tamper(case, step) -> str:
        if not done and "Candidate medication:" in step.matcher[0]:
            done.append(step)
            removes = step.response.lower().startswith(("no", "remove", "incorrect"))
            return "Yes." if removes else "No."
        return step.response

    return tamper


def self_check(root: Path, work_dir: Path) -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def control(workload) -> None:
        p = workload.run_pass()
        expect(p.failed == 0, f"{workload.name}: untampered pass passes its checks {p.errors[:1]}")
        log = summarize(p.endpoints, workload.marker)
        calls = log.calls if p.mock_calls is None else p.mock_calls
        expect(sum(log.calls_by_step.values()) == calls,
               f"{workload.name}: per-step calls {log.calls_by_step} sum to "
               f"calls_per_doc {calls / p.docs:g} x {p.docs} doc-runs")
        if log.serial:
            expect(abs(log.critical_path_per_doc - calls / p.docs) < 1e-9,
                   f"{workload.name}: serial pipeline, critical path "
                   f"{log.critical_path_per_doc:g} = calls_per_doc {calls / p.docs:g}")
        print(f"     {workload.name}: {log.calls} calls over {log.runs} doc-runs, "
              f"prune {log.calls_by_step['prune']}")

    def tampered(workload) -> None:
        p = workload.run_pass()
        expect(p.failed > 0, f"{workload.name}: a wrong scripted answer fails "
                             f"{p.failed} of {p.docs} doc-runs")

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == printed, f"BENCHMARK.json {key} names and units match what run.py prints")

    try:
        control(workloads.OfflineAblation(root, 0, work_dir))
        tampered(workloads.OfflineAblation(root, 0, work_dir, tamper=_flip_phantomycin_note0))

        control(workloads.LiveChain(root, 0, work_dir))
        live = workloads.LiveChain(root, 0, work_dir, tamper=_flip_phantomycin_note0)
        live.LATENCY_S = 0.0
        tampered(live)

        control(workloads.LongNotes(root, 0, work_dir, n_notes=2))
        notes = workloads.LongNotes(root, 0, work_dir, n_notes=2)
        notes.tamper = _exact_for_case_folded(notes.notes)
        tampered(notes)

        control(workloads.RecordReplay(root, 0, work_dir, cases=30))
        tampered(workloads.RecordReplay(root, 0, work_dir, cases=30, tamper=_flip_first_verdict()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0
