"""Datasets on disk, run persistence, and the audit report.

Datasets are JSONL, one document per line:

    {"doc_id": "...", "text": "...",
     "gold": [{"value": "...", "status": "active"?}, ...],
     "gold_spans": [[start, end] | null, ...]?,     # parallel to gold
     "split": "demo-pool" | "eval"}

A run directory holds manifest.json (run metadata, timing, effective
config) and results.jsonl (one serialized pipeline result per line).
Result records deliberately contain no timestamps or latencies: replaying
a recorded run must produce byte-identical result lines, and all timing
lives in the manifest.
"""

from __future__ import annotations

import html
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from .core import (
    Document,
    EvidenceSpan,
    ExtractedItem,
    MatchKind,
    StatusLabel,
    TaskKind,
)
from .pipeline import PipelineResult, StepTrace
from .prompts import DemoExample, render_answer

VALID_SPLITS = ("demo-pool", "eval")


class FormatError(ValueError):
    """A dataset line failed validation."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateDocId(FormatError):
    def __init__(self, line: int, doc_id: str):
        super().__init__(line, f"duplicate doc_id {doc_id!r}")
        self.doc_id = doc_id


class RunExists(Exception):
    """Refused to overwrite an existing run directory."""


@dataclass(frozen=True)
class GoldItem:
    value: str
    status: StatusLabel | None = None


@dataclass(frozen=True)
class DatasetRecord:
    doc_id: str
    text: str
    gold: tuple[GoldItem, ...]
    gold_spans: tuple[tuple[int, int] | None, ...]
    split: str

    def gold_values(self) -> list[str]:
        return [g.value for g in self.gold]


def _parse_line(line_no: int, raw: str) -> DatasetRecord:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(line_no, f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise FormatError(line_no, "line is not a JSON object")

    doc_id = obj.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise FormatError(line_no, "doc_id must be a non-empty string")
    text = obj.get("text")
    if not isinstance(text, str) or not text:
        raise FormatError(line_no, "text must be a non-empty string")
    split = obj.get("split", "eval")
    if split not in VALID_SPLITS:
        raise FormatError(line_no, f"split must be one of {VALID_SPLITS}, got {split!r}")

    raw_gold = obj.get("gold")
    if not isinstance(raw_gold, list):
        raise FormatError(line_no, "gold must be a list")
    gold: list[GoldItem] = []
    for i, g in enumerate(raw_gold):
        if not isinstance(g, dict) or not isinstance(g.get("value"), str) or not g["value"]:
            raise FormatError(line_no, f"gold[{i}] must be an object with a non-empty 'value'")
        status = None
        if g.get("status") is not None:
            try:
                status = StatusLabel.from_string(str(g["status"]))
            except ValueError:
                raise FormatError(line_no, f"gold[{i}] has unknown status {g['status']!r}") from None
        gold.append(GoldItem(value=g["value"], status=status))

    raw_spans = obj.get("gold_spans")
    spans: list[tuple[int, int] | None] = [None] * len(gold)
    if raw_spans is not None:
        if not isinstance(raw_spans, list) or len(raw_spans) != len(gold):
            raise FormatError(line_no, "gold_spans must be a list parallel to gold")
        for i, s in enumerate(raw_spans):
            if s is None:
                continue
            ok = (
                isinstance(s, list)
                and len(s) == 2
                and all(isinstance(x, int) for x in s)
                and 0 <= s[0] <= s[1] <= len(text)
            )
            if not ok:
                raise FormatError(
                    line_no, f"gold_spans[{i}] must be [start, end] within the text"
                )
            spans[i] = (s[0], s[1])

    return DatasetRecord(
        doc_id=doc_id, text=text, gold=tuple(gold), gold_spans=tuple(spans), split=split
    )


def load_dataset(path: str | Path, lenient: bool = False) -> tuple[list[DatasetRecord], list[str]]:
    """Read a JSONL dataset; returns (records, warnings).

    Strict mode raises FormatError/DuplicateDocId on the first bad line;
    lenient mode skips bad lines and reports each skip as a warning.
    """
    records: list[DatasetRecord] = []
    warnings: list[str] = []
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = _parse_line(line_no, raw)
            if record.doc_id in seen:
                raise DuplicateDocId(line_no, record.doc_id)
        except FormatError as exc:
            if lenient:
                warnings.append(str(exc))
                continue
            raise
        seen[record.doc_id] = line_no
        records.append(record)
    return records, warnings


def records_to_documents(
    records: Iterable[DatasetRecord], task: TaskKind, split: str = "eval"
) -> list[Document]:
    return [
        Document(id=r.doc_id, text=r.text, task=task)
        for r in records
        if r.split == split
    ]


def demo_pool_from_records(records: Iterable[DatasetRecord], task: TaskKind) -> list[DemoExample]:
    pool: list[DemoExample] = []
    for r in records:
        if r.split != "demo-pool":
            continue
        values = [(g.value, g.status) for g in r.gold]
        pool.append(DemoExample(text=r.text, answer=render_answer(task, values)))
    return pool


@dataclass
class RunManifest:
    """Run-level metadata; the only place timing information lives."""

    run_id: str
    task: str
    backend: str
    model_id: str
    created_at: str
    seeds: list[int]
    workers: int
    config: dict
    catalog_version: str
    dataset: str | None = None
    n_documents: int = 0
    n_results: int = 0
    wall_seconds: float = 0.0
    megaprompt: bool = False
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, ensure_ascii=False)


def _span_to_dict(span: EvidenceSpan | None) -> dict | None:
    if span is None:
        return None
    return {
        "quote": span.quote,
        "start": span.start,
        "end": span.end,
        "match_kind": span.match_kind.value,
    }


def _item_to_dict(item: ExtractedItem) -> dict:
    return {
        "raw_value": item.raw_value,
        "value": item.value,
        "status": item.status.value if item.status else None,
        "evidence": _span_to_dict(item.evidence),
        "origin": str(item.origin),
        "pruned": item.pruned,
        "prune_reason": item.prune_reason,
        "icd_code": item.icd_code,
        "flags": list(item.flags),
    }


def _trace_to_dict(trace: StepTrace) -> dict:
    return {
        "step": trace.step,
        "prompt": trace.prompt,
        "response": trace.response,
        "temperature": trace.temperature,
        "summary": trace.summary,
        "warnings": list(trace.warnings),
    }


def result_to_record(result: PipelineResult, include_traces: bool = True) -> dict:
    """Serializable form of one result. Contains no wall time or latency."""
    record = {
        "doc_id": result.doc_id,
        "text": result.text,
        "task": result.task_name,
        "seed": result.seed,
        "megaprompt": result.megaprompt,
        "omission_iters": result.omission_iters,
        "final": [_item_to_dict(i) for i in result.final],
        "pruned": [_item_to_dict(i) for i in result.pruned],
        "pre_prune_values": list(result.pre_prune.keys()),
        "warnings": list(result.warnings),
    }
    if include_traces:
        record["traces"] = [_trace_to_dict(t) for t in result.traces]
    return record


def record_to_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def write_run(
    run_dir: str | Path,
    manifest: RunManifest,
    results: Iterable[PipelineResult],
    include_traces: bool = True,
) -> Path:
    """Create run_dir with manifest.json and results.jsonl.

    Raises RunExists when the directory is already there; runs are never
    silently overwritten.
    """
    run_dir = Path(run_dir)
    if run_dir.exists():
        raise RunExists(f"run directory already exists: {run_dir}")
    run_dir.mkdir(parents=True)
    lines = []
    count = 0
    for result in results:
        lines.append(record_to_line(result_to_record(result, include_traces)))
        count += 1
    (run_dir / "results.jsonl").write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
    manifest.n_results = count
    (run_dir / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    return run_dir


def load_run(run_dir: str | Path) -> tuple[dict, list[dict]]:
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    records = [
        json.loads(line)
        for line in (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    return manifest, records


def _usable_span(text: str, item: dict) -> tuple[int, int] | None:
    """Re-check a stored span against the text before highlighting it.

    Bounds are validated for every kind; exact and case-insensitive spans
    must still reproduce their quote. A span that fails re-checking is not
    highlighted.
    """
    ev = item.get("evidence")
    if not ev or ev.get("match_kind") == MatchKind.NOT_FOUND.value:
        return None
    start, end = ev.get("start"), ev.get("end")
    if not isinstance(start, int) or not isinstance(end, int):
        return None
    if not (0 <= start < end <= len(text)):
        return None
    kind = ev.get("match_kind")
    if kind in (MatchKind.EXACT.value, MatchKind.CASE_INSENSITIVE.value):
        span = EvidenceSpan(ev.get("quote", ""), start, end, MatchKind(kind))
        if not span.verify_against(text):
            return None
    return (start, end)


def _merge_intervals(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _highlighted_text(text: str, spans: list[tuple[int, int]]) -> str:
    parts: list[str] = []
    cursor = 0
    for start, end in _merge_intervals(spans):
        parts.append(html.escape(text[cursor:start]))
        parts.append(f"<mark>{html.escape(text[start:end])}</mark>")
        cursor = end
    parts.append(html.escape(text[cursor:]))
    return "".join(parts)


_REPORT_CSS = """
body { font-family: Georgia, serif; max-width: 60em; margin: 2em auto; color: #222; }
h1 { border-bottom: 2px solid #444; }
.doc { border: 1px solid #ccc; border-radius: 6px; padding: 1em; margin: 1.5em 0; }
.doc-text { white-space: pre-wrap; background: #fafafa; padding: 0.8em; border-radius: 4px; }
mark { background: #ffe08a; }
del { color: #a33; }
.banner { background: #eef; padding: 0.4em 0.8em; border-left: 4px solid #88a; }
.warn { color: #a60; font-size: 0.9em; }
table { border-collapse: collapse; margin-top: 0.6em; }
td, th { border: 1px solid #ddd; padding: 0.25em 0.6em; font-size: 0.95em; }
.meta { color: #666; font-size: 0.9em; }
"""


def render_report_html(manifest: dict, records: list[dict]) -> str:
    """Self-contained HTML audit report for a run."""
    out: list[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Extraction report: {html.escape(str(manifest.get('run_id', '')))}</title>",
        f"<style>{_REPORT_CSS}</style></head><body>",
        f"<h1>Extraction report: {html.escape(str(manifest.get('run_id', '')))}</h1>",
        "<p class='meta'>"
        f"task {html.escape(str(manifest.get('task', '?')))} · "
        f"backend {html.escape(str(manifest.get('backend', '?')))} · "
        f"model {html.escape(str(manifest.get('model_id', '?')))} · "
        f"{len(records)} result(s)</p>",
    ]
    for record in records:
        text = record.get("text", "")
        doc_id = html.escape(str(record.get("doc_id", "?")))
        seed = record.get("seed", 0)
        out.append(f"<div class='doc'><h2>{doc_id} <small>(seed {seed})</small></h2>")

        spans: list[tuple[int, int]] = []
        stale = 0
        for item in record.get("final", []):
            span = _usable_span(text, item)
            if span is not None:
                spans.append(span)
            elif item.get("evidence") and item["evidence"].get("match_kind") != "not_found":
                stale += 1
        out.append(f"<div class='doc-text'>{_highlighted_text(text, spans)}</div>")
        if stale:
            out.append(
                f"<p class='warn'>{stale} evidence span(s) failed re-checking and are not highlighted.</p>"
            )

        final = record.get("final", [])
        if not final:
            out.append("<p class='banner'>No items extracted for this document.</p>")
        else:
            out.append("<table><tr><th>value</th><th>status</th><th>origin</th><th>evidence</th></tr>")
            for item in final:
                ev = item.get("evidence") or {}
                quote = html.escape(ev.get("quote", "") or "")
                kind = html.escape(ev.get("match_kind", "") or "")
                status = html.escape(item.get("status") or "")
                out.append(
                    f"<tr><td>{html.escape(item['value'])}</td><td>{status}</td>"
                    f"<td>{html.escape(item.get('origin', ''))}</td>"
                    f"<td>{quote}{' <em>(' + kind + ')</em>' if kind else ''}</td></tr>"
                )
            out.append("</table>")

        pruned = record.get("pruned", [])
        if pruned:
            out.append("<p>Pruned items:</p><ul>")
            for item in pruned:
                reason = html.escape(item.get("prune_reason") or "")
                out.append(f"<li><del>{html.escape(item['value'])}</del>: {reason}</li>")
            out.append("</ul>")
        out.append("</div>")
    out.append("</body></html>")
    return "\n".join(out)


def emit_report(run_dir: str | Path, output: str | Path | None = None) -> Path:
    run_dir = Path(run_dir)
    manifest, records = load_run(run_dir)
    path = Path(output) if output else run_dir / "report.html"
    path.write_text(render_report_html(manifest, records), encoding="utf-8")
    return path


def make_manifest(
    run_id: str,
    task: TaskKind,
    backend: str,
    config_description: dict,
    seeds: list[int],
    workers: int,
    catalog_version: str,
    dataset: str | None = None,
    n_documents: int = 0,
    megaprompt: bool = False,
) -> RunManifest:
    return RunManifest(
        run_id=run_id,
        task=task.name,
        backend=backend,
        model_id=str(config_description.get("model_id", "")),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        seeds=list(seeds),
        workers=workers,
        config=config_description,
        catalog_version=catalog_version,
        dataset=dataset,
        n_documents=n_documents,
        megaprompt=megaprompt,
    )
