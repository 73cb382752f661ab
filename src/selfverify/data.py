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
lives in the manifest. `load_run` is the one reader of run directories.
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
    """A dataset line, a run's results line or its manifest failed validation.

    The message names the file when `path` is given and the 1-based line
    when `line` is; a whole-file fault has no line.
    """

    def __init__(self, line: int | None, reason: str, path: str | Path | None = None):
        where = (f"{path}: " if path else "") + (f"line {line}: " if line is not None else "")
        super().__init__(where + reason)
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
                and all(type(x) is int for x in s)
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
    seeds: list[int]
    workers: int
    config: dict
    catalog_version: str
    created_at: str = field(default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    dataset: str | None = None
    n_documents: int = 0
    n_results: int = 0
    wall_seconds: float = 0.0
    megaprompt: bool = False

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
    lines = [record_to_line(result_to_record(result, include_traces)) for result in results]
    (run_dir / "results.jsonl").write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
    manifest.n_results = len(lines)
    (run_dir / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    return run_dir


# The results-line fields that `evaluate` and the report read, with the
# JSON types each may hold, compared exactly: `true` is not an integer and
# a missing key fails. Traces and keys not listed are not checked.
_NULL = type(None)
_RESULT_FIELDS = {"doc_id": (str,), "seed": (int,), "text": (str,), "final": (list,), "pruned": (list,)}
_ITEM_FIELDS = {"value": (str,), "origin": (str,), "status": (str, _NULL),
                "prune_reason": (str, _NULL), "evidence": (dict, _NULL)}
_SPAN_FIELDS = {"quote": (str,), "start": (int,), "end": (int,), "match_kind": (str,)}
_MATCH_KINDS = frozenset(kind.value for kind in MatchKind)
_JSON_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object", _NULL: "null"}


def _check_fields(obj, fields: dict, name: str) -> None:
    """Raise ValueError unless obj is a dict whose `fields` hold their listed types."""
    if type(obj) is not dict:
        raise ValueError(f"{name} is not a JSON object")
    for key, types in fields.items():
        if type(obj.get(key, ...)) not in types:
            raise ValueError(f"{name} needs {key!r} as {' or '.join(_JSON_NAMES[t] for t in types)}")


def _check_result(record) -> None:
    _check_fields(record, _RESULT_FIELDS, "result")
    for key in ("final", "pruned"):
        for i, item in enumerate(record[key]):
            _check_fields(item, _ITEM_FIELDS, f"{key}[{i}]")
            if item["evidence"] is not None:
                _check_fields(item["evidence"], _SPAN_FIELDS, f"{key}[{i}].evidence")
                if item["evidence"]["match_kind"] not in _MATCH_KINDS:
                    raise ValueError(f"{key}[{i}].evidence has an unknown match_kind")


def _decode(raw: str):
    """json.loads, refusing a string that holds a lone surrogate.

    Such a string (from an unpaired \\ud800-\\udfff escape) cannot be
    written as UTF-8, so a report would fail on it. Only an escape can put
    one in a decoded string, and runs are written without escapes for
    non-ASCII text, so only text holding a \\u escape pays for the check.
    """
    obj = json.loads(raw)
    if "\\u" in raw:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a string holds a lone surrogate, which UTF-8 cannot encode") from None
    return obj


def load_run(run_dir: str | Path) -> tuple[dict, list[dict]]:
    """Read a run directory's manifest and result records, checked.

    Every results-line field that `evaluate` and the report read is
    checked once here, so they can index it directly. Raises
    FileNotFoundError when a file is missing, and FormatError naming the
    file (and for results the line) on bad UTF-8 or JSON, a lone
    surrogate in a string, or a bad field.
    """
    run_dir = Path(run_dir)
    path, line_no, records = run_dir / "manifest.json", None, []
    try:
        manifest = _decode(path.read_text(encoding="utf-8"))
        if type(manifest) is not dict:
            raise ValueError("not a JSON object")
        path = run_dir / "results.jsonl"
        for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if raw.strip():
                records.append(_decode(raw))
                _check_result(records[-1])
    except json.JSONDecodeError as exc:
        raise FormatError(line_no, f"invalid JSON: {exc.msg}", path) from None
    except ValueError as exc:
        raise FormatError(line_no, str(exc), path) from None
    return manifest, records


def _usable_span(text: str, item: dict) -> tuple[int, int] | None:
    """Re-check a stored span against the text before highlighting it.

    Bounds are validated for every kind; exact and case-insensitive spans
    must still reproduce their quote. A span that fails re-checking is not
    highlighted.
    """
    ev = item["evidence"]
    if ev is None or ev["match_kind"] == MatchKind.NOT_FOUND.value:
        return None
    start, end = ev["start"], ev["end"]
    if not (0 <= start < end <= len(text)):
        return None
    span = EvidenceSpan(ev["quote"], start, end, MatchKind(ev["match_kind"]))
    return (start, end) if span.verify_against(text) else None


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
        text = record["text"]
        out.append(
            f"<div class='doc'><h2>{html.escape(record['doc_id'])} "
            f"<small>(seed {record['seed']})</small></h2>"
        )

        final = record["final"]
        spans = [span for span in (_usable_span(text, item) for item in final) if span]
        evidence = [item["evidence"] for item in final if item["evidence"]]
        stale = sum(ev["match_kind"] != MatchKind.NOT_FOUND.value for ev in evidence) - len(spans)
        out.append(f"<div class='doc-text'>{_highlighted_text(text, spans)}</div>")
        if stale:
            out.append(
                f"<p class='warn'>{stale} evidence span(s) failed re-checking and are not highlighted.</p>"
            )

        if not final:
            out.append("<p class='banner'>No items extracted for this document.</p>")
        else:
            out.append("<table><tr><th>value</th><th>status</th><th>origin</th><th>evidence</th></tr>")
            for item in final:
                ev = item["evidence"]
                quote = f"{html.escape(ev['quote'])} <em>({ev['match_kind']})</em>" if ev else ""
                out.append(
                    f"<tr><td>{html.escape(item['value'])}</td>"
                    f"<td>{html.escape(item['status'] or '')}</td>"
                    f"<td>{html.escape(item['origin'])}</td><td>{quote}</td></tr>"
                )
            out.append("</table>")

        if record["pruned"]:
            out.append("<p>Pruned items:</p><ul>")
            for item in record["pruned"]:
                reason = html.escape(item["prune_reason"] or "")
                out.append(f"<li><del>{html.escape(item['value'])}</del>: {reason}</li>")
            out.append("</ul>")
        out.append("</div>")
    out.append("</body></html>")
    return "\n".join(out)
