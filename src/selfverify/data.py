"""Datasets on disk, run persistence, and the audit report.

Datasets are JSONL, one document per line. Lines of datasets and of
results.jsonl end at "\n" alone ("\r\n" reads the same), so U+2028, U+2029
and U+0085 in a string are text:

    {"doc_id": "...", "text": "...",
     "gold": [{"value": "...", "status": "active"?}, ...],
     "split": "demo-pool" | "eval"}

A run directory holds manifest.json (run metadata, timing, effective
config) and results.jsonl (one serialized pipeline result per line).
Result records deliberately contain no timestamps or latencies: replaying
a recorded run must produce byte-identical result lines, and all timing
lives in the manifest. Their format is stated once, as one field table per
record type (span, item, trace, result): `result_to_record` writes from
the tables, and `load_run`, the one reader of run directories, reads each
line back through them into the types that wrote it.
"""

from __future__ import annotations

import html
import json
import time
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .core import (
    Document, EvidenceSpan, ExtractedItem, ExtractionSet, MatchKind, Origin, StatusLabel, TaskKind, decode_json,
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
    split: str

    def gold_values(self) -> list[str]:
        return [g.value for g in self.gold]


def _parse_line(line_no: int, raw: str) -> DatasetRecord:
    try:
        obj = decode_json(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(line_no, f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from None
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

    return DatasetRecord(doc_id=doc_id, text=text, gold=tuple(gold), split=split)


def load_dataset(path: str | Path, lenient: bool = False) -> tuple[list[DatasetRecord], list[str]]:
    """Read a JSONL dataset; returns (records, warnings).

    Strict mode raises FormatError/DuplicateDocId on the first bad line;
    lenient mode skips bad lines and reports each skip as a warning. A file
    that is not UTF-8 raises FormatError in either mode.
    """
    records: list[DatasetRecord] = []
    warnings: list[str] = []
    seen: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(None, str(exc)) from None
    for line_no, raw in enumerate(text.split("\n"), start=1):
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
    return [Document(id=r.doc_id, text=r.text, task=task) for r in records if r.split == split]


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


# The run-record schema: one table per record type, from which
# `result_to_record` writes and `load_run` checks and reads. A field is
# (JSON key, JSON types[, codec[, attribute when not the key]]). JSON types
# compare exactly (`true` is not an integer); a key may be missing only
# where they include _ABSENT. A codec is (encode, decode) of values other
# than null; decode(value, record name, key) raises ValueError naming them.
_NULL, _ABSENT, _set = type(None), type(...), object.__setattr__
_JSON_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               list: "a list", dict: "an object", _NULL: "null", _ABSENT: "absent"}


class _Schema:
    """One record type: its class, its fields, and a `check` of each value read.

    `read` makes an instance without its constructor and sets each field
    with `object.__setattr__`, as the constructor does; filling `__dict__`
    would add a dict per instance, a third more objects for the cyclic
    collector to count. A missing key (it needs a codec) leaves its field at
    the class default. `check(value)` raises ValueError where the constructor would.
    """

    def __init__(self, cls, *fields, check=None):
        self.cls, self.check, self.fields = cls, check, []
        for key, types, codec, attr, *_ in (field + (None, None) for field in fields):
            self.fields.append((key, attr or key, types, *(codec or (None, None))))

    def write(self, obj) -> dict:
        record = {}
        for key, attr, _, encode, _ in self.fields:
            value = getattr(obj, attr)
            record[key] = value if encode is None or value is None else encode(value)
        return record

    def read(self, record, name: str):
        if type(record) is not dict:
            raise ValueError(f"{name} is not a JSON object")
        obj = object.__new__(self.cls)
        for key, attr, types, _, decode in self.fields:
            value = record.get(key, ...)
            if type(value) not in types:
                raise ValueError(f"{name} needs {key!r} as {' or '.join(_JSON_NAMES[t] for t in types)}")
            if decode is None or value is None:
                _set(obj, attr, value)
            elif value is not ...:
                _set(obj, attr, decode(value, name, key))
        try:
            if self.check is not None:
                self.check(obj)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        return obj

    def codec(self, many: bool = False) -> tuple:
        """The codec of one such record, named name.key, or of a list of them, the i-th named key[i]."""
        if many:
            return (lambda objs: [self.write(obj) for obj in objs],
                    lambda value, _, key: tuple([self.read(v, f"{key}[{i}]") for i, v in enumerate(value)]))
        return self.write, lambda value, name, key: self.read(value, f"{name}.{key}")


def _parsed(parse, encode=str) -> tuple:
    """The codec of the strings that `parse` reads; it raises KeyError or ValueError on others."""
    def decode(value: str, name: str, key: str):
        try:
            return parse(value)
        except (KeyError, ValueError):
            raise ValueError(f"{name} has an unknown {key}") from None
    return encode, decode


def _enum(enum) -> tuple:
    return _parsed({member.value: member for member in enum}.__getitem__, attrgetter("value"))


def _strings(value: list, name: str, key: str) -> tuple[str, ...]:
    for v in value:
        if type(v) is not str:
            raise ValueError(f"{name} needs {key!r} as a list of strings")
    return tuple(value)


def _check_result(result: PipelineResult) -> None:
    """Make `final` a set, and rebuild `pre_prune` from its keys as `load_run` describes."""
    _set(result, "final", ExtractionSet(result.final))
    items = {item.key: item for item in result.final}
    items.update((item.key, item.evolve(pruned=False, prune_reason=None)) for item in result.pruned)
    keys = result.pre_prune
    _set(result, "pre_prune", ExtractionSet(tuple(items.get(k) or ExtractedItem.from_raw(k) for k in keys)))


_STR, _INT, _OPT_STR, _STRINGS = (str,), (int,), (str, _NULL), (list, _strings)
_SPAN = _Schema(
    EvidenceSpan, ("quote", _STR), ("start", _INT), ("end", _INT), ("match_kind", _STR, _enum(MatchKind)),
    check=EvidenceSpan.__post_init__,  # the offset rules
)
_ITEM = _Schema(
    ExtractedItem,
    ("value", _STR), ("origin", _STR, _parsed(Origin.parse)), ("status", _OPT_STR, _enum(StatusLabel)),
    ("prune_reason", _OPT_STR), ("evidence", (dict, _NULL), _SPAN.codec()), ("raw_value", _STR),
    ("pruned", (bool,)), ("icd_code", _OPT_STR), ("flags", (list,), _STRINGS),
    check=ExtractedItem.check_pruned,
)
_TRACE = _Schema(
    StepTrace, ("step", _STR), ("prompt", _STR), ("response", _STR), ("temperature", (float, int)),
    ("summary", _STR), ("warnings", (list,), _STRINGS),
)
_RESULT = _Schema(
    PipelineResult,
    ("doc_id", _STR), ("seed", _INT), ("text", _STR),
    ("final", (list,), _ITEM.codec(many=True)), ("pruned", (list,), _ITEM.codec(many=True)),
    ("task", _STR, None, "task_name"), ("megaprompt", (bool,)), ("omission_iters", _INT),
    ("pre_prune_values", (list,), (lambda items: list(items.keys()), _strings), "pre_prune"),
    ("warnings", (list,), _STRINGS), ("traces", (list, _ABSENT), _TRACE.codec(many=True)),
    check=_check_result,
)


def result_to_record(result: PipelineResult, include_traces: bool = True) -> dict:
    """Serializable form of one result. Contains no wall time or latency."""
    record = _RESULT.write(result)
    if not include_traces:
        del record["traces"]
    return record


def record_to_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def write_run(
    run_dir: str | Path, manifest: RunManifest, results: Iterable[PipelineResult], include_traces: bool = True
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
    (run_dir / "results.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    manifest.n_results = len(lines)
    (run_dir / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    return run_dir


def load_run(run_dir: str | Path) -> tuple[dict, list[PipelineResult]]:
    """Read a run directory: its manifest, and its results as the values that wrote them.

    A results line is accepted only if `result_to_record` could have
    written it: each field it writes is there with its JSON type, enums and
    `origin` name a value, spans keep `EvidenceSpan`'s offset rules and
    `final` holds distinct values. Unknown keys are ignored; `traces` may be
    absent (--no-traces). `pre_prune` is written as its keys alone and is
    rebuilt key by key: the pruned item un-pruned, else the final item,
    else `ExtractedItem.from_raw(key)`. So it is exact by key, not by item
    (on ICD tasks `final` holds codes where `pre_prune` held diagnoses).
    Raises FileNotFoundError when a file is missing, and FormatError naming
    the file (and for results the line) on bad UTF-8 or JSON, a lone
    surrogate in a string, or a bad field.
    """
    run_dir = Path(run_dir)
    path, line_no, results = run_dir / "manifest.json", None, []
    try:
        manifest = decode_json(path.read_text(encoding="utf-8"))
        if type(manifest) is not dict:
            raise ValueError("not a JSON object")
        path = run_dir / "results.jsonl"
        for line_no, raw in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
            if raw.strip():
                results.append(_RESULT.read(decode_json(raw), "result"))
    except json.JSONDecodeError as exc:
        raise FormatError(line_no, f"invalid JSON: {exc.msg}", path) from None
    except ValueError as exc:
        raise FormatError(line_no, str(exc), path) from None
    return manifest, results


def _highlighted_text(text: str, spans: list[tuple[int, int]]) -> str:
    """`text`, escaped, with each run of overlapping or touching spans in one <mark>."""
    merged: list[list[int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    parts, cursor = [], 0
    for start, end in merged:
        parts += html.escape(text[cursor:start]), f"<mark>{html.escape(text[start:end])}</mark>"
        cursor = end
    return "".join(parts) + html.escape(text[cursor:])


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


def render_report_html(manifest: dict, results: list[PipelineResult]) -> str:
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
        f"{len(results)} result(s)</p>",
    ]
    for result in results:
        out.append(f"<div class='doc'><h2>{html.escape(result.doc_id)} <small>(seed {result.seed})</small></h2>")

        # A located span is highlighted only while it still passes re-checking.
        located = [item.evidence for item in result.final if item.evidence and item.evidence.located]
        spans = [(span.start, span.end) for span in located if span.verify_against(result.text)]
        out.append(f"<div class='doc-text'>{_highlighted_text(result.text, spans)}</div>")
        if len(located) > len(spans):
            stale = len(located) - len(spans)
            out.append(f"<p class='warn'>{stale} evidence span(s) failed re-checking and are not highlighted.</p>")

        if not result.final:
            out.append("<p class='banner'>No items extracted for this document.</p>")
        else:
            out.append("<table><tr><th>value</th><th>status</th><th>origin</th><th>evidence</th></tr>")
            for item in result.final:
                ev = item.evidence
                quote = f"{html.escape(ev.quote)} <em>({ev.match_kind.value})</em>" if ev else ""
                out.append(
                    f"<tr><td>{html.escape(item.value)}</td>"
                    f"<td>{item.status.value if item.status else ''}</td>"
                    f"<td>{html.escape(str(item.origin))}</td><td>{quote}</td></tr>"
                )
            out.append("</table>")

        if result.pruned:
            out.append("<p>Pruned items:</p><ul>")
            for item in result.pruned:
                reason = html.escape(item.prune_reason or "")
                out.append(f"<li><del>{html.escape(item.value)}</del>: {reason}</li>")
            out.append("</ul>")
        out.append("</div>")
    out.append("</body></html>")
    return "\n".join(out)
