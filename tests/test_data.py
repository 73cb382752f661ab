"""Tests for dataset loading, run persistence, and the audit report."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from selfverify.core import (
    EvidenceSpan,
    ExtractedItem,
    ExtractionSet,
    MatchKind,
    Origin,
    StatusLabel,
    icd_task,
    medication_status_task,
)
from selfverify.data import (
    DatasetRecord,
    DuplicateDocId,
    FormatError,
    GoldItem,
    RunExists,
    RunManifest,
    demo_pool_from_records,
    load_dataset,
    load_run,
    record_to_line,
    records_to_documents,
    render_report_html,
    result_to_record,
    write_run,
)
from selfverify.pipeline import PipelineResult, StepTrace


def write_jsonl(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


GOOD_LINES = [
    json.dumps(
        {
            "doc_id": "d1",
            "text": "Patient takes aspirin daily.",
            "gold": [{"value": "aspirin", "status": "active"}],
            "gold_spans": [[8, 21]],
            "split": "eval",
        }
    ),
    json.dumps(
        {
            "doc_id": "d2",
            "text": "No meds today.",
            "gold": [],
            "split": "demo-pool",
        }
    ),
]


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        records, warnings = load_dataset(write_jsonl(tmp_path, GOOD_LINES))
        assert warnings == []
        assert [r.doc_id for r in records] == ["d1", "d2"]
        assert records[0].gold == (GoldItem("aspirin", StatusLabel.ACTIVE),)
        assert records[0].gold_spans == ((8, 21),)
        assert records[1].gold_spans == ()
        assert records[1].split == "demo-pool"
        assert records[0].gold_values() == ["aspirin"]

    def test_blank_lines_skipped(self, tmp_path):
        records, _ = load_dataset(write_jsonl(tmp_path, [GOOD_LINES[0], "", "   "]))
        assert len(records) == 1

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("{bad json", "invalid JSON"),
            ('"just a string"', "not a JSON object"),
            ('{"text": "x", "gold": []}', "doc_id"),
            ('{"doc_id": "d", "gold": []}', "text"),
            ('{"doc_id": "d", "text": "", "gold": []}', "text"),
            ('{"doc_id": "d", "text": "x", "gold": [], "split": "test"}', "split"),
            ('{"doc_id": "d", "text": "x", "gold": {}}', "gold must be a list"),
            ('{"doc_id": "d", "text": "x", "gold": [{"status": "active"}]}', "value"),
            (
                '{"doc_id": "d", "text": "x", "gold": [{"value": "a", "status": "sometimes"}]}',
                "status",
            ),
            (
                '{"doc_id": "d", "text": "x", "gold": [{"value": "a"}], "gold_spans": []}',
                "parallel",
            ),
            (
                '{"doc_id": "d", "text": "x", "gold": [{"value": "a"}], "gold_spans": [[0, 99]]}',
                "within the text",
            ),
            (
                '{"doc_id": "d", "text": "xy", "gold": [{"value": "a"}], "gold_spans": [[2, 1]]}',
                "within the text",
            ),
            (
                '{"doc_id": "d", "text": "xy", "gold": [{"value": "a"}], "gold_spans": [[false, true]]}',
                "within the text",
            ),
            (
                '{"doc_id": "d", "text": "xy", "gold": [{"value": "a"}], "gold_spans": [[0, true]]}',
                "within the text",
            ),
        ],
    )
    def test_format_errors(self, tmp_path, line, fragment):
        path = write_jsonl(tmp_path, [line])
        with pytest.raises(FormatError, match=fragment):
            load_dataset(path)

    def test_error_carries_line_number(self, tmp_path):
        path = write_jsonl(tmp_path, [GOOD_LINES[0], "{bad"])
        with pytest.raises(FormatError) as exc_info:
            load_dataset(path)
        assert exc_info.value.line == 2

    def test_duplicate_doc_id(self, tmp_path):
        path = write_jsonl(tmp_path, [GOOD_LINES[0], GOOD_LINES[0]])
        with pytest.raises(DuplicateDocId):
            load_dataset(path)

    def test_lenient_skips_and_warns(self, tmp_path):
        path = write_jsonl(tmp_path, [GOOD_LINES[0], "{bad", GOOD_LINES[1], GOOD_LINES[0]])
        records, warnings = load_dataset(path, lenient=True)
        assert [r.doc_id for r in records] == ["d1", "d2"]
        assert len(warnings) == 2
        assert any("invalid JSON" in w for w in warnings)
        assert any("duplicate" in w for w in warnings)


class TestConversions:
    def make_records(self):
        return [
            DatasetRecord("e1", "eval text", (GoldItem("a"),), (None,), "eval"),
            DatasetRecord(
                "p1",
                "pool text",
                (GoldItem("aspirin", StatusLabel.ACTIVE), GoldItem("statin", StatusLabel.NEITHER)),
                (None, None),
                "demo-pool",
            ),
            DatasetRecord("p2", "pool empty", (), (), "demo-pool"),
        ]

    def test_records_to_documents_filters_split(self):
        docs = records_to_documents(self.make_records(), medication_status_task())
        assert [d.id for d in docs] == ["e1"]
        assert docs[0].task.name == "medication_status"

    def test_demo_pool_renders_answers(self):
        pool = demo_pool_from_records(self.make_records(), medication_status_task())
        assert len(pool) == 2
        assert pool[0].text == "pool text"
        assert pool[0].answer == "- aspirin: Active\n- statin: Neither"
        assert pool[1].answer == "None"

    def test_demo_pool_without_status_task(self):
        pool = demo_pool_from_records(self.make_records(), icd_task(10))
        assert pool[0].answer == "- aspirin\n- statin"


TEXT = "Patient takes aspirin daily."


def make_result(doc_id="d1", seed=0) -> PipelineResult:
    aspirin = ExtractedItem.from_raw(
        "aspirin",
        status=StatusLabel.ACTIVE,
        evidence=EvidenceSpan("takes aspirin", 8, 21, MatchKind.EXACT),
    )
    pruned = ExtractedItem.from_raw(
        "unicorn dust", pruned=True, prune_reason="not in the note"
    )
    return PipelineResult(
        doc_id=doc_id,
        text=TEXT,
        task_name="medication_status",
        seed=seed,
        final=ExtractionSet((aspirin,)),
        pruned=(pruned,),
        pre_prune=ExtractionSet((aspirin,)),
        traces=(
            StepTrace("original", "prompt text", "response text", 0.1, "1 items"),
        ),
        warnings=("one warning",),
        omission_iters=2,
    )


def with_evidence(result: PipelineResult, span: EvidenceSpan) -> PipelineResult:
    """`result` with the evidence of its one final item replaced by `span`."""
    (item,) = result.final
    return replace(result, final=ExtractionSet((item.evolve(evidence=span),)))


def make_run(tmp_path, results=None, run_id="run-a"):
    manifest = RunManifest(
        run_id=run_id,
        task=medication_status_task().name,
        backend="mock",
        model_id="m1",
        seeds=[0],
        workers=1,
        config={"model_id": "m1", "temperature": 0.1},
        catalog_version="1",
    )
    return write_run(tmp_path / run_id, manifest, results or [make_result()])


class TestRunPersistence:
    def test_roundtrip(self, tmp_path):
        run_dir = make_run(tmp_path)
        manifest, results = load_run(run_dir)
        assert manifest["run_id"] == "run-a"
        assert manifest["task"] == "medication_status"
        assert manifest["n_results"] == 1
        assert results == [make_result()]
        (result,) = results
        assert result.final.get("aspirin").evidence == EvidenceSpan("takes aspirin", 8, 21, MatchKind.EXACT)
        assert result.final.get("aspirin").origin == Origin.original()
        assert result.pruned[0].prune_reason == "not in the note"
        assert result.traces[0].step == "original"

    def test_refuses_to_overwrite(self, tmp_path):
        make_run(tmp_path)
        with pytest.raises(RunExists):
            make_run(tmp_path)

    def test_traces_can_be_excluded(self, tmp_path):
        record = result_to_record(make_result(), include_traces=False)
        assert "traces" not in record

    def test_records_carry_no_timing(self):
        record = result_to_record(make_result())

        def walk(obj):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    assert "latency" not in key
                    assert "wall" not in key
                    assert "timestamp" not in key
                    assert "created_at" not in key
                    walk(value)
            elif isinstance(obj, list):
                for value in obj:
                    walk(value)

        walk(record)

    def test_serialization_is_deterministic(self):
        a = record_to_line(result_to_record(make_result()))
        b = record_to_line(result_to_record(make_result()))
        assert a == b
        parsed = json.loads(a)
        assert list(parsed) == sorted(parsed)

    def test_load_run_names_file_and_line_of_first_bad_field(self, tmp_path):
        run_dir = make_run(tmp_path, results=[make_result(), make_result()])
        results = run_dir / "results.jsonl"
        first, second = (json.loads(line) for line in results.read_text().splitlines())
        first.update(unread_key=[1])
        second["final"][0]["evidence"]["match_kind"] = "guess"
        results.write_text(record_to_line(first) + "\n" + record_to_line(second) + "\n")
        with pytest.raises(FormatError, match=r"results\.jsonl: line 2: final\[0\]\.evidence .*match_kind"):
            load_run(run_dir)
        results.write_text(record_to_line(first) + "\n")
        assert load_run(run_dir)[1] == [make_result()]
        first.update(traces="not a list")
        results.write_text(record_to_line(first) + "\n")
        with pytest.raises(FormatError, match=r"results\.jsonl: line 1: result needs 'traces' as a list or absent"):
            load_run(run_dir)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda r: r["final"][0].update(origin="banana"), "final[0] has an unknown origin"),
            (lambda r: r["final"][0].update(origin="omission[01]"), "final[0] has an unknown origin"),
            (lambda r: r["final"][0].update(status="ACTIVE"), "final[0] has an unknown status"),
            (lambda r: r["final"][0]["evidence"].update(start=30), "final[0].evidence: bad span offsets [30, 21)"),
            (lambda r: r["final"][0].update(flags=[1]), "final[0] needs 'flags' as a list of strings"),
            (lambda r: r["pruned"][0].update(prune_reason=None),
             "pruned[0]: pruned items need a non-empty prune_reason"),
            (lambda r: r["traces"][0].update(temperature="0.1"), "traces[0] needs 'temperature' as a number or an integer"),
            (lambda r: r["final"].append(r["final"][0]), "result: duplicate key 'aspirin' in ExtractionSet"),
            (lambda r: r.pop("pre_prune_values"), "result needs 'pre_prune_values' as a list"),
        ],
    )
    def test_load_run_refuses_what_the_writer_cannot_write(self, tmp_path, edit, reason):
        run_dir = make_run(tmp_path)
        results = run_dir / "results.jsonl"
        record = json.loads(results.read_text())
        edit(record)
        results.write_text(record_to_line(record) + "\n")
        with pytest.raises(FormatError) as info:
            load_run(run_dir)
        assert info.value.reason == reason
        assert info.value.line == 1

    def test_pre_prune_is_rebuilt_key_by_key(self, tmp_path):
        kept, cut = ExtractedItem.from_raw("aspirin"), ExtractedItem.from_raw("ibuprofen")
        result = replace(
            make_result(),
            final=ExtractionSet((kept,)),
            pruned=(cut.evolve(pruned=True, prune_reason="no"),),
            pre_prune=ExtractionSet((ExtractedItem.from_raw("asa"), cut, kept)),
        )
        (back,) = load_run(make_run(tmp_path, results=[result]))[1]
        # The pruned item un-pruned, else the final item, else the key alone.
        assert back.pre_prune == ExtractionSet((ExtractedItem.from_raw("asa"), cut, kept))
        assert back == result

    def test_timing_lives_in_manifest(self, tmp_path):
        run_dir = make_run(tmp_path)
        manifest, _ = load_run(run_dir)
        assert "wall_seconds" in manifest
        assert "created_at" in manifest


class TestReport:
    def test_emit_report_highlights_and_banners(self, tmp_path):
        empty = PipelineResult(
            doc_id="d2",
            text="Nothing relevant here.",
            task_name="medication_status",
            seed=0,
            final=ExtractionSet.empty(),
        )
        run_dir = make_run(tmp_path, results=[make_result(), empty])
        html_text = render_report_html(*load_run(run_dir))
        assert "<mark>takes aspirin</mark>" in html_text
        assert "<del>unicorn dust</del>" in html_text
        assert "not in the note" in html_text
        assert "No items extracted" in html_text
        assert "run-a" in html_text

    def test_stale_span_not_highlighted(self):
        result = replace(make_result(), text="Completely different text now.")
        html_text = render_report_html({"run_id": "r"}, [result])
        assert "<mark>" not in html_text
        assert "failed re-checking" in html_text

    def test_case_insensitive_span_rechecked_loosely(self):
        span = EvidenceSpan("TAKES   Aspirin", 8, 21, MatchKind.CASE_INSENSITIVE)
        result = with_evidence(make_result(), span)
        assert "<mark>takes aspirin</mark>" in render_report_html({"run_id": "r"}, [result])
        result = with_evidence(result, replace(span, quote="takes ibuprofen"))
        html_text = render_report_html({"run_id": "r"}, [result])
        assert "<mark>" not in html_text
        assert "failed re-checking" in html_text

    def test_out_of_bounds_span_not_highlighted(self):
        result = with_evidence(make_result(), EvidenceSpan("takes aspirin", 8, 10_000, MatchKind.EXACT))
        html_text = render_report_html({"run_id": "r"}, [result])
        assert "<mark>" not in html_text

    def test_fuzzy_span_is_rechecked(self):
        text = "Patient takes aspirin daily. Denies chest pain."
        located = with_evidence(
            replace(make_result(), text=text), EvidenceSpan("takes asprin daily", 8, 27, MatchKind.FUZZY)
        )
        assert "<mark>takes aspirin daily</mark>" in render_report_html({"run_id": "r"}, [located])
        # The same quote at offsets shifted onto other words.
        shifted = with_evidence(located, EvidenceSpan("takes aspirin daily", 30, 47, MatchKind.FUZZY))
        assert text[30:47] == "enies chest pain."
        html_text = render_report_html({"run_id": "r"}, [shifted])
        assert "<mark>" not in html_text
        assert "1 evidence span(s) failed re-checking" in html_text

    def test_overlapping_spans_merge(self):
        a = ExtractedItem.from_raw(
            "aspirin", evidence=EvidenceSpan("takes aspirin", 8, 21, MatchKind.EXACT)
        )
        b = ExtractedItem.from_raw(
            "aspirin daily", evidence=EvidenceSpan("aspirin daily", 14, 27, MatchKind.EXACT)
        )
        result = PipelineResult(
            doc_id="d1",
            text=TEXT,
            task_name="medication_status",
            seed=0,
            final=ExtractionSet((a, b)),
        )
        html_text = render_report_html({"run_id": "r"}, [result])
        assert html_text.count("<mark>") == 1
        assert "<mark>takes aspirin daily</mark>" in html_text

    def test_text_is_escaped(self):
        result = PipelineResult(
            doc_id="d1",
            text="Dose < 5 & > 2 <script>alert(1)</script>",
            task_name="medication_status",
            seed=0,
            final=ExtractionSet.empty(),
        )
        html_text = render_report_html({"run_id": "r"}, [result])
        assert "<script>alert" not in html_text
        assert "&lt;script&gt;" in html_text
