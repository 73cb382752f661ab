"""Tests for the chained extraction pipeline."""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

import selfverify
from selfverify import core, evaluation, parsing
from selfverify import pipeline as pipeline_module
from selfverify.backend import (
    Backend,
    BackendError,
    CachingBackend,
    MockBackend,
    ReplayBackend,
    ResponseStore,
    ScriptStep,
    load_script,
)
from selfverify.core import (
    Document,
    ExtractionSet,
    MatchKind,
    StatusLabel,
    clinical_trial_arm_task,
    icd_task,
    medication_status_task,
)
from selfverify.data import (
    RunManifest,
    demo_pool_from_records,
    load_dataset,
    load_run,
    record_to_line,
    records_to_documents,
    result_to_record,
    write_run,
)
from selfverify.pipeline import (
    ABLATION_PRESETS,
    OPTIONAL_STEPS,
    ExtractionPipeline,
    PipelineConfig,
    run_ablation,
    run_batch,
)
from selfverify.prompts import DemoExample
from selfverify.synthetic import directional_backend, directional_corpus, plan_case

from helpers import backend_for_cases
from oracles import pool_map_run_batch

FIXTURES = Path(__file__).parent.parent / "fixtures"

MED_DOC = Document(
    id="note-1",
    text="Patient takes aspirin 81 mg daily. Metformin was stopped last month.",
    task=medication_status_task(),
)


def med_backend(extra: list[ScriptStep] | None = None) -> MockBackend:
    steps = [
        ScriptStep(
            "List every medication",
            "- Aspirin 81 mg: Active\n- Metformin: stopped\n- Ibuprofen: Active",
        ),
        ScriptStep("missing from the list above", "None"),
        ScriptStep(
            "exact quote",
            '- aspirin 81 mg: "takes aspirin 81 mg daily"\n'
            '- metformin: "Metformin was stopped"\n'
            '- ibuprofen: "ibuprofen as needed"',
        ),
        ScriptStep("Candidate medication: aspirin 81 mg", "Yes"),
        ScriptStep("Candidate medication: metformin", "Yes, clearly stated."),
        ScriptStep("Candidate medication: ibuprofen", "No. The note never mentions it."),
    ]
    return MockBackend((extra or []) + steps)


class TestOriginalStep:
    def test_parses_items_and_status(self):
        pipeline = ExtractionPipeline(med_backend(), PipelineConfig(steps=(), demonstrations_k=0))
        result = pipeline.run(MED_DOC)
        assert result.final.keys() == ("aspirin 81 mg", "metformin", "ibuprofen")
        assert result.final.get("aspirin 81 mg").status is StatusLabel.ACTIVE
        assert result.final.get("metformin").status is StatusLabel.DISCONTINUED
        assert [t.step for t in result.traces] == ["original"]
        assert result.traces[0].temperature == 0.1
        assert str(result.final.get("metformin").origin) == "original"

    def test_original_dedups(self):
        backend = MockBackend(
            [ScriptStep("List every medication", "- Aspirin: Active\n- ASPIRIN.: Active")]
        )
        pipeline = ExtractionPipeline(backend, PipelineConfig(steps=(), demonstrations_k=0))
        result = pipeline.run(MED_DOC)
        assert result.final.keys() == ("aspirin",)


class TestOmissionLoop:
    def test_adds_items_until_fixpoint(self):
        backend = MockBackend(
            [
                ScriptStep("List every medication", "- Aspirin: Active"),
                ScriptStep("missing from the list above", "- Lisinopril: Active", once=True),
                ScriptStep("missing from the list above", "None"),
            ]
        )
        config = PipelineConfig(steps=("omission",), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(MED_DOC)
        assert result.final.keys() == ("aspirin", "lisinopril")
        assert result.omission_iters == 2
        lisinopril = result.final.get("lisinopril")
        assert str(lisinopril.origin) == "omission[1]"
        assert [t.step for t in result.traces] == ["original", "omission[1]", "omission[2]"]

    def test_relisting_existing_items_is_a_fixpoint(self):
        backend = MockBackend(
            [
                ScriptStep("List every medication", "- Aspirin: Active"),
                ScriptStep("missing from the list above", "- aspirin: Active"),
            ]
        )
        config = PipelineConfig(steps=("omission",), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(MED_DOC)
        assert result.final.keys() == ("aspirin",)
        assert result.omission_iters == 1

    def test_long_input_task_repeats_at_least_five_times(self):
        backend = MockBackend(
            [
                ScriptStep("List every diagnosis", "- copd"),
                ScriptStep("missing from the list above", "None"),
            ]
        )
        doc = Document(id="icd-1", text="Long note about copd.", task=icd_task(10))
        config = PipelineConfig(steps=("omission",), demonstrations_k=0, icd_mapping=False)
        result = ExtractionPipeline(backend, config).run(doc)
        assert result.omission_iters == 5

    def test_min_iters_override(self):
        backend = MockBackend(
            [
                ScriptStep("List every diagnosis", "- copd"),
                ScriptStep("missing from the list above", "None"),
            ]
        )
        doc = Document(id="icd-1", text="note", task=icd_task(10))
        config = PipelineConfig(
            steps=("omission",), demonstrations_k=0, icd_mapping=False, omission_min_iters=2
        )
        result = ExtractionPipeline(backend, config).run(doc)
        assert result.omission_iters == 2

    def test_max_iters_caps_a_never_ending_stream(self):
        counter = {"n": 0}

        def fn(request):
            if "missing from the list above" in request.text:
                counter["n"] += 1
                return f"- med{counter['n']}: Active"
            return "- Aspirin: Active"

        config = PipelineConfig(steps=("omission",), demonstrations_k=0)
        result = ExtractionPipeline(MockBackend([ScriptStep("", fn)]), config).run(MED_DOC)
        assert result.omission_iters == 10
        assert len(result.final) == 11

    def test_status_conflict_keeps_earliest_and_warns(self):
        backend = MockBackend(
            [
                ScriptStep("List every medication", "- Aspirin: Active"),
                ScriptStep("missing from the list above", "- aspirin: stopped", once=True),
                ScriptStep("missing from the list above", "None"),
            ]
        )
        config = PipelineConfig(steps=("omission",), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(MED_DOC)
        assert result.final.get("aspirin").status is StatusLabel.ACTIVE
        assert any("status conflict" in w for w in result.warnings)


class TestEvidenceStep:
    def test_spans_attached_and_located(self):
        config = PipelineConfig(steps=("omission", "evidence"), demonstrations_k=0)
        result = ExtractionPipeline(med_backend(), config).run(MED_DOC)
        aspirin = result.final.get("aspirin 81 mg")
        assert aspirin.evidence.match_kind is MatchKind.EXACT
        assert MED_DOC.text[aspirin.evidence.start : aspirin.evidence.end] == (
            "takes aspirin 81 mg daily"
        )
        ibuprofen = result.final.get("ibuprofen")
        assert ibuprofen.evidence.match_kind is MatchKind.NOT_FOUND
        assert "quote_not_found" in ibuprofen.flags

    def test_missing_evidence_line_flagged(self):
        backend = MockBackend(
            [
                ScriptStep("List every medication", "- Aspirin: Active\n- Statin: Active"),
                ScriptStep("missing from the list above", "None"),
                ScriptStep("exact quote", '- aspirin: "takes aspirin 81 mg daily"'),
            ]
        )
        config = PipelineConfig(steps=("omission", "evidence"), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(MED_DOC)
        statin = result.final.get("statin")
        assert "no_evidence_line" in statin.flags
        assert statin.evidence.match_kind is MatchKind.NOT_FOUND

    def test_no_items_skips_the_call(self):
        backend = MockBackend(
            [
                ScriptStep("List every medication", "None"),
                ScriptStep("missing from the list above", "None"),
            ]
        )
        config = PipelineConfig(steps=("omission", "evidence"), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(MED_DOC)
        assert len(result.final) == 0
        evidence_traces = [t for t in result.traces if t.step == "evidence"]
        assert evidence_traces[0].summary == "skipped: no items"


def _long_note_case() -> tuple[Document, list[ScriptStep], dict[str, MatchKind]]:
    """A 12k-character note whose five evidence quotes are exact, case-changed,
    whitespace-changed, edited and absent: four of them miss the exact stage."""
    rng = random.Random(3)
    words = ["the", "patient", "was", "seen", "on", "rounds", "and", "is", "stable"]
    filler = lambda: " ".join(rng.choice(words) for _ in range(400)) + ".\n\n"  # noqa: E731
    passages = {
        "aspirin": "Aspirin 81 mg daily was continued for secondary prevention.",
        "metformin": "Metformin 500 mg twice daily was held before the contrast study.",
        "lisinopril": "Lisinopril 10 mg was started for blood pressure control today.",
        "warfarin": "Warfarin was resumed at 5 mg nightly with INR checks weekly.",
    }
    text = "Record LN-test.\n" + "".join(filler() + passage + " " for passage in passages.values())
    quotes = {
        "aspirin": passages["aspirin"],
        "metformin": passages["metformin"].upper(),
        "lisinopril": passages["lisinopril"].replace(" ", "  "),
        "warfarin": passages["warfarin"].replace("resumed", "resumad").replace("nightly", "nightlx"),
        "heparin": "Heparin drip titrated to a goal anti-Xa level by the pharmacy service team.",
    }
    kinds = {"aspirin": MatchKind.EXACT, "metformin": MatchKind.CASE_INSENSITIVE,
             "lisinopril": MatchKind.CASE_INSENSITIVE, "warfarin": MatchKind.FUZZY,
             "heparin": MatchKind.NOT_FOUND}
    steps = [
        ScriptStep("List every medication", "\n".join(f"- {name}: active" for name in quotes)),
        ScriptStep("missing from the list above", "None"),
        ScriptStep("exact quote", "\n".join(f'- {name}: "{quote}"' for name, quote in quotes.items())),
    ]
    return Document(id="long-1", text=text, task=medication_status_task()), steps, kinds


def _count_note_folds(monkeypatch, texts) -> Counter:
    """Count the folds of each of `texts` that the locator makes."""
    folds: Counter = Counter()
    real_fold = parsing.fold

    def counting_fold(text: str) -> str:
        if text in texts:
            folds[text] += 1
        return real_fold(text)

    monkeypatch.setattr(parsing, "fold", counting_fold)
    return folds


class TestEvidenceStepFolds:
    """The evidence step folds its note at most once, and only when needed."""

    def test_long_note_with_four_inexact_quotes_is_folded_once(self, monkeypatch):
        document, steps, kinds = _long_note_case()
        folds = _count_note_folds(monkeypatch, {document.text})
        config = PipelineConfig(steps=("omission", "evidence"), demonstrations_k=0)
        result = ExtractionPipeline(MockBackend(steps), config).run(document)
        assert {item.key: item.evidence.match_kind for item in result.final} == kinds
        assert folds[document.text] == 1

    def test_exact_quotes_fold_nothing(self, monkeypatch):
        documents, _ = directional_corpus()
        folds = _count_note_folds(monkeypatch, {d.text for d in documents})
        results = run_batch(directional_backend(), PipelineConfig(demonstrations_k=0), documents,
                            seeds=[0])
        # Items without an evidence line never reach the locator.
        quoted = [item for r in results for item in r.pre_prune if item.evidence.quote]
        assert quoted and {item.evidence.match_kind for item in quoted} == {MatchKind.EXACT}
        assert sum(folds.values()) == 0


class TestPruneStep:
    def test_full_chain_prunes_unsupported_item(self):
        config = PipelineConfig(demonstrations_k=0)
        result = ExtractionPipeline(med_backend(), config).run(MED_DOC)
        assert result.final.keys() == ("aspirin 81 mg", "metformin")
        assert len(result.pruned) == 1
        assert result.pruned[0].key == "ibuprofen"
        assert result.pruned[0].pruned
        assert result.pruned[0].prune_reason == "No. The note never mentions it."

    def test_partition_of_pre_prune(self):
        config = PipelineConfig(demonstrations_k=0)
        result = ExtractionPipeline(med_backend(), config).run(MED_DOC)
        final_keys = set(result.final.keys())
        pruned_keys = {i.key for i in result.pruned}
        assert final_keys | pruned_keys == set(result.pre_prune.keys())
        assert not (final_keys & pruned_keys)

    def test_prune_prompt_includes_quote_when_evidence_ran(self):
        config = PipelineConfig(demonstrations_k=0)
        result = ExtractionPipeline(med_backend(), config).run(MED_DOC)
        prune_traces = [t for t in result.traces if t.step.startswith("prune[")]
        aspirin_trace = next(t for t in prune_traces if "aspirin" in t.step)
        assert "Supporting quote" in aspirin_trace.prompt
        assert "takes aspirin 81 mg daily" in aspirin_trace.prompt

    def test_evidence_free_prune_prompt(self):
        backend = MockBackend(
            [
                ScriptStep("List every medication", "- Aspirin: Active"),
                ScriptStep("Candidate medication: aspirin", "Yes"),
            ]
        )
        config = PipelineConfig(steps=("prune",), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(MED_DOC)
        prune_trace = next(t for t in result.traces if t.step.startswith("prune["))
        assert "quote" not in prune_trace.prompt.lower()
        assert result.final.keys() == ("aspirin",)

    def test_ambiguous_verdict_keeps_and_flags(self):
        backend = MockBackend(
            [
                ScriptStep("List every medication", "- Aspirin: Active"),
                ScriptStep("Candidate medication: aspirin", "Hard to say."),
            ]
        )
        config = PipelineConfig(steps=("prune",), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(MED_DOC)
        aspirin = result.final.get("aspirin")
        assert aspirin is not None
        assert "ambiguous_verdict" in aspirin.flags
        assert any("ambiguous" in w for w in result.warnings)


ICD_DOC = Document(
    id="icd-note",
    text="Assessment: COPD exacerbation. Also noted essential hypertension.",
    task=icd_task(10),
)


def icd_backend() -> MockBackend:
    return MockBackend(
        [
            ScriptStep("List every diagnosis", "- COPD exacerbation\n- essential hypertension"),
            ScriptStep("missing from the list above", "None"),
            ScriptStep(
                "exact quote",
                '- COPD exacerbation: "COPD exacerbation"\n'
                '- essential hypertension: "essential hypertension"',
            ),
            ScriptStep("Candidate diagnosis: copd exacerbation", "Yes"),
            ScriptStep("Candidate diagnosis: essential hypertension", "Yes"),
            ScriptStep(
                "Convert each diagnosis",
                "- COPD exacerbation: J44.1\n- essential hypertension: I10",
            ),
        ]
    )


class TestIcdMapping:
    def test_codes_replace_diagnoses_after_prune(self):
        config = PipelineConfig(demonstrations_k=0)
        result = ExtractionPipeline(icd_backend(), config).run(ICD_DOC)
        assert result.final.keys() == ("j44.1", "i10")
        assert result.final.get("j44.1").icd_code == "J44.1"
        assert [t.step for t in result.traces][-1] == "icd_map"
        # Evidence follows the item through the mapping.
        assert result.final.get("j44.1").evidence.match_kind is MatchKind.EXACT

    def test_mapping_runs_after_prune_not_before(self):
        config = PipelineConfig(demonstrations_k=0)
        result = ExtractionPipeline(icd_backend(), config).run(ICD_DOC)
        steps = [t.step for t in result.traces]
        assert steps.index("icd_map") > max(
            i for i, s in enumerate(steps) if s.startswith("prune[")
        )

    def test_same_code_merges(self):
        backend = MockBackend(
            [
                ScriptStep("List every diagnosis", "- copd\n- chronic obstructive pulmonary disease"),
                ScriptStep(
                    "Convert each diagnosis",
                    "- copd: J44.9\n- chronic obstructive pulmonary disease: J44.9",
                ),
            ]
        )
        config = PipelineConfig(steps=(), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(ICD_DOC)
        assert result.final.keys() == ("j44.9",)

    def test_code_lines_align_to_diagnoses(self):
        backend = MockBackend(
            [
                ScriptStep("List every diagnosis", "- copd exacerbation"),
                ScriptStep("Convert each diagnosis", "- copd: J44.1\n- gout: M10.9"),
            ]
        )
        config = PipelineConfig(steps=(), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(ICD_DOC)
        assert result.final.keys() == ("j44.1",)
        assert result.warnings == ("code line for unknown diagnosis 'gout'",)

    def test_uncodable_dropped_with_warning(self):
        backend = MockBackend(
            [
                ScriptStep("List every diagnosis", "- copd\n- feeling unwell"),
                ScriptStep("Convert each diagnosis", "- copd: J44.9\n- feeling unwell: none"),
            ]
        )
        config = PipelineConfig(steps=(), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(ICD_DOC)
        assert result.final.keys() == ("j44.9",)
        assert any("uncodable" in w for w in result.warnings)

    def test_missing_line_keeps_diagnosis_flagged(self):
        backend = MockBackend(
            [
                ScriptStep("List every diagnosis", "- copd\n- hypertension"),
                ScriptStep("Convert each diagnosis", "- copd: J44.9"),
            ]
        )
        config = PipelineConfig(steps=(), demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run(ICD_DOC)
        assert result.final.keys() == ("j44.9", "hypertension")
        assert "unmapped_code" in result.final.get("hypertension").flags

    def test_code_lines_find_their_diagnosis_without_a_scan_per_line(self, monkeypatch):
        names = [f"diagnosis {i}" for i in range(300)]
        backend = MockBackend([
            ScriptStep("List every diagnosis", "".join(f"- {name}\n" for name in names)),
            ScriptStep("Convert each diagnosis", "".join(f"- {name}: J{i % 90 + 10}.{i // 90}\n"
                                                         for i, name in enumerate(names))),
        ])
        pipeline = ExtractionPipeline(backend, PipelineConfig(steps=(), demonstrations_k=0))
        key_lists = Counter()
        keys = ExtractionSet.keys

        def counted(self):
            key_lists[len(self)] += 1
            return keys(self)

        monkeypatch.setattr(ExtractionSet, "keys", counted)
        result = pipeline.run(ICD_DOC)
        assert len(result.final) == 300 and result.warnings == ()
        assert key_lists[300] <= 2  # once per reply, not once per code line

    def test_mapping_can_be_disabled(self):
        config = PipelineConfig(steps=(), demonstrations_k=0, icd_mapping=False)
        backend = MockBackend([ScriptStep("List every diagnosis", "- copd")])
        result = ExtractionPipeline(backend, config).run(ICD_DOC)
        assert result.final.keys() == ("copd",)


class TestMegaprompt:
    def test_single_call_and_origin(self):
        backend = MockBackend([ScriptStep("(1)", "- Aspirin: Active\n- Metformin: stopped")])
        config = PipelineConfig(demonstrations_k=0)
        result = ExtractionPipeline(backend, config).run_megaprompt(MED_DOC)
        assert result.megaprompt
        assert [t.step for t in result.traces] == ["megaprompt"]
        assert result.final.keys() == ("aspirin", "metformin")
        assert str(result.final.get("aspirin").origin) == "megaprompt"
        assert len(backend.calls) == 1


class TestDemonstrations:
    def make_pool(self, n=10):
        return [DemoExample(f"demo text {i}", f"- med{i}: Active") for i in range(n)]

    def test_short_task_defaults_to_five(self):
        backend = med_backend()
        config = PipelineConfig(steps=())
        pipeline = ExtractionPipeline(backend, config)
        pipeline.run(MED_DOC, seed=3, demo_pool=self.make_pool())
        prompt = backend.calls[0].text
        assert prompt.count("demo text") == 5

    def test_same_seed_same_prompt(self):
        pool = self.make_pool()
        prompts = []
        for _ in range(2):
            backend = med_backend()
            ExtractionPipeline(backend, PipelineConfig(steps=())).run(
                MED_DOC, seed=7, demo_pool=pool
            )
            prompts.append(backend.calls[0].text)
        assert prompts[0] == prompts[1]

    def test_different_seed_different_sample(self):
        pool = self.make_pool(20)
        prompts = []
        for seed in (1, 2):
            backend = med_backend()
            ExtractionPipeline(backend, PipelineConfig(steps=())).run(
                MED_DOC, seed=seed, demo_pool=pool
            )
            prompts.append(backend.calls[0].text)
        assert prompts[0] != prompts[1]

    def test_missing_pool_raises(self):
        pipeline = ExtractionPipeline(med_backend(), PipelineConfig(steps=()))
        with pytest.raises(ValueError, match="demo pool"):
            pipeline.run(MED_DOC, seed=1, demo_pool=None)

    def test_long_input_task_needs_no_pool(self):
        backend = MockBackend([ScriptStep("List every diagnosis", "- copd")])
        config = PipelineConfig(steps=(), icd_mapping=False)
        result = ExtractionPipeline(backend, config).run(ICD_DOC, seed=1)
        assert result.final.keys() == ("copd",)


class TestPipelineConfig:
    def test_rejects_unknown_steps(self):
        with pytest.raises(ValueError):
            PipelineConfig(steps=("omission", "bogus"))

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            PipelineConfig(steps=("omission", "omission"))

    def test_rejects_bad_iters(self):
        with pytest.raises(ValueError):
            PipelineConfig(omission_min_iters=0)
        with pytest.raises(ValueError):
            PipelineConfig(omission_min_iters=5, omission_max_iters=3)

    def test_describe_resolves_per_task(self):
        config = PipelineConfig()
        short = config.describe(medication_status_task())
        long = config.describe(icd_task(10))
        assert short["demonstrations_k"] == 5
        assert long["demonstrations_k"] == 0
        assert short["omission_min_iters"] == 1
        assert long["omission_min_iters"] == 5
        assert long["icd_mapping"] is True
        assert short["icd_mapping"] is False

    def test_describe_lists_every_field(self):
        """A manifest records every setting, in field order, so a new field cannot be left out."""
        described = PipelineConfig(steps=("prune",)).describe(medication_status_task())
        assert list(described) == [f.name for f in fields(PipelineConfig)]
        assert described["steps"] == ["prune"]

    def test_presets(self):
        assert set(ABLATION_PRESETS) == {"Original", "+ Omission", "+ Prune", "+ Full SV"}
        assert ABLATION_PRESETS["Original"] == ()
        assert ABLATION_PRESETS["+ Full SV"] == ("omission", "evidence", "prune")
        for steps in ABLATION_PRESETS.values():
            PipelineConfig(steps=steps)


class TestRunBatch:
    def test_deterministic_order_and_worker_independence(self):
        docs = [
            Document(id=f"d{i}", text=f"Doc {i}: patient takes aspirin.", task=medication_status_task())
            for i in range(4)
        ]
        config = PipelineConfig(steps=(), demonstrations_k=0)

        def backend():
            return MockBackend([ScriptStep("List every medication", "- Aspirin: Active")])

        serial = run_batch(backend(), config, docs, seeds=[1, 2], workers=1)
        parallel = run_batch(backend(), config, docs, seeds=[1, 2], workers=4)
        assert [(r.seed, r.doc_id) for r in serial] == [
            (1, "d0"), (1, "d1"), (1, "d2"), (1, "d3"),
            (2, "d0"), (2, "d1"), (2, "d2"), (2, "d3"),
        ]
        assert [(r.seed, r.doc_id) for r in parallel] == [(r.seed, r.doc_id) for r in serial]
        assert [r.final.keys() for r in parallel] == [r.final.keys() for r in serial]

    def test_megaprompt_batch(self):
        docs = [Document(id="d0", text="txt", task=medication_status_task())]
        backend = MockBackend([ScriptStep("(1)", "- Aspirin: Active")])
        config = PipelineConfig(demonstrations_k=0)
        results = run_batch(backend, config, docs, seeds=[0], megaprompt=True)
        assert results[0].megaprompt


class SlowBackend(Backend):
    """Sleeps before each answer, like a live endpoint, and records each
    call's interval, its note number, and the most calls in flight at once.

    A call sleeps `latency_s`, plus `jitter_s` times its note number mod 3
    (a per-document latency). With `fail_at_prune=n` the n-th prune call
    raises instead, and with `fail_at_call=n` the n-th call of any step.
    """

    def __init__(
        self, inner: Backend, latency_s: float = 0.020, fail_at_prune: int | None = None,
        jitter_s: float = 0.0, fail_at_call: int | None = None,
    ):
        self.inner = inner
        self.latency_s = latency_s
        self.jitter_s = jitter_s
        self.fail_at_prune = fail_at_prune
        self.fail_at_call = fail_at_call
        self.lock = threading.Lock()
        self.in_flight = self.peak_in_flight = self.prune_calls = self.calls = 0
        self.failed = False
        self.intervals: list[tuple[float, float]] = []
        self.notes: list[int | None] = []

    def complete(self, request):
        note = re.search(r"Note (\d+)\.", request.text)
        number = int(note.group(1)) if note else None
        with self.lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            is_prune = "Candidate medication:" in request.text
            self.prune_calls += is_prune
            self.calls += 1
            fail = "prune call failed" if is_prune and self.prune_calls == self.fail_at_prune else None
            if self.calls == self.fail_at_call:
                fail = f"call {self.calls} failed"
        start = time.perf_counter()
        try:
            time.sleep(self.latency_s + self.jitter_s * ((number or 0) % 3))
            if fail:
                self.failed = True
                raise BackendError(fail)
            return self.inner.complete(request)
        finally:
            with self.lock:
                self.in_flight -= 1
                self.intervals.append((start, time.perf_counter()))
                self.notes.append(number)

    def documents_overlapped(self) -> bool:
        """Whether calls for two different notes were ever in flight together."""
        calls = list(zip(self.notes, self.intervals))
        return any(
            a_note != b_note and a_start < b_end and b_start < a_end
            for (a_note, (a_start, a_end)), (b_note, (b_start, b_end)) in itertools.combinations(calls, 2)
        )


def _overlap(intervals) -> bool:
    ordered = sorted(intervals)
    return any(b[0] < a[1] for a, b in zip(ordered, ordered[1:]))


def _many_items_case(n_items: int) -> tuple[Document, list[ScriptStep]]:
    """A document whose original pass lists `n_items` drugs, and a script keeping each on prune."""
    names = [f"drug{i:02d}" for i in range(n_items)]
    document = Document(id="many", text="Takes " + ", ".join(names) + ".", task=medication_status_task())
    steps = [
        ScriptStep("List every medication", "".join(f"- {n}: Active\n" for n in names)),
        ScriptStep("Candidate medication:", "Yes."),
    ]
    return document, steps


class ThreadCounting(Backend):
    """Passes calls through, noting the threads alive at each one."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.threads: list[int] = []

    def complete(self, request):
        self.threads.append(threading.active_count())
        return self.inner.complete(request)


class TestPruneFanOut:
    """On a slow backend a document's prune calls run concurrently."""

    CONFIG = PipelineConfig(demonstrations_k=0)
    PRUNE_ONLY = PipelineConfig(steps=("prune",), demonstrations_k=0)

    def test_slow_backend_gives_serial_records_with_overlapping_calls(self):
        documents = directional_corpus()[0][:4]
        serial = [ExtractionPipeline(directional_backend(), self.CONFIG).run(d, seed=0) for d in documents]
        slow = SlowBackend(directional_backend())
        # One worker: any overlap comes from the prune fan-out.
        fanned = run_batch(slow, self.CONFIG, documents, seeds=[0], workers=1)
        assert [result_to_record(r) for r in fanned] == [result_to_record(r) for r in serial]
        assert _overlap(slow.intervals)

    def test_fast_backend_starts_no_helper_thread(self):
        documents = directional_corpus()[0][:10]
        backend = ThreadCounting(directional_backend())
        before = threading.active_count()
        run_batch(backend, self.CONFIG, documents, seeds=[0], workers=1)
        assert backend.threads and max(backend.threads) <= before

    def test_forty_items_keep_calls_in_flight_bounded(self):
        pool_size = min(32, (os.cpu_count() or 1) + 4)  # ThreadPoolExecutor's default
        workers = 4
        document, steps = _many_items_case(40)
        documents = [replace(document, id=f"many{i}") for i in range(3)]
        serial = [ExtractionPipeline(MockBackend(steps), self.PRUNE_ONLY).run(d) for d in documents]
        slow = SlowBackend(MockBackend(steps))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = run_batch(slow, self.PRUNE_ONLY, documents, seeds=[0], workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert [result_to_record(r) for r in results] == [result_to_record(r) for r in serial]
        assert workers < slow.peak_in_flight <= workers + pool_size

    def test_failing_prune_call_fails_the_batch_without_hanging(self):
        document, steps = _many_items_case(40)
        slow = SlowBackend(MockBackend(steps), fail_at_prune=3)
        errors = []

        def batch():
            try:
                run_batch(slow, self.PRUNE_ONLY, [document], seeds=[0], workers=2)
            except BackendError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=batch, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert errors == ["prune call failed"]

    def test_once_step_answers_follow_completion_order(self):
        """A `once` step matching several prune prompts of one document
        answers whichever call reaches it first; the verdicts as a multiset
        do not change."""
        document, steps = _many_items_case(8)

        def script():
            return MockBackend([ScriptStep("Candidate medication:", "No.", once=True), *steps])

        def verdicts(result):
            return Counter(t.response for t in result.traces if t.step.startswith("prune["))

        serial = ExtractionPipeline(script(), self.PRUNE_ONLY).run(document)
        slow = SlowBackend(script())
        fanned = run_batch(slow, self.PRUNE_ONLY, [document], seeds=[0], workers=1)[0]
        assert _overlap(slow.intervals)
        assert verdicts(fanned) == verdicts(serial) == Counter({"Yes.": 7, "No.": 1})
        assert (len(fanned.final), len(fanned.pruned)) == (len(serial.final), len(serial.pruned)) == (7, 1)


class TestSpeedGate:
    """A batch runs documents on the calling thread until an uncached model
    call proves slow; then `workers - 1` helpers join it. Counted in
    threads, calls and drains, never in wall time."""

    CONFIG = PipelineConfig(demonstrations_k=0)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_the_pool_map_scheduler_on_a_jittered_slow_backend(self, workers):
        documents = directional_corpus()[0][:4]

        def jittered():
            return SlowBackend(directional_backend(), latency_s=0.012, jitter_s=0.004)

        expected = pool_map_run_batch(jittered(), self.CONFIG, documents, [0, 1], workers=workers)
        slow = jittered()
        results = run_batch(slow, self.CONFIG, documents, seeds=[0, 1], workers=workers)
        assert [(r.seed, r.doc_id) for r in results] == [(s, d.id) for s in (0, 1) for d in documents]
        assert [result_to_record(r) for r in results] == [result_to_record(r) for r in expected]
        assert slow.documents_overlapped() == (workers > 1)

    def test_fast_and_replayed_batches_start_no_thread(self, tmp_path):
        documents = directional_corpus()[0][:3]
        store = ResponseStore(tmp_path / "store.bin")
        recorded = run_batch(CachingBackend(directional_backend(), store), self.CONFIG, documents, [0], workers=1)
        fast = ThreadCounting(directional_backend())
        # Every reply is a cache hit, however slowly it comes back.
        replay = ThreadCounting(SlowBackend(ReplayBackend(store), latency_s=0.012))
        before = threading.active_count()
        run_batch(fast, self.CONFIG, documents, seeds=[0], workers=4)
        replayed = run_batch(replay, self.CONFIG, documents, seeds=[0], workers=4)
        assert fast.threads and replay.threads and max(fast.threads + replay.threads) <= before
        assert [result_to_record(r) for r in replayed] == [result_to_record(r) for r in recorded]

    def test_slow_batch_starts_its_drains_once(self, monkeypatch):
        hooks, threads = [], set()

        class Watched(ExtractionPipeline):
            def __init__(self, *args, on_slow, **kwargs):
                def counted():
                    hooks.append(threading.get_ident())
                    on_slow()

                super().__init__(*args, on_slow=counted, **kwargs)

            def run(self, document, *args, **kwargs):
                threads.add(threading.get_ident())
                return super().run(document, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "ExtractionPipeline", Watched)
        workers = 3
        slow = SlowBackend(directional_backend(), latency_s=0.012)
        run_batch(slow, self.CONFIG, directional_corpus()[0][:8], seeds=[0], workers=workers)
        assert hooks == [threading.get_ident()]
        assert threading.get_ident() in threads and 1 < len(threads) <= workers

    def test_failing_call_stops_the_queue_without_hanging(self, monkeypatch):
        documents = directional_corpus()[0][:10]
        slow = SlowBackend(directional_backend(), latency_s=0.012, fail_at_call=12)
        started_after_failure, errors = [], []

        class Watched(ExtractionPipeline):
            def run(self, document, *args, **kwargs):
                started_after_failure.append(slow.failed)
                return super().run(document, *args, **kwargs)

        def batch():
            try:
                run_batch(slow, self.CONFIG, documents, seeds=[0], workers=2)
            except BackendError as exc:
                errors.append(str(exc))

        monkeypatch.setattr(pipeline_module, "ExtractionPipeline", Watched)
        thread = threading.Thread(target=batch, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert errors == ["call 12 failed"]
        # At most the other drain may have taken a job between the raise and
        # the queue seeing it; none is handed out after.
        assert len(started_after_failure) < len(documents) and sum(started_after_failure) <= 1

    def test_warm_cache_does_not_hide_a_slow_endpoint(self, tmp_path):
        documents = directional_corpus()[0][:4]
        store = ResponseStore(tmp_path / "store.bin")
        originals_only = replace(self.CONFIG, steps=())
        run_batch(CachingBackend(directional_backend(), store), originals_only, documents, [0], workers=1)
        serial = [ExtractionPipeline(directional_backend(), self.CONFIG).run(d, seed=0) for d in documents]
        slow = SlowBackend(directional_backend(), latency_s=0.012)
        results = run_batch(CachingBackend(slow, store), self.CONFIG, documents, seeds=[0], workers=1)
        assert slow.calls == sum(len(r.traces) for r in results) - len(documents)  # originals were hits
        assert [result_to_record(r) for r in results] == [result_to_record(r) for r in serial]
        assert _overlap(slow.intervals)


class TestRunAblation:
    def test_fresh_backend_per_variant_and_seed(self):
        docs = [Document(id="d0", text="Patient takes aspirin.", task=medication_status_task())]
        backends = []

        def make_backend():
            backends.append(
                MockBackend(
                    [
                        ScriptStep("missing from the list above", "- Warfarin: Active", once=True),
                        ScriptStep("missing from the list above", "None"),
                        ScriptStep("give one exact quote", '- aspirin: "aspirin"'),
                        ScriptStep("Candidate medication: warfarin", "No."),
                        ScriptStep("Candidate medication:", "Yes."),
                    ],
                    default="- Aspirin: Active",
                )
            )
            return backends[-1]

        rows = run_ablation(
            make_backend, PipelineConfig(demonstrations_k=0), docs, {"d0": ["aspirin"]},
            seeds=[0, 1], workers=1, with_megaprompt=True,
        )
        assert [row.name for row in rows] == [*ABLATION_PRESETS, "Megaprompt"]
        assert len(backends) == 5 * 2
        assert all(row.n_seeds == 2 for row in rows)
        by_name = {row.name: row for row in rows}
        # Every omission run sees its own `once` step: a shared backend would
        # answer the second seed "None" and score it 1.0.
        assert by_name["+ Omission"].precision == pytest.approx(0.5)
        assert by_name["+ Full SV"].precision == pytest.approx(1.0)
        assert by_name["Megaprompt"].f1 == pytest.approx(1.0)


class TestNormalizeOnce:
    def test_ablation_demo_normalizes_at_most_three_times_per_call(self, monkeypatch):
        calls = Counter()
        normalize = core.normalize

        def counted(raw):
            calls["normalize"] += 1
            return normalize(raw)

        for module in (core, parsing, pipeline_module, evaluation):
            monkeypatch.setattr(module, "normalize", counted)
        backends = []

        def make_backend():
            backends.append(directional_backend())
            return backends[-1]

        documents, gold = directional_corpus()
        run_ablation(make_backend, PipelineConfig(demonstrations_k=0), documents, gold, [0, 1, 2],
                     workers=2, with_megaprompt=True)
        model_calls = sum(len(b.calls) for b in backends)
        assert model_calls == 2925
        # 7.9 per call when every copy re-checked, 4.27 when each list item
        # was normalised only to drop the empty ones.
        assert calls["normalize"] <= 3.0 * model_calls

    def test_ablation_demo_runs_the_normalize_body_once_per_distinct_value(self, monkeypatch):
        inputs = []
        once = core._normalize_once

        def counted_once(s):
            inputs.append(s)
            return once(s)

        core.normalize.cache_clear()
        monkeypatch.setattr(core, "_normalize_once", counted_once)
        documents, gold = directional_corpus()
        run_ablation(directional_backend, PipelineConfig(demonstrations_k=0), documents, gold, [0, 1, 2],
                     workers=2, with_megaprompt=True)
        # Every other call of the 8,150 is a memo hit.
        assert len(inputs) == len(set(inputs)) == 19


def _digest(results) -> str:
    sha = hashlib.sha256()
    for result in results:
        sha.update(record_to_line(result_to_record(result)).encode("utf-8") + b"\n")
    return sha.hexdigest()


def _variant_results(make_backend, config, documents, seeds, variants, demo_pool=None):
    """Results of each step bundle (None: megaprompt) and seed, a fresh backend each."""
    results = []
    for steps in variants:
        variant = config if steps is None else replace(config, steps=steps)
        for seed in seeds:
            results += run_batch(
                make_backend(), variant, documents, seeds=[seed], demo_pool=demo_pool,
                workers=1, megaprompt=steps is None,
            )
    return results


def _directional_results():
    """The directional corpus under every ablation preset and the megaprompt, seeds 0-2."""
    documents, _ = directional_corpus()
    return _variant_results(
        directional_backend, PipelineConfig(demonstrations_k=0), documents, [0, 1, 2],
        [*ABLATION_PRESETS.values(), None],
    )


def _planned_results():
    """200 planned cases, seeds 0 and 1."""
    rng = random.Random(5)
    cases = [plan_case(rng, n) for n in range(200)]
    # Every script step names its case, so a backend per case answers
    # as one shared backend would, without scanning 200 scripts a call.
    config = PipelineConfig(demonstrations_k=0)
    return [
        ExtractionPipeline(backend_for_cases([case]), config).run(case.document, seed=seed)
        for seed in (0, 1)
        for case in cases
    ]


def _fixture_results(dataset, script, task):
    """A fixture under the full chain, prune alone, no step and the megaprompt (ICD: with code mapping)."""
    records, _ = load_dataset(FIXTURES / dataset)
    return _variant_results(
        lambda: MockBackend(load_script(FIXTURES / script)), PipelineConfig(),
        records_to_documents(records, task), [0], [OPTIONAL_STEPS, ("prune",), (), None],
        demo_pool_from_records(records, task) or None,
    )


FIXTURE_RUNS = {
    "icd10": ("icd10_notes.jsonl", "icd10_script.jsonl", icd_task(10)),
    "medication": ("medication_status.jsonl", "medication_script.jsonl", medication_status_task()),
}


class TestPinnedOutput:
    """Serialized results of fixed corpora, pinned as one sha256 per corpus.

    A refactor of the pipeline must leave every byte of them unchanged,
    including that `run_megaprompt` records pre_prune after code mapping
    while `run` records it before.
    """

    def test_directional_corpus(self):
        results = _directional_results()
        assert _digest(results) == "67d3c49df3a1cf8b71536545f157d6aa3b298f8908dfce770cafee56e068dda6"

    def test_planned_cases(self):
        results = _planned_results()
        assert _digest(results) == "1c135cbddc22d10cea6440f605b63afe79b246cec723a0e2557e9d58864ca21d"

    @pytest.mark.parametrize(
        "dataset, script, task, expected",
        [
            (*FIXTURE_RUNS["icd10"], "b7085d4b6f0f67f1af2fb5d1ffbe72f0441d6828918e4a7a758c2c6fe2bbca84"),
            (*FIXTURE_RUNS["medication"], "a6e4055ce3ed301ed6e7faeb4862ed91cbb4680fafc01443d698bfa273c15cf1"),
        ],
    )
    def test_fixtures(self, dataset, script, task, expected):
        assert _digest(_fixture_results(dataset, script, task)) == expected


class TestRunRecordsRoundTrip:
    """`load_run` reads back what `write_run` wrote, as the results that wrote it.

    Written again, every line read back gives the same bytes. Every field
    but `pre_prune` reads back equal; `pre_prune` is rebuilt from its keys,
    so it reads back equal by key, and on runs without code mapping `final`
    and `pruned` partition it (the invariant of test_02).
    """

    def round_trip(self, tmp_path, results, include_traces=True, partition=True):
        manifest = RunManifest("run", "task", "mock", "m", [0], 1, {}, "1")
        run_dir = write_run(tmp_path / "run", manifest, results, include_traces=include_traces)
        written = (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
        _, back = load_run(run_dir)
        assert [record_to_line(result_to_record(r, include_traces)) for r in back] == written
        for result, read in zip(results, back, strict=True):
            assert read.pre_prune.keys() == result.pre_prune.keys()
            traces = result.traces if include_traces else ()
            assert read == replace(result, pre_prune=read.pre_prune, traces=traces)
            if partition:
                final, pruned = set(read.final.keys()), {item.key for item in read.pruned}
                assert final | pruned == set(read.pre_prune.keys()) and not final & pruned
        return back

    def test_directional_corpus(self, tmp_path):
        self.round_trip(tmp_path, _directional_results())

    def test_planned_cases(self, tmp_path):
        self.round_trip(tmp_path, _planned_results())

    @pytest.mark.parametrize("fixture", sorted(FIXTURE_RUNS))
    def test_fixtures(self, tmp_path, fixture):
        results = _fixture_results(*FIXTURE_RUNS[fixture])
        back = self.round_trip(tmp_path, results, partition=fixture != "icd10")
        if fixture == "icd10":  # `final` holds codes, `pre_prune` the diagnoses they map
            assert back[0].pre_prune.keys() == ("community acquired pneumonia", "type 2 diabetes")
            assert back[0].final.keys() == ("j18.9", "e11.9")

    def test_run_without_traces(self, tmp_path):
        self.round_trip(tmp_path, _fixture_results(*FIXTURE_RUNS["medication"]), include_traces=False)


def test_planned_cases_do_not_depend_on_string_hashing():
    program = (
        "import random\n"
        "from selfverify.synthetic import plan_case\n"
        "rng = random.Random(88)\n"
        "for n in range(100):\n"
        "    case = plan_case(rng, n)\n"
        "    print(sorted((v, s.value) for v, s in case.expected_status.items()))\n"
    )
    src = str(Path(selfverify.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
