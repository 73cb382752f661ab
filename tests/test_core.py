"""Unit and property tests for the shared domain types."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfverify.core import (
    Document,
    EvidenceSpan,
    ExtractedItem,
    ExtractionSet,
    MatchKind,
    Origin,
    StatusLabel,
    TaskFamily,
    TASKS,
    clinical_trial_arm_task,
    icd_task,
    medication_status_task,
    merge,
    normalize,
    task_by_name,
)
from selfverify import core
from selfverify.parsing import locate_quote

from helpers import fuzz_text
from oracles import fixpoint_normalize, normalized_distance_of_span, unmemoised_normalize


class TestTaskKind:
    def test_registry_names(self):
        assert set(TASKS) == {"clinical_trial_arm", "medication_status", "icd9", "icd10"}

    def test_icd_tasks_default_long_input(self):
        assert task_by_name("icd9").long_input is True
        assert task_by_name("icd10").long_input is True

    def test_short_tasks_default(self):
        assert task_by_name("clinical_trial_arm").long_input is False
        assert task_by_name("medication_status").long_input is False

    def test_icd_version_required(self):
        with pytest.raises(ValueError):
            icd_task(11)

    def test_icd_version_rejected_elsewhere(self):
        from selfverify.core import TaskKind

        with pytest.raises(ValueError):
            TaskKind(
                family=TaskFamily.MEDICATION_STATUS,
                name="x",
                long_input=False,
                icd_version=9,
            )

    def test_unknown_task_name(self):
        with pytest.raises(KeyError):
            task_by_name("nope")

    def test_wants_status(self):
        assert medication_status_task().wants_status is True
        assert clinical_trial_arm_task().wants_status is False


class TestDocument:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Document(id="d1", text="", task=medication_status_task())


class TestStatusLabel:
    def test_parse_canonical(self):
        assert StatusLabel.from_string(" Active ") is StatusLabel.ACTIVE
        assert StatusLabel.from_string("DISCONTINUED") is StatusLabel.DISCONTINUED
        assert StatusLabel.from_string("neither") is StatusLabel.NEITHER

    def test_parse_rejects_synonyms(self):
        # Synonym folding is a parsing-layer concern, not a core one.
        with pytest.raises(ValueError):
            StatusLabel.from_string("stopped")


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Aspirin", "aspirin"),
            ("  aspirin   81 mg ", "aspirin 81 mg"),
            ("- Aspirin", "aspirin"),
            ("* Aspirin", "aspirin"),
            ("• Aspirin", "aspirin"),
            ("3. Aspirin", "aspirin"),
            ("12) Aspirin", "aspirin"),
            ('"Aspirin"', "aspirin"),
            ("“Aspirin”", "aspirin"),
            ("Aspirin.", "aspirin"),
            ("Aspirin...", "aspirin"),
            ("- “Aspirin.”", "aspirin"),
            ("205.0", "205.0"),
            ("J44.1", "j44.1"),
            ("1.  'Metformin 500 MG'", "metformin 500 mg"),
            ("", ""),
            ("...", ""),
            ("no.", "no"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize(raw) == expected

    def test_marker_needs_trailing_space(self):
        # A bare code like "205.0" must not be mistaken for a list marker.
        assert normalize("96.04") == "96.04"

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(once) == once

    @given(st.text(max_size=200))
    def test_no_surrounding_whitespace(self, raw):
        out = normalize(raw)
        assert out == out.strip()

    @given(st.text(max_size=100))
    def test_casefolded(self, raw):
        out = normalize(raw)
        assert out == out.casefold()


# Pieces that list markers, quote pairs and trailing periods are made of.
_STACKING = ["- ", "-", "* ", "•", "1. ", "(2) ", "3)", "12.", '"', "'", "“", "”", "‘", "’",
             "«", "»", "`", ".", ". ", " ", "\t", "\n", "x", "ß", "İ", "Σ"]


class TestNormalizeAgainstFixpoint:
    """The one-rejoin normalize against the pass-until-unchanged one it replaced."""

    @given(st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_fuzz_replies(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            text = fuzz_text(rng)
            assert normalize(text) == fixpoint_normalize(text), text

    @given(st.lists(st.sampled_from(_STACKING), max_size=30))
    @settings(max_examples=500)
    def test_stacked_markers_quotes_and_periods(self, pieces):
        text = "".join(pieces)
        assert normalize(text) == fixpoint_normalize(text)

    @given(st.text(max_size=80))
    def test_any_text(self, text):
        assert normalize(text) == fixpoint_normalize(text)

    @pytest.mark.parametrize(
        "text",
        [
            "- - .", "- . .", "- - - . .", "1. 2. 3. . . .", '- "- x".', '"x" .', '"“x”"',
            "1. 2) • x..", "- '", "' - x '", "«»",
        ],
    )
    def test_end_trimming_interleaves_with_markers(self, text):
        assert normalize(text) == fixpoint_normalize(text)


class TestNormalizeMemo:
    """The memo returns what the body computes, however inputs repeat."""

    @given(st.lists(st.lists(st.sampled_from(_STACKING), max_size=4).map("".join) | st.text(max_size=12),
                    max_size=20))
    @settings(max_examples=300)
    def test_matches_unmemoised_body(self, values):
        # Each value again in reverse order, and interleaved with the others.
        for value in values + values[::-1] + [v for pair in zip(values, reversed(values)) for v in pair]:
            assert normalize(value) == unmemoised_normalize(value)

    def test_memo_is_bounded(self):
        normalize.cache_clear()
        for n in range(5000):
            assert normalize(f"- Item {n}.") == f"item {n}"
        assert normalize.cache_info().currsize == normalize.cache_info().maxsize == 4096
        assert normalize("- Item 0.") == "item 0"  # evicted, so computed again
        assert normalize.cache_info().misses == 5001


class _Counted:
    """A compiled pattern whose `match` calls are counted."""

    def __init__(self, pattern, counts):
        self.pattern, self.counts = pattern, counts

    def match(self, *args):
        self.counts["passes"] += 1
        return self.pattern.match(*args)


class TestNormalizeWork:
    """Stacked markers and nested quotes cost one rejoin and a bounded number of passes."""

    @pytest.fixture
    def counts(self, monkeypatch):
        core.normalize.cache_clear()  # a memoised input would count nothing
        counts = {"passes": 0, "rejoins": 0}
        once = core._normalize_once

        def counted_once(s):
            counts["rejoins"] += 1
            return once(s)

        monkeypatch.setattr(core, "_normalize_once", counted_once)
        # Every pass, the first one included, matches one marker pattern once.
        for name in ("_LIST_MARKER_RE", "_LIST_MARKERS_RE"):
            monkeypatch.setattr(core, name, _Counted(getattr(core, name), counts))
        return counts

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("- " * 4000 + "x", "x"),
            ("1. " * 2000 + "- " * 2000 + "Aspirin", "aspirin"),
            ('"' * 3000 + "x" + '"' * 3000, "x"),
            ("“‘" * 1500 + "x" + "’”" * 1500, "x"),
            ("- " * 2000 + '"' * 2000 + "X" + '"' * 2000, "x"),
        ],
        ids=["dashes", "numbers-then-dashes", "quotes", "nested-pairs", "dashes-then-quotes"],
    )
    def test_stacked_input(self, counts, text, expected):
        assert normalize(text) == expected
        assert counts == {"passes": 3, "rejoins": 1}

    def test_trailing_periods_and_spaces_cost_a_pass_each(self, counts):
        # One period and one space go per pass, as in the passes it replaced,
        # but a pass only moves two offsets.
        assert normalize("x" + " ." * 4000) == "x"
        assert counts["rejoins"] == 1 and counts["passes"] <= 4002

    def test_plain_value_takes_one_pass_after_the_first(self, counts):
        assert normalize("  Aspirin 81   mg. ") == "aspirin 81 mg"
        assert counts == {"passes": 2, "rejoins": 1}


class TestEvidenceSpan:
    def test_not_found_offsets(self):
        span = EvidenceSpan.not_found("missing quote")
        assert span.start == 0 and span.end == 0
        assert not span.located
        with pytest.raises(ValueError):
            EvidenceSpan(quote="x", start=1, end=2, match_kind=MatchKind.NOT_FOUND)

    def test_bad_offsets(self):
        with pytest.raises(ValueError):
            EvidenceSpan(quote="x", start=5, end=3, match_kind=MatchKind.EXACT)
        with pytest.raises(ValueError):
            EvidenceSpan(quote="x", start=-1, end=3, match_kind=MatchKind.EXACT)

    def test_verify_exact(self):
        text = "Patient takes aspirin daily."
        span = EvidenceSpan(quote="takes aspirin", start=8, end=21, match_kind=MatchKind.EXACT)
        assert span.verify_against(text)
        assert not span.verify_against("something else entirely")

    def test_verify_case_insensitive(self):
        text = "Patient TAKES  aspirin daily."
        span = EvidenceSpan(
            quote="takes aspirin", start=8, end=22, match_kind=MatchKind.CASE_INSENSITIVE
        )
        assert span.verify_against(text)

    def test_case_insensitive_recheck_folds_like_the_locator(self):
        # lower() keeps "ß" while casefold() makes it "ss"; only the locator's fold counts.
        span = EvidenceSpan("STRASSE", 0, 6, MatchKind.CASE_INSENSITIVE)
        assert locate_quote("straße", "STRASSE").match_kind is MatchKind.NOT_FOUND
        assert not span.verify_against("straße")

    def test_fuzzy_span_with_shifted_offsets_fails(self):
        text = "Patient takes aspirin daily. Denies chest pain."
        located = locate_quote(text, "takes asprin daily")
        assert (located.match_kind, located.start, located.end) == (MatchKind.FUZZY, 8, 27)
        assert located.verify_against(text)
        shifted = EvidenceSpan("takes aspirin daily", 30, 47, MatchKind.FUZZY)
        assert text[30:47] == "enies chest pain."
        assert not shifted.verify_against(text)

    def test_span_outside_the_text_or_empty_fails_and_not_found_claims_nothing(self):
        text = "Patient takes aspirin daily."
        for kind in (MatchKind.EXACT, MatchKind.CASE_INSENSITIVE, MatchKind.FUZZY):
            assert not EvidenceSpan("takes aspirin", 8, 100, kind).verify_against(text)
            assert not EvidenceSpan("", 8, 8, kind).verify_against(text)
        assert EvidenceSpan.not_found("anything").verify_against(text)

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(alphabet="ab cAB\n", min_size=1, max_size=40),
        quote=st.text(alphabet="ab cAB\n", max_size=30),
        start=st.integers(0, 45),
        length=st.integers(0, 45),
    )
    def test_fuzzy_recheck_matches_the_oracle_distance(self, text, quote, start, length):
        span = EvidenceSpan(quote, start, start + length, MatchKind.FUZZY)
        inside = 0 < length and start + length <= len(text)
        expected = inside and normalized_distance_of_span(text, quote, start, start + length) <= Fraction(1, 5)
        assert span.verify_against(text) == expected


class TestOrigin:
    def test_factories(self):
        assert str(Origin.original()) == "original"
        assert str(Origin.omission(3)) == "omission[3]"
        assert str(Origin.megaprompt()) == "megaprompt"

    def test_parse_reads_back_every_str(self):
        for origin in (Origin.original(), Origin.omission(1), Origin.omission(12), Origin.megaprompt()):
            assert Origin.parse(str(origin)) == origin

    @pytest.mark.parametrize(
        "text", ["banana", "", "omission", "omission[0]", "omission[01]", "omission[ 1]", "omission[1",
                 "omission[1_0]", "omission[\u0663]", "original[1]", "Original"],
    )
    def test_parse_refuses_any_other_text(self, text):
        with pytest.raises(ValueError):
            Origin.parse(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            Origin("omission")
        with pytest.raises(ValueError):
            Origin("omission", 0)
        with pytest.raises(ValueError):
            Origin("original", 1)
        with pytest.raises(ValueError):
            Origin("bogus")


class TestExtractedItem:
    def test_from_raw_normalizes(self):
        item = ExtractedItem.from_raw("- Aspirin 81mg.")
        assert item.value == "aspirin 81mg"
        assert item.key == "aspirin 81mg"

    def test_value_must_match_normalized(self):
        with pytest.raises(ValueError):
            ExtractedItem(raw_value="Aspirin", value="Aspirin")

    def test_pruned_requires_reason(self):
        with pytest.raises(ValueError):
            ExtractedItem.from_raw("aspirin", pruned=True)
        item = ExtractedItem.from_raw("aspirin", pruned=True, prune_reason="not supported")
        assert item.pruned

    def test_copies_keep_raw_value_and_value_without_normalizing(self, monkeypatch):
        item = ExtractedItem.from_raw("- Aspirin 81mg.", status=StatusLabel.ACTIVE)
        span = EvidenceSpan("aspirin 81mg", 0, 12, MatchKind.EXACT)
        monkeypatch.setattr(core, "normalize", lambda raw: pytest.fail("normalized again"))
        copies = [
            item.evolve(evidence=span, flags=item.flags + ("quote_not_found",)),  # evidence
            item.evolve(flags=item.flags + ("ambiguous_verdict",)),  # flags
            item.evolve(pruned=True, prune_reason="not supported"),  # prune
        ]
        for copy in copies:
            assert (copy.raw_value, copy.value, copy.status) == ("- Aspirin 81mg.", "aspirin 81mg", item.status)
        assert copies[0].evidence == span and copies[2].pruned
        assert item.flags == () and not item.pruned  # the original is untouched
        monkeypatch.undo()
        assert copies == [replace(item, **changes) for changes in (
            {"evidence": span, "flags": ("quote_not_found",)}, {"flags": ("ambiguous_verdict",)},
            {"pruned": True, "prune_reason": "not supported"})]

    def test_evolve_normalizes_a_new_raw_value_and_checks_the_rest(self):
        item = ExtractedItem.from_raw("aspirin").evolve(raw_value="- I10.", icd_code="I10")
        assert (item.raw_value, item.value, item.icd_code) == ("- I10.", "i10", "I10")
        with pytest.raises(ValueError):
            item.evolve(pruned=True)
        with pytest.raises(TypeError):
            item.evolve(value="i10")
        with pytest.raises(TypeError):
            item.evolve(colour="red")

    def test_key_ignores_status(self):
        a = ExtractedItem.from_raw("aspirin", status=StatusLabel.ACTIVE)
        b = ExtractedItem.from_raw("Aspirin", status=StatusLabel.DISCONTINUED)
        assert a.key == b.key


class TestExtractionSet:
    def test_rejects_duplicates(self):
        a = ExtractedItem.from_raw("aspirin")
        b = ExtractedItem.from_raw("ASPIRIN.")
        with pytest.raises(ValueError):
            ExtractionSet((a, b))

    def test_rejects_pruned(self):
        p = ExtractedItem.from_raw("aspirin", pruned=True, prune_reason="r")
        with pytest.raises(ValueError):
            ExtractionSet((p,))

    def test_lookup(self):
        s = ExtractionSet((ExtractedItem.from_raw("Aspirin"), ExtractedItem.from_raw("statin")))
        assert len(s) == 2
        assert "aspirin" in s
        assert "ibuprofen" not in s
        assert s.get("statin").value == "statin"
        assert s.get("missing") is None
        assert s.keys() == ("aspirin", "statin")


class TestMerge:
    def test_new_items_appended_in_order(self):
        base = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
        merged, added, warnings = merge(
            base, [ExtractedItem.from_raw("statin"), ExtractedItem.from_raw("metformin")]
        )
        assert merged.keys() == ("aspirin", "statin", "metformin")
        assert added == 2
        assert warnings == []

    def test_duplicate_dropped(self):
        base = ExtractionSet((ExtractedItem.from_raw("aspirin"),))
        merged, added, warnings = merge(base, [ExtractedItem.from_raw("ASPIRIN")])
        assert merged.keys() == ("aspirin",)
        assert added == 0
        assert warnings == []

    def test_status_conflict_keeps_earliest(self):
        base = ExtractionSet((ExtractedItem.from_raw("aspirin", status=StatusLabel.ACTIVE),))
        merged, added, warnings = merge(
            base,
            [
                ExtractedItem.from_raw(
                    "aspirin", status=StatusLabel.DISCONTINUED, origin=Origin.omission(1)
                )
            ],
        )
        assert added == 0
        assert merged.get("aspirin").status is StatusLabel.ACTIVE
        assert len(warnings) == 1
        assert "status conflict" in warnings[0]

    def test_empty_values_skipped(self):
        merged, added, warnings = merge(ExtractionSet.empty(), [ExtractedItem.from_raw("...")])
        assert len(merged) == 0
        assert added == 0

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=300),
                min_size=1,
                max_size=12,
            ),
            max_size=20,
        )
    )
    @settings(max_examples=200)
    def test_merge_properties(self, raws):
        items = [ExtractedItem.from_raw(r) for r in raws]
        merged, added, _ = merge(ExtractionSet.empty(), items)
        keys = merged.keys()
        # Unique keys, superset of every nonempty input value, count consistent.
        assert len(set(keys)) == len(keys)
        assert added == len(keys)
        for r in raws:
            if normalize(r):
                assert normalize(r) in merged
        # Merging again adds nothing.
        again, added_again, _ = merge(merged, items)
        assert again.keys() == keys
        assert added_again == 0
