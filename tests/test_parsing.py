"""Tests for model-output parsers and the quote locator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    distances_for_end,
    normalized_distance_of_span,
    oracle_locate,
    sellers_end_distances,
)
from selfverify.core import MatchKind, StatusLabel, normalize
from selfverify.parsing import (
    AmbiguousVerdict,
    FUZZY_THRESHOLD_DEN,
    FUZZY_THRESHOLD_NUM,
    _edit_row,
    align_key,
    fold_quote,
    fold_with_offsets,
    locate_quote,
    parse_bulleted_list,
    parse_evidence,
    parse_icd_codes,
    parse_status_pairs,
    parse_verdict,
    window_band,
)


class TestParseBulletedList:
    def test_dash_bullets_with_preamble(self):
        text = "Here are the medications I found:\n- Aspirin 81 mg\n- Metformin\n"
        assert parse_bulleted_list(text) == ["Aspirin 81 mg", "Metformin"]

    def test_mixed_markers(self):
        text = "1. alpha\n2) beta\n* gamma\n• delta"
        assert parse_bulleted_list(text) == ["alpha", "beta", "gamma", "delta"]

    def test_fallback_plain_lines(self):
        text = "aspirin\nmetformin\n\nlisinopril"
        assert parse_bulleted_list(text) == ["aspirin", "metformin", "lisinopril"]

    def test_fallback_drops_header_line(self):
        text = "Extracted medications:\naspirin\nmetformin"
        assert parse_bulleted_list(text) == ["aspirin", "metformin"]

    @pytest.mark.parametrize(
        "reply",
        [
            "None",
            "none.",
            "N/A",
            "- None",
            "No medications found.",
            "There are no additional trial arms.",
            "no missed diagnoses",
            "Nothing else",
        ],
    )
    def test_sentinels_empty(self, reply):
        assert parse_bulleted_list(reply) == []

    def test_sentinel_like_value_kept_in_multi_item_list(self):
        text = "- no-treatment control\n- placebo"
        assert parse_bulleted_list(text) == ["no-treatment control", "placebo"]

    def test_value_starting_with_no_kept(self):
        # "no improvement arm" does not fit the no-<noun>-found shape.
        assert parse_bulleted_list("- no improvement arm") == ["no improvement arm"]

    def test_marker_only_lines_dropped(self):
        assert parse_bulleted_list("- \n- aspirin") == ["aspirin"]

    def test_empty_input(self):
        assert parse_bulleted_list("") == []
        assert parse_bulleted_list("\n\n  \n") == []


class TestParseStatusPairs:
    def test_colon_form(self):
        pairs, warnings = parse_status_pairs("- Aspirin: active\n- Warfarin: discontinued")
        assert pairs == [
            ("Aspirin", StatusLabel.ACTIVE),
            ("Warfarin", StatusLabel.DISCONTINUED),
        ]
        assert warnings == []

    def test_synonyms(self):
        pairs, _ = parse_status_pairs(
            "- aspirin: stopped\n- metformin: current\n- statin: unknown"
        )
        assert [s for _, s in pairs] == [
            StatusLabel.DISCONTINUED,
            StatusLabel.ACTIVE,
            StatusLabel.NEITHER,
        ]

    def test_paren_form(self):
        pairs, warnings = parse_status_pairs("- Metformin 500 mg (stopped)")
        assert pairs == [("Metformin 500 mg", StatusLabel.DISCONTINUED)]
        assert warnings == []

    def test_dash_form(self):
        pairs, warnings = parse_status_pairs("aspirin - held")
        assert pairs == [("aspirin", StatusLabel.DISCONTINUED)]
        assert warnings == []

    def test_unknown_status_kept_with_warning(self):
        pairs, warnings = parse_status_pairs("- aspirin: maybe someday")
        assert pairs == [("aspirin", StatusLabel.NEITHER)]
        assert len(warnings) == 1
        assert "maybe someday" in warnings[0]

    def test_missing_status_kept_with_warning(self):
        pairs, warnings = parse_status_pairs("- aspirin")
        assert pairs == [("aspirin", StatusLabel.NEITHER)]
        assert len(warnings) == 1

    def test_status_with_trailing_parenthetical(self):
        pairs, _ = parse_status_pairs("- aspirin: stopped (per patient)")
        assert pairs == [("aspirin", StatusLabel.DISCONTINUED)]

    def test_hyphenated_name_not_split(self):
        pairs, warnings = parse_status_pairs("- co-trimoxazole: active")
        assert pairs == [("co-trimoxazole", StatusLabel.ACTIVE)]
        assert warnings == []

    def test_none_reply(self):
        pairs, warnings = parse_status_pairs("None")
        assert pairs == [] and warnings == []


class TestParseEvidence:
    def test_basic_alignment(self):
        text = '- aspirin: "takes aspirin 81 mg daily"\n- metformin: "metformin was started"'
        mapping, warnings = parse_evidence(text, ["aspirin", "metformin"])
        assert mapping == {
            "aspirin": "takes aspirin 81 mg daily",
            "metformin": "metformin was started",
        }
        assert warnings == []

    def test_smart_quotes_unwrapped(self):
        mapping, _ = parse_evidence("- aspirin: “takes ASA daily”", ["aspirin"])
        assert mapping["aspirin"] == "takes ASA daily"

    def test_quote_preserved_verbatim(self):
        mapping, _ = parse_evidence('- aspirin: "Takes  ASPIRIN, 81mg."', ["aspirin"])
        assert mapping["aspirin"] == "Takes  ASPIRIN, 81mg."

    def test_containment_alignment(self):
        mapping, _ = parse_evidence(
            '- aspirin 81 mg: "on aspirin"', ["aspirin 81 mg low dose"]
        )
        assert mapping == {"aspirin 81 mg low dose": "on aspirin"}

    def test_unknown_item_warns(self):
        mapping, warnings = parse_evidence('- warfarin: "on warfarin"', ["aspirin"])
        assert mapping == {}
        assert len(warnings) == 1

    def test_duplicate_keeps_first(self):
        text = '- aspirin: "first quote"\n- aspirin: "second quote"'
        mapping, warnings = parse_evidence(text, ["aspirin"])
        assert mapping == {"aspirin": "first quote"}
        assert any("duplicate" in w for w in warnings)

    def test_colon_inside_quote(self):
        mapping, _ = parse_evidence('- aspirin: "meds: aspirin daily"', ["aspirin"])
        assert mapping["aspirin"] == "meds: aspirin daily"

    def test_line_without_separator_warns(self):
        mapping, warnings = parse_evidence("just some text", ["aspirin"])
        assert mapping == {}
        assert len(warnings) == 1

    def test_quote_followed_by_punctuation_unwrapped(self):
        mapping, _ = parse_evidence('- aspirin: "aspirin".', ["aspirin"])
        assert mapping == {"aspirin": "aspirin"}
        span = locate_quote("Pt takes aspirin daily.", mapping["aspirin"])
        assert span.match_kind is MatchKind.EXACT

    def test_unquoted_text_keeps_trailing_punctuation(self):
        mapping, _ = parse_evidence("- aspirin: the patients'.", ["aspirin"])
        assert mapping == {"aspirin": "the patients'."}


class TestAlignKey:
    def test_exact_then_unique_containment(self):
        expected = ["aspirin 81 mg", "metformin", "metformin er"]
        assert align_key("metformin", expected) == "metformin"
        assert align_key("aspirin", expected) == "aspirin 81 mg"
        assert align_key("metf", expected) is None  # inside two keys
        assert align_key("as", expected) is None  # too short to contain
        assert align_key("warfarin", expected) is None


class TestParseVerdict:
    @pytest.mark.parametrize(
        "reply",
        ["Yes", "yes, the text supports it", "Correct.", "KEEP", "True"],
    )
    def test_positive(self, reply):
        assert parse_verdict(reply) is True

    @pytest.mark.parametrize(
        "reply",
        ["No", "no - not mentioned", "Incorrect", "remove", "false"],
    )
    def test_negative(self, reply):
        assert parse_verdict(reply) is False

    def test_first_token_wins(self):
        assert parse_verdict("No, it would be incorrect to keep it") is False
        assert parse_verdict("Yes. It is not wrong.") is True

    @pytest.mark.parametrize("reply", ["", "maybe", "I cannot tell", "the item"])
    def test_ambiguous_raises(self, reply):
        with pytest.raises(AmbiguousVerdict):
            parse_verdict(reply)


class TestParseIcdCodes:
    def test_icd10_basic(self):
        text = "Final codes: J44.1, I10 and e11.9."
        assert parse_icd_codes(text, 10) == ["J44.1", "I10", "E11.9"]

    def test_icd10_dedup_preserves_order(self):
        assert parse_icd_codes("J44.1 I10 J44.1", 10) == ["J44.1", "I10"]

    def test_icd9_basic(self):
        assert parse_icd_codes("Codes 250.00 and 401.9; also 96", 9) == [
            "250.00",
            "401.9",
            "96",
        ]

    def test_icd9_rejects_long_numbers(self):
        assert parse_icd_codes("in 1950 there were 10.555 cases", 9) == []

    def test_icd10_not_matched_inside_words(self):
        assert parse_icd_codes("abcJ44.1 xyzI10", 10) == []

    def test_icd10_placeholder_extension(self):
        assert parse_icd_codes("injury S06.0X1A noted", 10) == ["S06.0X1A"]

    def test_trailing_period(self):
        assert parse_icd_codes("The code is J44.1.", 10) == ["J44.1"]
        assert parse_icd_codes("The code is 250.0.", 9) == ["250.0"]

    def test_bad_version(self):
        with pytest.raises(ValueError):
            parse_icd_codes("x", 11)


class TestFolding:
    def test_fold_collapses_whitespace(self):
        folded, starts, ends = fold_with_offsets("Ab  \t cd")
        assert folded == "ab cd"
        assert starts == [0, 1, 2, 6, 7]
        assert ends == [1, 2, 6, 7, 8]

    def test_fold_quote_trims(self):
        assert fold_quote("  Hello   World ") == "hello world"

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_offsets_cover_text(self, text):
        folded, starts, ends = fold_with_offsets(text)
        assert len(folded) == len(starts) == len(ends)
        for k in range(len(folded)):
            assert 0 <= starts[k] < ends[k] <= len(text)
            if k:
                assert starts[k] == ends[k - 1]


class TestWindowBand:
    @pytest.mark.parametrize(
        "m,lo,hi",
        [(1, 1, 1), (4, 4, 5), (5, 4, 6), (10, 8, 12), (20, 16, 25)],
    )
    def test_band(self, m, lo, hi):
        assert window_band(m) == (lo, hi)


class TestLocateQuote:
    def test_exact(self):
        text = "Patient takes aspirin 81 mg daily."
        span = locate_quote(text, "takes aspirin")
        assert (span.match_kind, span.start, span.end) == (MatchKind.EXACT, 8, 21)
        assert text[span.start : span.end] == "takes aspirin"

    def test_exact_leftmost(self):
        text = "aspirin ... aspirin"
        span = locate_quote(text, "aspirin")
        assert span.start == 0

    def test_case_and_whitespace(self):
        text = "Patient TAKES\n   Aspirin daily."
        span = locate_quote(text, "takes aspirin")
        assert span.match_kind is MatchKind.CASE_INSENSITIVE
        assert text[span.start : span.end] == "TAKES\n   Aspirin"

    def test_fuzzy_small_typo(self):
        text = "The patient takes lisinopril for blood pressure."
        span = locate_quote(text, "takes lisinoprill for blood")
        assert span.match_kind is MatchKind.FUZZY
        assert "lisinopril" in text[span.start : span.end]

    def test_not_found(self):
        span = locate_quote("alpha beta gamma", "completely unrelated text here")
        assert span.match_kind is MatchKind.NOT_FOUND
        assert (span.start, span.end) == (0, 0)

    def test_empty_quote(self):
        assert locate_quote("text", "").match_kind is MatchKind.NOT_FOUND
        assert locate_quote("text", "   ").match_kind is MatchKind.NOT_FOUND

    def test_matches_oracle_on_handmade_cases(self):
        cases = [
            ("the cat sat on the mat", "cat sat"),
            ("the cat sat on the mat", "CAT  SAT"),
            ("the cat sat on the mat", "cat swat"),
            ("aaa bbb ccc ddd", "bbb cc"),
            ("abcdefghij", "cdofgh"),
            ("x" * 30, "xxyxx"),
            ("word one word two word three", "word two"),
        ]
        for text, quote in cases:
            span = locate_quote(text, quote)
            kind, start, end = oracle_locate(text, quote)
            assert (span.match_kind.value, span.start, span.end) == (kind, start, end), (
                text,
                quote,
            )

    @given(
        st.text(alphabet="ab ", min_size=1, max_size=80),
        st.text(alphabet="ab ", min_size=1, max_size=14),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_small_alphabet(self, text, quote):
        span = locate_quote(text, quote)
        kind, start, end = oracle_locate(text, quote)
        assert (span.match_kind.value, span.start, span.end) == (kind, start, end)

    @given(
        st.text(alphabet="abcdE .,", min_size=1, max_size=150),
        st.text(alphabet="abcdE .,", min_size=1, max_size=25),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_wider_alphabet(self, text, quote):
        span = locate_quote(text, quote)
        kind, start, end = oracle_locate(text, quote)
        assert (span.match_kind.value, span.start, span.end) == (kind, start, end)

    @given(st.text(alphabet="abcdef ghij", min_size=5, max_size=200), st.data())
    @settings(max_examples=200, deadline=None)
    def test_substring_quote_always_exact(self, text, data):
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, len(text)))
        quote = text[start:end]
        if not quote.strip():
            return
        span = locate_quote(text, quote)
        assert span.match_kind is MatchKind.EXACT
        assert text[span.start : span.end] == quote

    def test_fuzzy_span_meets_threshold(self):
        rng = random.Random(7)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta"]
        for _ in range(50):
            text = " ".join(rng.choice(words) for _ in range(30))
            a = rng.randrange(0, len(text) // 2)
            b = a + rng.randrange(10, 30)
            quote = list(text[a:b])
            # Force a couple of character edits so the exact stages miss.
            for _ in range(2):
                i = rng.randrange(len(quote))
                quote[i] = rng.choice("qxz")
            quote = "".join(quote)
            span = locate_quote(text, quote)
            if span.match_kind is MatchKind.FUZZY:
                frac = normalized_distance_of_span(text, quote, span.start, span.end)
                assert frac <= (
                    FUZZY_THRESHOLD_NUM / FUZZY_THRESHOLD_DEN
                ) or frac.numerator * FUZZY_THRESHOLD_DEN <= frac.denominator * FUZZY_THRESHOLD_NUM


_ROW_ALPHABET = "abcé中 "
_ROW_EXTRA = "xyzß."  # never in a needle


class TestEditRow:
    """The bit-vector rows against the cell-by-cell programs they replaced."""

    @given(
        st.text(alphabet=_ROW_ALPHABET, min_size=1, max_size=150),
        st.text(alphabet=_ROW_ALPHABET + _ROW_EXTRA, max_size=300),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_oracles(self, needle, haystack, data):
        assert _edit_row(needle, haystack, anchored=False) == sellers_end_distances(
            needle, haystack
        )
        # The locator's per-end refinement; a slice shorter than the band
        # (max_len below its top, or an end point near the start) included.
        end = data.draw(st.integers(0, len(haystack)))
        max_len = data.draw(st.integers(0, window_band(len(needle))[1]))
        window = haystack[max(0, end - max_len) : end][::-1]
        assert _edit_row(needle[::-1], window, anchored=True) == distances_for_end(
            needle, haystack, end, max_len
        )

    def test_note_length_row_matches_oracle(self):
        rng = random.Random(11)
        text = "".join(rng.choice("abcdefghijklmnop   ") for _ in range(8000))
        start = 5000
        quote = list(text[start : start + 72])
        for i in rng.sample(range(72), 3):
            quote[i] = "#"
        quote = "".join(quote)
        row = _edit_row(quote, text, anchored=False)
        assert row == sellers_end_distances(quote, text)
        assert row[start + 72] <= 3
        hi_len = window_band(72)[1]
        window = text[start + 72 - hi_len : start + 72][::-1]
        by_len = _edit_row(quote[::-1], window, anchored=True)
        assert by_len == distances_for_end(quote, text, start + 72, hi_len)
        assert by_len[72] == 3


class TestParserRobustness:
    @given(st.text(max_size=300))
    @settings(max_examples=300)
    def test_parsers_never_crash(self, text):
        parse_bulleted_list(text)
        parse_status_pairs(text)
        parse_evidence(text, ["aspirin", "metformin"])
        parse_icd_codes(text, 9)
        parse_icd_codes(text, 10)
        try:
            parse_verdict(text)
        except AmbiguousVerdict:
            pass

    @given(st.text(max_size=120), st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_locator_never_crashes(self, text, quote):
        span = locate_quote(text, quote)
        assert 0 <= span.start <= span.end <= max(len(text), 1) + len(quote) + 100
        if span.located:
            assert span.end <= len(text)

    @given(st.text(min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_bulleted_items_normalizable(self, text):
        for item in parse_bulleted_list(text):
            assert normalize(item)
