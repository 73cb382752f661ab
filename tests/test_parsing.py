"""Tests for model-output parsers and the quote locator."""

from __future__ import annotations

import importlib
import random
import re
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import fuzz_text
from oracles import (
    distances_for_end,
    fold_with_offsets,
    full_row_locate_quote,
    list_align_key,
    normalized_distance_of_span,
    normalizing_parse_bulleted_list,
    oracle_locate,
    regex_fold,
    per_quote_candidate_slices,
    sellers_end_distances,
    unfiltered_end_points,
)
from oracles import fold_quote as per_character_fold_quote
from selfverify import core, parsing, pipeline
from selfverify.core import MatchKind, StatusLabel, _fold_char, fold, normalize
from selfverify.parsing import (
    AmbiguousVerdict,
    FUZZY_THRESHOLD_DEN,
    FUZZY_THRESHOLD_NUM,
    PIECES,
    QuoteSearch,
    _edit_rows,
    _piece_slices,
    _scan_slices,
    align_key,
    fold_quote,
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

    def test_drops_the_items_the_normalizing_filter_drops(self):
        assert parse_bulleted_list('- .\n- ""\n- 81\n- (1) x\n- «».') == ["81", "(1) x"]
        rng = random.Random(9)
        for _ in range(20_000):
            text = fuzz_text(rng)
            assert parse_bulleted_list(text) == normalizing_parse_bulleted_list(text), text

    def test_only_items_of_droppable_characters_can_normalize_to_nothing(self):
        # `normalize` drops whitespace, list markers, quote pairs and periods.
        maybe_empty = parsing._MAYBE_EMPTY_RE.fullmatch
        assert maybe_empty("-*•·‣◦(0123456789). \t\u3000" + "".join(a + b for a, b in core._QUOTE_PAIRS.items()))
        # Casefolding makes no other character into only those.
        every = map(chr, range(0x110000))
        assert [c for c in every if not maybe_empty(c) and maybe_empty(c.casefold())] == []


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


class _CountedKey(str):
    """A str whose == comparisons are counted."""

    comparisons = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        _CountedKey.comparisons += 1
        return str.__eq__(self, other)


class TestAlignKeyLookup:
    @given(
        key=st.text("abc ", max_size=6),
        expected=st.lists(st.text("abc ", min_size=1, max_size=6), unique=True, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_list_scan(self, key, expected):
        want = list_align_key(key, expected)
        assert align_key(key, dict.fromkeys(expected)) == want
        assert align_key(key, set(expected)) == want

    @pytest.mark.parametrize("n", [500, 1000, 2000])
    def test_exact_keys_cost_one_comparison_each(self, n):
        expected = [_CountedKey(f"item {i}") for i in range(n)]
        reply = "".join(f'- item {i}: "quote {i}"\n' for i in reversed(range(n)))
        _CountedKey.comparisons = 0
        mapping, warnings = parse_evidence(reply, expected)
        assert mapping == {f"item {i}": f"quote {i}" for i in range(n)} and warnings == []
        assert _CountedKey.comparisons <= 2 * n
        _CountedKey.comparisons = 0  # the list scan it replaced: n for the last key alone
        assert list_align_key(f"item {n - 1}", expected) == f"item {n - 1}"
        assert _CountedKey.comparisons == n


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


# Whitespace beyond ' ', '\t' and '\n' (str.isspace and `re` agree on it), the
# characters whole-string lowering treats specially, and word-final sigma.
_FOLD_ALPHABET = "aZ \t\n\x1c\x1f\x85\xa0\u2028\u3000İıiIßẞΣσςΑé中"
_FOLD_WORDS = ("ΟΔΟΣ", "ΣΑΣ ", "Σ", " ", "İ", "STRAẞE", "ß", "\x1c", "\u2028", "Abc")


class TestFolding:
    def test_fold_collapses_whitespace(self):
        search = QuoteSearch("Ab  \t cd")
        assert search.folded == "ab cd"
        assert [search.original(k) for k in range(6)] == [0, 1, 2, 6, 7, 8]

    def test_fold_quote_trims(self):
        assert fold_quote("  Hello   World ") == "hello world"

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_offsets_cover_text(self, text):
        search = QuoteSearch(text)
        folded, starts, ends = fold_with_offsets(text)
        assert search.folded == folded == regex_fold(text)
        bounds = [search.original(k) for k in range(len(folded) + 1)]
        assert bounds == starts + [len(text)]
        assert bounds[1:] == ends

    @given(st.text(alphabet=_FOLD_ALPHABET, max_size=80) | st.lists(st.sampled_from(_FOLD_WORDS)).map("".join))
    @settings(max_examples=400)
    def test_fold_matches_per_character_fold(self, text):
        search = QuoteSearch(text)
        folded, starts, ends = fold_with_offsets(text)
        assert fold(text) == search.folded == folded == regex_fold(text)
        assert fold_quote(text) == per_character_fold_quote(text)
        assert [search.original(k) for k in range(len(folded) + 1)] == starts + [len(text)]

    def test_characters_that_whole_string_lower_treats_differently(self):
        # 'İ' lowers to two characters and 'Σ' to a final sigma at a word's
        # end; the fold keeps 'İ' and always gives 'σ', as each character
        # alone would.
        assert "ΟΔΟΣ İzmir".lower() != "οδοσ İzmir"
        assert fold("ΟΔΟΣ İzmir") == "οδοσ İzmir"
        assert fold("STRAẞE\x1cund\u2028\u2029 Straße") == "straße und straße"

    def test_whole_string_lower_is_the_per_character_fold(self):
        # Over every code point but 'İ' and 'Σ', one str.lower call gives each
        # character's own one-character lowercase, and lowering never makes
        # or removes whitespace; the `re` whitespace class is str.isspace.
        # So the fold's fast path is exact for any text without those two.
        every = "".join(chr(c) for c in range(0x110000) if chr(c) not in "\u0130\u03a3")
        assert every.lower() == "".join(map(_fold_char, every))
        assert [c for c in every if c.isspace()] == re.findall(r"\s", every)
        assert all(c.isspace() == c.lower().isspace() for c in every)

    def test_split_drops_the_whitespace_that_lowering_keeps(self):
        # The fold splits the lowered text: over every code point, `str.split`
        # drops exactly the `str.isspace` characters, which are what `\s`
        # matches, and lowering a character makes whitespace of none.
        every = "".join(map(chr, range(0x110000)))
        space = [c for c in every if c.isspace()]
        assert space == re.findall(r"\s", every)
        assert "".join(every.split()) == "".join(c for c in every if not c.isspace())
        assert [c for c in every if any(map(str.isspace, c.lower()))] == space


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


def _edited(rng: random.Random, text: str, alphabet: str, max_len: int) -> str:
    """A slice of `text` with a few characters substituted, sometimes upper-cased."""
    a = rng.randrange(len(text))
    quote = list(text[a : a + rng.randint(1, max_len)])
    for _ in range(rng.randint(0, 3)):
        quote[rng.randrange(len(quote))] = rng.choice(alphabet)
    quote = "".join(quote)
    return quote.upper() if rng.random() < 0.3 else quote


def _same_end_points(text: str, quotes: list[str]) -> None:
    """The filtered scan's end points equal the unfiltered scan's for every fuzzy-stage quote."""
    search, former = QuoteSearch(text), QuoteSearch(text)
    for quote in quotes:
        nq = fold_quote(quote)
        if nq and nq not in search.folded:
            assert search.end_points(nq) == unfiltered_end_points(former, nq), (text, quote)


def _same_as_former(text: str, quotes: list[str]) -> None:
    """Each quote located alone and with a shared search gives the former locator's span.

    And the end points the q-gram filter lets through are the unfiltered scan's.
    """
    search = QuoteSearch(text)
    for quote in quotes:
        expected = full_row_locate_quote(text, quote)
        assert locate_quote(text, quote) == expected, (text, quote)
        assert locate_quote(text, quote, search) == expected, (text, quote)
    _same_end_points(text, quotes)


class TestAgainstFormerLocator:
    """The fold-once, filtered, candidate-only locator against the one it replaced."""

    @given(st.text(alphabet="abcdE .,\n\t", min_size=1, max_size=150), st.data())
    @settings(max_examples=200, deadline=None)
    def test_ascii(self, text, data):
        quotes = data.draw(st.lists(st.text(alphabet="abcdE .,\n\t", min_size=1, max_size=25), max_size=4))
        seed = data.draw(st.integers(0, 2**32))
        rng = random.Random(seed)
        _same_as_former(text, quotes + [_edited(rng, text, "abcdE ", 25) for _ in range(3)])

    @given(st.text(alphabet=_FOLD_ALPHABET + "bc", min_size=1, max_size=150), st.data())
    @settings(max_examples=200, deadline=None)
    def test_non_ascii(self, text, data):
        quotes = data.draw(st.lists(st.text(alphabet=_FOLD_ALPHABET, min_size=1, max_size=25), max_size=4))
        seed = data.draw(st.integers(0, 2**32))
        rng = random.Random(seed)
        _same_as_former(text, quotes + [_edited(rng, text, _FOLD_ALPHABET, 25) for _ in range(3)])

    @pytest.mark.parametrize("unit", ["a", "ab", "abc", "aab", "a a", "abcab"])
    def test_repeated_and_periodic(self, unit):
        rng = random.Random(unit)
        text = unit * (300 // len(unit))
        quotes = ["a" * 19 + "b", "b" + "a" * 11, unit * 4 + "x", (unit * 9)[:-1] + "z", unit.upper() * 5]
        quotes += [_edited(rng, text, "abx", 40) for _ in range(6)]
        _same_as_former(text, quotes)

    def test_note_length_case(self):
        _same_as_former(*_long_note(random.Random(14)))


_NOTE_WORDS = ["patient", "denies", "chest", "pain", "Aspirin", "81", "mg", "daily,", "stable."]


def _words(rng: random.Random, count: int, vocabulary=_NOTE_WORDS) -> str:
    return "".join(rng.choice(vocabulary) + rng.choice(["  ", " ", "\n", " \t "]) for _ in range(count))


def _prose(rng: random.Random, chars: int) -> str:
    """`chars` characters of the note vocabulary."""
    text = ""
    while len(text) < chars:
        text += _words(rng, 100)
    return text[:chars]


def _long_note(rng: random.Random, words=1500, size=72, vocabulary=_NOTE_WORDS) -> tuple[str, list[str]]:
    """A note of `words` words, and quotes of `size` characters of each planned kind."""
    text = _words(rng, words, vocabulary)
    quotes = []
    for kind in ("exact", "case", "edited", "edited", "spaces", "absent"):
        a = rng.randrange(len(text) - size - 8)
        quote = text[a : a + size]
        if kind == "case":
            quote = quote.upper()
        elif kind == "edited":
            quote = _edited(random.Random(a), quote, "xyz", size)
        elif kind == "spaces":
            quote = " ".join(quote.split())
        elif kind == "absent":
            quote = "quartz harbor violin meadow lantern glacier saffron orbit canyon whisker"
        quotes.append(quote)
    return text, quotes


def _end_point_slices(folded: str, nq: str) -> list[tuple[int, int]] | None:
    """The slices `QuoteSearch.end_points` scans: m // 3 pieces at the cap m // 4."""
    return _piece_slices(folded, nq, len(nq) // 3, len(nq) // 4)


class TestAgainstUnfilteredScan:
    """Inputs on which the pieces filter narrows most quotes, through `_same_as_former`."""

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=1, max_size=400), st.data())
    @settings(max_examples=200, deadline=None)
    def test_wide_alphabet_long_quotes(self, text, data):
        # Sparse q-grams, so most quotes of 9 or more take the filtered path.
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        _same_as_former(text, [_edited(rng, text, "xyz0", 60) for _ in range(4)])

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_long_notes(self, seed):
        rng = random.Random(seed)
        letters = "abcdefghijklmnopqrstuvwxyz"
        vocabulary = ["".join(rng.choices(letters, k=rng.randint(2, 10))) for _ in range(300)]
        size = [9, 12, 40, 72, 150, 400][seed]
        text, quotes = _long_note(rng, rng.randrange(300, 1500), size, vocabulary)
        # Slices as long as the quotes, with one letter in 25 substituted.
        edits = []
        for _ in range(3):
            a = rng.randrange(len(text) - size)
            chars = list(text[a : a + size])
            for i in rng.sample(range(size), max(1, size // 25)):
                chars[i] = rng.choice("xyz")
            edits.append("".join(chars))
        _same_as_former(text, quotes + edits)
        # Most edits and the absent quote take the filtered path, so the
        # comparison above covers it.
        folded = fold(text)
        narrowed = [_end_point_slices(folded, fold_quote(q)) is not None for q in edits + quotes[5:]]
        assert sum(narrowed) >= 3 and narrowed[-1]


class TestFilterBounds:
    """Matches at the edge of the pieces lemma, in a note of sparse 3-grams.

    Random text keeps the filter from falling back, and each quote is
    placed where the filter has the least room: exactly j - c pieces left
    whole, the longest window, whole pieces whose implied ends lie c apart,
    or pieces the quote holds several times. Each is also at the edge of
    the q-gram lemma that the former filter used.
    """

    M = 72
    K = M // 4

    def _check(self, placed: str, quote: str) -> list[tuple[int, int]]:
        rng = random.Random(placed)
        letters = "abcdefghijklmnopqrstuvw"  # never x, y or z
        text = "".join(rng.choices(letters, k=1500)) + placed + "".join(rng.choices(letters, k=1500))
        assert _end_point_slices(text, quote)
        ends = QuoteSearch(text).end_points(quote)
        assert ends == unfiltered_end_points(QuoteSearch(text), quote)
        return [(end - 1500, dist) for end, dist in ends]

    def test_substitutions_leave_exactly_t_q_grams(self):
        # K substitutions three apart, none within two of either end,
        # destroy 3K of the M - 2 q-grams, so t = M - 2 - 3K are left; and
        # one in each of the first K of the M // 3 pieces, so j - K are.
        quote = "".join(random.Random(1).choices("abcdefghijklmnopqrstuvw", k=self.M))
        placed = "".join("x" if i % 3 == 2 and i < 3 * self.K else c for i, c in enumerate(quote))
        assert sum(c == "x" for c in placed) == self.K
        assert (self.M, self.K) in self._check(placed, quote)

    def test_insertions_make_the_longest_window(self):
        # K extra letters in the note: the alignment is M + K long and its
        # end is the last candidate end.
        quote = "".join(random.Random(2).choices("abcdefghijklmnopqrstuvw", k=self.M))
        placed = "".join(c + "y" if i % 4 == 1 else c for i, c in enumerate(quote))
        assert len(placed) == self.M + self.K
        assert (self.M + self.K, self.K) in self._check(placed, quote)

    def test_insertions_spread_the_whole_pieces_by_the_cap(self):
        # One letter inserted inside each of the K middle pieces: the first
        # three and the last three pieces stay whole, exactly j - K, and
        # imply ends K apart.
        quote = "".join(random.Random(3).choices("abcdefghijklmnopqrstuvw", k=self.M))
        pieces = [quote[3 * i : 3 * i + 3] for i in range(self.M // 3)]
        placed = "".join(p[:2] + "y" + p[2] if 3 <= i < 3 + self.K else p for i, p in enumerate(pieces))
        assert len(placed) == self.M + self.K and len(pieces) - self.K == 6
        assert (self.M + self.K, self.K) in self._check(placed, quote)

    def test_repeated_q_grams_count_as_often_as_the_quote_holds_them(self):
        # Four distinct 3-grams, each 17 or 18 times in the quote, and four
        # distinct pieces, each six times: distinct pieces are counted by
        # their place in the quote.
        quote = ("bdfh" * 18)[: self.M]
        placed = "".join("z" if i % 4 == 2 else c for i, c in enumerate(quote))
        assert (self.M, self.K) in self._check(placed, quote)


def _fed_to_edit_rows(monkeypatch) -> list[tuple[str, int, bool]]:
    """(needle, haystack characters, anchored) of every `_edit_rows` call from now on."""
    calls: list[tuple[str, int, bool]] = []
    scan = parsing._edit_rows

    def counted(needle, haystack, anchored, cap):
        calls.append((needle, len(haystack), anchored))
        return scan(needle, haystack, anchored, cap)

    monkeypatch.setattr(parsing, "_edit_rows", counted)
    monkeypatch.setattr(oracles, "_edit_rows", counted)
    return calls


def _free_start_chars(calls: list[tuple[str, int, bool]]) -> int:
    return sum(chars for _, chars, anchored in calls if not anchored)


def _longnotes(monkeypatch):
    """The benchmark's long_notes module."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmark"))
    return importlib.import_module("longnotes")


def _long_notes(monkeypatch):
    """The seed-0 long_notes corpus, and one pipeline pass over it."""
    longnotes = _longnotes(monkeypatch)
    from selfverify.pipeline import PipelineConfig, run_batch

    notes = longnotes.make_corpus(0)
    documents = [note.document for note in notes]

    def one_pass():
        results = run_batch(longnotes.backend(notes), PipelineConfig(), documents, seeds=[0], workers=1)
        return [(r.pre_prune, r.final, r.pruned) for r in results]

    return notes, one_pass


class TestFilterWork:
    """What the filter saves, and that it never scans more than the scan it narrowed."""

    def test_long_notes_pass_scans_a_third_or_less(self, monkeypatch):
        notes, one_pass = _long_notes(monkeypatch)
        documents = [note.document for note in notes]
        calls = _fed_to_edit_rows(monkeypatch)
        filtered = one_pass()
        filtered_chars = _free_start_chars(calls)
        calls.clear()
        # The former locator: no pieces step, no filter.
        monkeypatch.setattr(parsing, "_piece_slices", lambda folded, nq, j, c: None)
        monkeypatch.setattr(QuoteSearch, "end_points", unfiltered_end_points)
        assert one_pass() == filtered
        unfiltered_chars = _free_start_chars(calls)
        # One whole-fold scan for each note's edited quote and its missing one.
        assert unfiltered_chars == 2 * sum(len(fold(document.text)) for document in documents)
        assert 3 * filtered_chars <= unfiltered_chars

    def test_quotes_the_filter_cannot_narrow_scan_the_whole_fold(self, monkeypatch):
        text = "ab" * 2000 + " the patient is stable " + "ab" * 2000
        # Two short quotes and one whose pieces fill the note: none can be
        # narrowed, so each gets one scan of the whole fold. One quote can,
        # and gets its own slice scans.
        quotes = ["abxab", "baaba", "abab" * 8 + "x", "the patienx is stable"]
        search = QuoteSearch(text)
        assert [_end_point_slices(search.folded, fold_quote(q)) for q in quotes[:3]] == [None] * 3
        calls = _fed_to_edit_rows(monkeypatch)
        for quote in quotes:
            locate_quote(text, quote, search)
        whole = [c for c in calls if not c[2] and c[1] == len(search.folded)]
        assert whole == [(fold_quote(q), len(search.folded), False) for q in quotes[:3]]
        assert locate_quote(text, quotes[3], search).match_kind is MatchKind.FUZZY

    @pytest.mark.parametrize(
        "name",
        ["repeated_letter", "long_absent_quote", "short_absent_quote"],
    )
    def test_worst_cases_scan_no_more_and_count_linearly(self, monkeypatch, name):
        rng = random.Random(name)
        text, quote = {
            "repeated_letter": lambda: ("a" * 20000, "a" * 119 + "b"),
            "long_absent_quote": lambda: (_prose(rng, 50000), _prose(rng, 4000)),
            "short_absent_quote": lambda: (_prose(rng, 20000), _prose(rng, 120)),
        }[name]()
        nq = fold_quote(quote)
        calls = _fed_to_edit_rows(monkeypatch)
        ends = QuoteSearch(text).end_points(nq)
        filtered_chars = _free_start_chars(calls)
        calls.clear()
        assert ends == unfiltered_end_points(QuoteSearch(text), nq)
        assert filtered_chars <= _free_start_chars(calls)
        # The filter's Python-level work, `zip` items drawn and `str.find`
        # and `str.startswith` calls, is at most one per character of the
        # fold and of the quote, whatever m is.
        drawn = [0]

        def counted_zip(*iterables):
            for item in zip(*iterables):
                drawn[0] += 1
                yield item

        monkeypatch.setattr(parsing, "zip", counted_zip, raising=False)
        folded = _CountedText(fold(text))
        _end_point_slices(folded, nq)
        assert drawn[0] + sum(folded.calls.values()) <= len(folded) + len(nq)

    def test_long_notes_pass_makes_no_q_gram_pass_and_refines_best_first(self, monkeypatch):
        notes, one_pass = _long_notes(monkeypatch)
        located = []
        locate = pipeline.locate_quote

        def recorded(text, quote, search=None):
            located.append((text, quote, locate(text, quote, search)))
            return located[-1][2]

        passes = [0]

        def counted_zip(*iterables):
            passes[0] += len(iterables) == 3
            return zip(*iterables)

        monkeypatch.setattr(pipeline, "locate_quote", recorded)
        monkeypatch.setattr(parsing, "zip", counted_zip, raising=False)
        calls = _fed_to_edit_rows(monkeypatch)
        one_pass()
        fuzzy_stage = [
            (text, quote, span)
            for text, quote, span in located
            if span.match_kind in (MatchKind.FUZZY, MatchKind.NOT_FOUND)
        ]
        # Two quotes of 9 or more per evidence step reach the fuzzy stage.
        # The pieces step settles the edited one, and the absent one stops
        # at the m // 3 pieces' gap check: no 3-gram pass, where the q-gram
        # filter made 6, and a pass per quote 12.
        assert sum(len(fold_quote(quote)) >= 9 for _, quote, _ in fuzzy_stage) == 12
        assert passes[0] == 0
        # One slice scan per edited quote, and none for the absent ones: 6
        # scans over 522 characters, where the q-gram filter alone made 47
        # over 7,109.
        free_start = [chars for _, chars, anchored in calls if not anchored]
        assert len(free_start) <= 8 and sum(free_start) <= 1000
        # Best-first refinement: at most one anchored row per fuzzy-stage
        # quote (107 in position order), with the former locator's spans.
        assert sum(anchored for *_, anchored in calls) <= 12
        for text, quote, span in fuzzy_stage:
            assert span == full_row_locate_quote(text, quote), quote
        spans = {(text, quote): span for text, quote, span in located}
        for note in notes:
            for q in note.quotes:
                span = spans[note.document.text, q.quote]
                assert (span.match_kind.value, span.start, span.end) == (q.kind, q.start, q.end)

    def test_dense_quotes_read_no_position(self, monkeypatch):
        # Quotes of more than 192 characters find their pieces by one 3-gram
        # pass. Dense quotes are decided by their flag count; only the
        # sparse quote's flags are searched for positions.
        rng = random.Random(11)
        middle = "".join(rng.choices("cdefghijklmnopqrstuvw", k=600))
        text = fold("ab" * 2000 + middle + "ab" * 2000)
        dense = ["abab" * 50 + "x", "ba" * 120 + "y"]
        sparse = fold_quote(_with_edits(rng, middle[100:400], 20, "xyz"))
        read: list[bytes] = []
        finditer = re.finditer

        def counted(pattern, string, *args):
            if isinstance(string, bytes):
                read.append(string)
            return finditer(pattern, string, *args)

        monkeypatch.setattr(re, "finditer", counted)
        for nq in dense + [sparse]:
            assert len(nq) // 3 > parsing._FIND_LOOP_PIECES
            read.clear()
            slices = _end_point_slices(text, nq)
            assert len(read) == (slices is not None) == (nq == sparse)
            ends = unfiltered_end_points(QuoteSearch(text), nq)
            assert ends and (slices is None or _scan_slices(text, nq, slices, len(nq) // 4) == ends)

    def test_repeated_letter_refines_no_more_rows(self, monkeypatch):
        # Every end point past the 90th is at distance 1, so best-first
        # order still refines each of them: this worst case stays open.
        text, quote = "a" * 20000, "a" * 119 + "b"
        ends = QuoteSearch(text).end_points(quote)
        calls = _fed_to_edit_rows(monkeypatch)
        span = locate_quote(text, quote)
        assert (span.match_kind, span.start, span.end) == (MatchKind.FUZZY, 0, 119)
        assert sum(anchored for *_, anchored in calls) <= len(ends) == 19911


class TestSharedQGramPass:
    """The pieces filter that replaced the q-gram pass, quote by quote.

    Against the unfiltered scan for its end points, and against the q-gram
    filter (`oracles.per_quote_candidate_slices`) for what it narrows.
    """

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_gap_check_keeps_the_group_sweep_slices(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        vocabulary = ["".join(rng.choices("abcdefghijklmnopqrstuvw", k=rng.randint(2, 8))) for _ in range(40)]
        folded = fold(_words(rng, data.draw(st.integers(5, 400)), vocabulary))
        # Edited slices, and words of the note in another order: their
        # pieces occur often, but seldom close together.
        kind = data.draw(st.sampled_from(["edited", "words", "absent"]))
        if kind == "edited":
            nq = fold_quote(_edited(rng, folded, "xyz", 80))
        elif kind == "words":
            nq = fold_quote(_words(rng, rng.randint(2, 12), vocabulary))
        else:
            nq = "".join(rng.choices("xyz ", k=rng.randint(9, 60)))
        if len(nq) >= 9:
            # The gap check returns no slice only where the group sweep
            # would keep no hit, and the slices give the unfiltered scan's
            # end points.
            slices = _end_point_slices(folded, nq)
            with pytest.MonkeyPatch.context() as patched:
                patched.setattr(parsing, "sub", lambda a, b: 0)
                assert _end_point_slices(folded, nq) == slices
            ends = _edit_rows(nq, folded, False, len(nq) // 4)
            assert slices is None or _scan_slices(folded, nq, slices, len(nq) // 4) == ends

    def test_absent_long_notes_quotes_stop_at_the_gap_check(self, monkeypatch):
        notes, _ = _long_notes(monkeypatch)
        quotes = [
            (fold(note.document.text), fold_quote(q.quote))
            for note in notes
            for q in note.quotes
            if q.kind == "not_found" and len(fold_quote(q.quote)) >= 9
        ]
        # Enough of each quote's pieces occur for a group, but no j - c of
        # their hits lie close enough, so the group sweep never starts: one
        # `enumerate`, over the pieces, per quote.
        assert len(quotes) == 6
        for folded, nq in quotes:
            hits = sum(folded.count(nq[i * len(nq) // 24 : (i + 1) * len(nq) // 24]) for i in range(24))
            assert len(nq) == 72 and hits >= 24 - 18
        loops = [0]

        def counted_enumerate(iterable):
            loops[0] += 1
            return enumerate(iterable)

        monkeypatch.setattr(parsing, "enumerate", counted_enumerate, raising=False)
        for folded, nq in quotes:
            assert _end_point_slices(folded, nq) == []
            assert per_quote_candidate_slices(folded, nq) == []
        assert loops == [len(quotes)]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_quote_gets_its_own_slices(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        letters = "abcdefghijklmnopqrstuvw"
        vocabulary = ["".join(rng.choices(letters, k=rng.randint(2, 8))) for _ in range(40)]
        text = _words(rng, data.draw(st.integers(5, 400)), vocabulary)
        if data.draw(st.booleans()):
            text += "ab" * data.draw(st.integers(1, 500))
        text = fold(text)
        quotes: list[str] = []
        # Steps of 1 to 10 quotes, some sharing text with an earlier one.
        size = data.draw(st.integers(1, 10))
        kinds = st.sampled_from(["edited", "shared", "same", "short", "dense", "absent"])
        for kind in data.draw(st.lists(kinds, min_size=size, max_size=size)):
            if kind == "edited" or not quotes:
                quotes.append(_edited(rng, text, "xyz", 80))
            elif kind == "shared":
                quotes.append(_edited(rng, rng.choice(quotes), "xyz", 80))
            elif kind == "same":
                quotes.append(rng.choice(quotes))
            elif kind == "short":
                quotes.append(_edited(rng, text, "xyz", 8))
            elif kind == "dense":
                quotes.append(("ab" * 40)[: rng.randint(9, 80)] + "x")
            else:
                quotes.append("".join(rng.choices("xyz ", k=rng.randint(9, 60))))
        _same_end_points(text, quotes)

    def test_a_step_of_ten_quotes(self):
        rng = random.Random(3)
        vocabulary = ["".join(rng.choices("abcdefghijklmnopqrstuvw", k=rng.randint(2, 8))) for _ in range(300)]
        text = fold(_words(rng, 1500, vocabulary) + "ab" * 3000)
        quotes = [_edited(random.Random(i), text[900 * i : 900 * i + 72], "xyz", 72) for i in range(6)]
        quotes += [quotes[0], "ab" * 30 + "x", "short", "xyzzy quartz oxyz"]
        slices = [_end_point_slices(text, q) for q in quotes]
        assert [s is None for s in slices] == [False] * 7 + [True, True, False]
        assert slices[-1] == []
        _same_end_points(text, quotes)
        # Over the step, the pieces leave fewer characters to scan than the
        # q-gram filter did (1,154 against 1,760); not each quote does.
        former = [per_quote_candidate_slices(text, q) for q in quotes]
        assert [s is None for s in former] == [s is None for s in slices]
        covered = [sum(hi - lo for lo, hi in s or []) for s in slices]
        assert sum(covered) < sum(sum(hi - lo for lo, hi in s or []) for s in former)


class TestSeveralFuzzyQuotesPerStep:
    """Steps of several quotes far from verbatim in one repetitive note.

    Each is a 72-character passage of a long_notes note with 4 to 10
    characters replaced by letters, or 72 characters of the note's own
    words that the note does not hold. The pieces step settles almost
    none of them, so nearly all go on to m // 3 pieces and then scan
    slices or the whole fold: the case that scans of several quotes packed
    into the same ints once served.
    """

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_each_quote_scans_alone_and_matches_the_former_locator(self, monkeypatch, seed):
        [note] = _longnotes(monkeypatch).make_corpus(seed, n_notes=1)
        text = note.document.text
        rng = random.Random(seed)
        words = text.split()
        quotes = []
        for _ in range(rng.randint(5, 8)):
            if rng.random() < 0.25:
                quotes.append(" ".join(rng.choice(words) for _ in range(20))[:72])
                continue
            a = rng.randrange(len(text) - 72)
            chars = list(text[a : a + 72])
            for i in rng.sample(range(72), rng.randint(4, 10)):
                chars[i] = rng.choice([c for c in "abcdefghijklmnopqrstuvwxyz" if c != chars[i].lower()])
            quotes.append("".join(chars))
        calls = _fed_to_edit_rows(monkeypatch)
        search = QuoteSearch(text)
        for quote in quotes:
            calls.clear()
            span = locate_quote(text, quote, search)
            assert span == full_row_locate_quote(text, quote), quote
            # Its own free-start scans, and every row of this quote alone:
            # its fold, or reversed.
            nq = fold_quote(quote)
            assert any(not anchored for *_, anchored in calls), quote
            assert {needle for needle, *_ in calls} <= {nq, nq[::-1]}, quote


def _quote_kinds(rng: random.Random, text: str, per_kind: int, m: int = 72) -> dict[str, list[str]]:
    """Quotes of `text` that the benchmark does not plan, `per_kind` of each kind.

    Absent quotes of the note's own words, the words of a passage shuffled,
    and passages with 4, 10 or 4 to m // 4 letters substituted.
    """
    folded, words = fold(text), text.split()

    def substituted(low: int, high: int) -> str:
        a = rng.randrange(len(text) - m)
        chars = list(text[a : a + m])
        for i in rng.sample(range(m), rng.randint(low, high)):
            chars[i] = rng.choice([c for c in "abcdefghijklmnopqrstuvwxyz" if c != chars[i].lower()])
        return "".join(chars)

    def shuffled() -> str:
        a = rng.randrange(len(text) - m)
        passage = text[a : a + m].split()
        rng.shuffle(passage)
        return " ".join(passage)

    kinds = {
        "own_words": lambda: " ".join(rng.choice(words) for _ in range(20))[:m],
        "shuffled": shuffled,
        "substitutions_4": lambda: substituted(4, 4),
        "substitutions_10": lambda: substituted(10, 10),
        "substitutions_4_to_m_4": lambda: substituted(4, m // 4),
    }
    quotes: dict[str, list[str]] = {}
    for kind, make in kinds.items():
        quotes[kind] = []
        while len(quotes[kind]) < per_kind:
            quote = make()
            if fold_quote(quote) not in folded:
                quotes[kind].append(quote)
    return quotes


class TestQuoteKindCorpus:
    """Quotes the benchmark does not plan, on long_notes notes at seeds 0, 3 and 7.

    Every quote's end points are the unfiltered scan's, and per kind the
    locator scans no more free-start characters than it did with the
    q-gram filter (`oracles.per_quote_candidate_slices`) at the cap m // 4.
    """

    def test_end_points_and_characters_scanned_per_kind(self, monkeypatch):
        longnotes = _longnotes(monkeypatch)
        calls = _fed_to_edit_rows(monkeypatch)

        def q_gram_end_points(self, nq):
            slices = per_quote_candidate_slices(self.folded, nq)
            if slices is None:
                slices = [(0, len(self.folded))]
            return _scan_slices(self.folded, nq, slices, len(nq) // 4)

        scanned, former = Counter(), Counter()
        for seed in (0, 3, 7):
            for note in longnotes.make_corpus(seed, n_notes=2):
                text = note.document.text
                for kind, quotes in _quote_kinds(random.Random(seed), text, 6).items():
                    for quote in quotes:
                        nq = fold_quote(quote)
                        assert QuoteSearch(text).end_points(nq) == unfiltered_end_points(QuoteSearch(text), nq)
                        calls.clear()
                        span = locate_quote(text, quote, QuoteSearch(text))
                        scanned[kind] += _free_start_chars(calls)
                        with monkeypatch.context() as patched:
                            patched.setattr(QuoteSearch, "end_points", q_gram_end_points)
                            calls.clear()
                            assert locate_quote(text, quote, QuoteSearch(text)) == span, quote
                            former[kind] += _free_start_chars(calls)
        assert len(scanned) == 5
        for kind in scanned:
            assert scanned[kind] <= former[kind], (kind, scanned[kind], former[kind])


def _with_edits(rng: random.Random, text: str, edits: int, alphabet: str) -> str:
    """`text` with `edits` random insertions, deletions and substitutions from `alphabet`."""
    chars = list(text)
    for _ in range(edits):
        i = rng.randrange(len(chars) + 1)
        kind = rng.randrange(3) if i < len(chars) else 0
        if kind == 0:
            chars.insert(i, rng.choice(alphabet))
        elif kind == 1:
            chars[i] = rng.choice(alphabet)
        else:
            del chars[i]
    return "".join(chars)


class _CountedText(str):
    """A str whose `find` and `count` calls are counted."""

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.calls = Counter()
        return self

    def find(self, *args):
        self.calls["find"] += 1
        return str.find(self, *args)

    def count(self, *args):
        self.calls["count"] += 1
        return str.count(self, *args)


class TestPiecesStep:
    """The exact-pieces step against the former locator, and the work it saves."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_former_locator(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        alphabet = data.draw(st.sampled_from(["abcdefghijklmnopqrstuvw ", "abc ", _FOLD_ALPHABET + "bc"]))
        size = data.draw(st.integers(40, 1000))
        if data.draw(st.booleans()):
            unit = "".join(rng.choices(alphabet, k=rng.randint(1, 6)))
            text = _with_edits(rng, unit * (size // len(unit) + 1), rng.randint(0, 12), alphabet)
        else:
            text = "".join(rng.choices(alphabet, k=size))
        # Slices of 24 characters or more, with 0 to m // 4 edits.
        quotes = []
        for _ in range(3):
            m = rng.randint(24, 80)
            a = rng.randrange(max(1, len(text) - m))
            quotes.append(_with_edits(rng, text[a : a + m], rng.randint(0, m // 4), alphabet + "xyz"))
        _same_as_former(text, quotes)
        # Where the pieces step runs (m // 4 above PIECES - 1), it gives the
        # end points within PIECES - 1, in the order refinement takes them.
        folded = fold(text)
        for quote in quotes:
            nq = fold_quote(quote)
            runs = len(nq) // 4 > PIECES - 1 and nq not in folded
            slices = _piece_slices(folded, nq, PIECES, PIECES - 1) if runs else None
            if slices is not None:
                pieces = sorted(_scan_slices(folded, nq, slices, PIECES - 1), key=itemgetter(1))
                ends = unfiltered_end_points(QuoteSearch(text), nq)
                assert pieces == sorted([e for e in ends if e[1] < PIECES], key=itemgetter(1))

    def test_near_verbatim_quote_makes_no_q_gram_pass(self, monkeypatch):
        rng = random.Random(20)
        vocabulary = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 10))) for _ in range(300)]
        text = _words(rng, 3000, vocabulary)[:20000]
        passage = text[9000:9072]
        # Two substitutions, which the pieces step settles; and twelve, one
        # in each sixth of the quote, which fall back to m // 3 pieces.
        # Neither makes a 3-gram pass, where the q-gram filter made one for
        # the second.
        near = "".join("0" if i in (10, 50) else c for i, c in enumerate(passage))
        far = "".join("0" if i % 6 == 3 else c for i, c in enumerate(passage))
        passes = [0]

        def counted_zip(*iterables):
            passes[0] += len(iterables) == 3
            return zip(*iterables)

        monkeypatch.setattr(parsing, "zip", counted_zip, raising=False)
        calls = _fed_to_edit_rows(monkeypatch)
        for quote in (near, far):
            passes[0] = 0
            calls.clear()
            span = locate_quote(text, quote)
            assert span.match_kind is MatchKind.FUZZY and span == full_row_locate_quote(text, quote)
            assert passes[0] == 0
            if quote is near:
                # One slice around the end the pieces imply, and one row.
                nq = fold_quote(near)
                k = PIECES - 1
                assert [c for c in calls if not c[2]] == [(nq, len(nq) + 3 * k, False)]
                assert sum(anchored for *_, anchored in calls) == 1

    def test_dense_pieces_are_decided_by_their_count(self):
        # The repeated-letter worst case: each piece occurs about a
        # thousand times, so the `str.find` loop of the first piece stops
        # once its hits pass n / (2 (m + 3k)), 74 here, and sends the quote
        # on before any other piece is looked for.
        folded = _CountedText("a" * 20000)
        nq = "a" * 119 + "b"
        assert _piece_slices(folded, nq, PIECES, PIECES - 1) is None
        assert folded.calls == {"find": 20000 // (2 * (len(nq) + 3 * (PIECES - 1))) + 1}
        # A sparse quote looks for each occurrence once, and one more time
        # per piece to find that there are no more.
        rng = random.Random(6)
        folded = _CountedText("".join(rng.choices("abcdefghijklmnopqrstuvw", k=5000)))
        nq = folded[1000:1072]
        slices = _piece_slices(folded, nq, PIECES, PIECES - 1)
        assert min(_scan_slices(folded, nq, slices, PIECES - 1), key=itemgetter(1)) == (1072, 0)
        assert folded.calls == {"find": 6 + 6}


_ROW_ALPHABET = "abcé中 "
_ROW_EXTRA = "xyzß."  # never in a needle


def _within(row: list[int], cap: int) -> list[tuple[int, int]]:
    """The (end point, distance) pairs of a full oracle row that `_edit_rows` keeps."""
    return [(j, d) for j, d in enumerate(row) if j and d <= cap]


class TestEditRow:
    """The bit-vector rows against the cell-by-cell programs they replaced."""

    @given(
        st.text(alphabet=_ROW_ALPHABET, min_size=1, max_size=150),
        st.text(alphabet=_ROW_ALPHABET + _ROW_EXTRA, max_size=300),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_oracles(self, needle, haystack, data):
        # Caps from no end point passing (cap 0 on a text without the
        # needle) to every end point passing.
        cap = data.draw(st.integers(0, len(needle)))
        assert _edit_rows(needle, haystack, False, cap) == _within(sellers_end_distances(needle, haystack), cap)
        # The locator's per-end refinement; a slice shorter than the band
        # (max_len below its top, or an end point near the start) included.
        end = data.draw(st.integers(0, len(haystack)))
        max_len = data.draw(st.integers(0, window_band(len(needle))[1]))
        window = haystack[max(0, end - max_len) : end][::-1]
        assert _edit_rows(needle[::-1], window, True, cap) == _within(
            distances_for_end(needle, haystack, end, max_len), cap
        )

    def test_note_length_row_matches_oracle(self):
        rng = random.Random(11)
        text = "".join(rng.choice("abcdefghijklmnop   ") for _ in range(8000))
        start = 5000
        quote = list(text[start : start + 72])
        for i in rng.sample(range(72), 3):
            quote[i] = "#"
        quote = "".join(quote)
        hits = _edit_rows(quote, text, False, 72 // 4)
        assert hits == _within(sellers_end_distances(quote, text), 72 // 4)
        assert dict(hits)[start + 72] <= 3
        hi_len = window_band(72)[1]
        window = text[start + 72 - hi_len : start + 72][::-1]
        by_len = _edit_rows(quote[::-1], window, True, hi_len)
        assert by_len == _within(distances_for_end(quote, text, start + 72, hi_len), hi_len)
        assert dict(by_len)[72] == 3


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
