"""Independent reference implementations used to check the production code.

These deliberately share only the *definitions* (folding rules, window band,
threshold arithmetic) with the production locator; the search itself is
organized differently: plain brute-force scans for the exact and loose
stages, and a vectorized full-window dynamic program for the fuzzy stage,
against the production code's semi-global alignment with per-end
refinement.

`sellers_end_distances` and `distances_for_end` are the locator's former
cell-by-cell dynamic programs for its two rows (free-start end points and
the anchored per-end refinement), kept as the reference for the
bit-vector rows that replaced them.

`fold_with_offsets`, `fold_quote`, `full_edit_row` and
`full_row_locate_quote` are the locator's former fold and search, bodies
unchanged: a per-character fold that builds two offset lists as long as
the text, and rows that keep a score for every text position. They are
the reference for the fold made with `str.lower` and one `re`
substitution, mapped back by bisecting whitespace runs, and for the scan
that keeps only candidate end points.

`unfiltered_end_points` is `parsing.QuoteSearch.end_points` without a
filter: one free-start scan of the whole fold for `nq`. It is the
reference for the scan that reads only the quote's candidate slices.

`per_quote_candidate_slices` is the q-gram filter that `end_points` used
before the pieces filter, body unchanged: one pass over the fold, then
the sweep of every flagged position. It is the reference that the pieces
filter's work is measured against: per kind of quote, the locator may
scan no more characters than with it.

`regex_fold` is `core.fold` as it was, body unchanged: `str.lower` and
one `re` substitution of each whitespace run. It is the reference for the
fold that splits and joins at C speed.

`normalizing_parse_bulleted_list` is `parsing.parse_bulleted_list` as it
was, body unchanged: it normalises every item only to drop the empty
ones. It is the reference for the emptiness test that normalises only
items made of characters that `normalize` can drop.

`fixpoint_normalize` is `core.normalize` as it was, with its one-pass
helper, bodies unchanged: every pass collapses and rejoins the whole
value and strips one list marker or quote pair, until nothing changes.
It is the reference for the pass that strips whole runs on offsets.

`linear_mock_complete` is the scripted backend's former call, which tests
every script step in order, kept as the reference for the substring index
that now picks the candidate steps. It tests each step with
`substring_matches`, the former `ScriptStep.matches`, body unchanged: one
`in` test of the whole prompt per substring of the matcher. That is the
reference for deciding a step by membership in the set of substrings one
scan of the prompt finds.

`per_update_cache_key` is `backend.cache_key` as it was, body unchanged:
one `hashlib` update through a closure for each tag, NUL, length and
value. It is the reference for the key hashed in one call over the joined
fields.

`per_key_filter` is the scripted backend's former key filter, body
unchanged: one `in` test of the whole prompt for every index key. It is
the reference for the one regex scan that finds the keys a prompt holds.

`list_align_key` is `parsing.align_key` as it was, body unchanged: the
exact test scans a list of the expected keys. It is the reference for
the exact hit looked up in a dict built once per reply.

`pool_map_run_batch` is the batch runner's former scheduler, which starts
`workers` document threads for every batch, kept as the reference for the
one that runs documents on the calling thread until a model call is slow.

`unmemoised_normalize` is `core.normalize`'s body without its memo, the
reference for the memoised function.

`aggregate_variants` is the former table builder, body unchanged: it took
each variant's per-seed macro averages, grouped by its callers, and spelled
out every column. It is the reference for `evaluation.score_run`.

`_RESULT_FIELDS` to `_check_result` are the checks `data.load_run` made of
a results line before the run-record schema, bodies unchanged: the fields
that `evaluate` and the report read, each with its JSON types. They are
the reference for the schema's checks: wherever they refuse a line,
`load_run` refuses it with the same message.

`constructed_chat` is `backend.LlmRequest.chat` as it was, body unchanged:
it goes through the constructor, whose text joined every message, as
`joined_request_text` does. They are the reference for the chat request
whose fields are set directly and for the one-message text taken unjoined.

`per_call_render` is `ScriptStep.render` as it was, body unchanged: a new
`LlmResponse` for every call. It is the reference for the reply built once
per text.

`new_origin` is `Origin.original()`, `omission(i)` and `megaprompt()` as
they were: a new instance for every call. It is the reference for the
shared instances those now return.

`dict_update_evolve` and `dict_update_from_raw` are `ExtractedItem.evolve`
and `from_raw` as they were, bodies unchanged: a set difference of the
changed keys, and one `__dict__.update` that gives both items an instance
dict. They are the reference for the items whose fields are set directly.
"""

from __future__ import annotations

import hashlib
import re
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from selfverify.backend import FinishReason, LlmRequest, LlmResponse, Message, ScriptExhausted
from selfverify.core import EvidenceSpan, ExtractedItem, MatchKind, Origin, _fold_char, normalize
from selfverify.evaluation import AblationRow, MacroMetrics, sem
from selfverify.parsing import (
    _BULLET_LINE_RE,
    QuoteSearch,
    _edit_rows,
    _is_sentinel,
    passes_threshold,
    window_band,
)
from selfverify.pipeline import ExtractionPipeline

_BIG = 10**6


def fold_with_offsets(text: str) -> tuple[str, list[int], list[int]]:
    """Length-tracked fold: lowercase chars, collapse whitespace runs.

    Returns (folded, starts, ends) where folded[k] came from the original
    slice [starts[k], ends[k]). A whitespace run becomes one ' ' covering
    the whole run. The locator's former fold, kept as the reference for
    `core.fold` and `parsing.QuoteSearch`.
    """
    folded: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            j = i
            while j < n and text[j].isspace():
                j += 1
            folded.append(" ")
            starts.append(i)
            ends.append(j)
            i = j
        else:
            folded.append(_fold_char(text[i]))
            starts.append(i)
            ends.append(i + 1)
            i += 1
    return "".join(folded), starts, ends


def fold_quote(quote: str) -> str:
    """Fold a quote with the same rules as the document, trimmed at the ends."""
    folded, _, _ = fold_with_offsets(quote)
    return folded.strip()


def full_edit_row(needle: str, haystack: str, anchored: bool) -> list[int]:
    """Last row of the edit-distance table of `needle` against `haystack`.

    row[j] is the distance of `needle` to the best substring ending at j
    (free start, the standard semi-global alignment) or, when `anchored`,
    to haystack[:j]; j runs from 0 to len(haystack). Computed with Myers'
    bit-vectors (Myers 1999; Hyyro 2003 for the score column) on Python
    ints: one pass over the haystack of about ten integer operations per
    character, whatever the needle's length. Anchoring shifts a carry of 1
    into the horizontal-positive vector, since row 0 is then 0, 1, 2, ...
    rather than all zeros. `needle` must not be empty.
    """
    m = len(needle)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    peq: dict[str, int] = {}
    for i, c in enumerate(needle):
        peq[c] = peq.get(c, 0) | (1 << i)
    pv, mv, score, carry = mask, 0, m, int(anchored)
    row = [m]
    for c in haystack:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        row.append(score)
        ph = (ph << 1) | carry
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return row


def full_row_locate_quote(text: str, quote: str) -> EvidenceSpan:
    """Resolve a quote to character offsets in `text`.

    Stage 1: exact substring (leftmost). Stage 2: leftmost match ignoring
    case and whitespace runs. Stage 3: fuzzy search minimizing
    editdist / max(|quote|, |window|) over windows within the length band,
    accepted only at or under the 1/5 threshold; ties prefer the smaller
    normalized distance, then leftmost start, then smallest end. Offsets
    always index the original text.
    """
    if not quote or not quote.strip():
        return EvidenceSpan.not_found(quote)

    pos = text.find(quote)
    if pos >= 0:
        return EvidenceSpan(quote=quote, start=pos, end=pos + len(quote), match_kind=MatchKind.EXACT)

    folded, starts, ends = fold_with_offsets(text)
    nq = fold_quote(quote)
    if not nq:
        return EvidenceSpan.not_found(quote)
    k = folded.find(nq)
    if k >= 0:
        return EvidenceSpan(
            quote=quote,
            start=starts[k],
            end=ends[k + len(nq) - 1],
            match_kind=MatchKind.CASE_INSENSITIVE,
        )

    m = len(nq)
    n = len(folded)
    lo_len, hi_len = window_band(m)
    if lo_len > n:
        return EvidenceSpan.not_found(quote)

    end_dists = full_edit_row(nq, folded, anchored=False)
    rq = nq[::-1]
    # Any window inside the band that passes the threshold has raw distance
    # at most floor(m/4), and the free-start distance at its end point is a
    # lower bound on that, so this filter loses nothing.
    raw_cap = m // 4
    best: tuple[int, int, int, int] | None = None  # (dist, max(m, L), start, end)
    for end in range(1, n + 1):
        e_j = end_dists[end]
        if e_j > raw_cap:
            continue
        if best is not None and e_j * best[1] > best[0] * max(m, hi_len):
            continue
        # Every window sharing this end point, indexed by its length, from
        # one anchored row of the reversed quote against the reversed slice.
        by_len = full_edit_row(rq, folded[max(0, end - hi_len):end][::-1], anchored=True)
        for length in range(lo_len, min(hi_len, end) + 1):
            dist = by_len[length]
            if not passes_threshold(dist, m, length):
                continue
            start = end - length
            denom = max(m, length)
            if best is None:
                best = (dist, denom, start, end)
                continue
            lhs = dist * best[1]
            rhs = best[0] * denom
            if lhs < rhs or (lhs == rhs and (start, end) < (best[2], best[3])):
                best = (dist, denom, start, end)
    if best is None:
        return EvidenceSpan.not_found(quote)
    _, _, s, e = best
    return EvidenceSpan(
        quote=quote, start=starts[s], end=ends[e - 1], match_kind=MatchKind.FUZZY
    )


def unfiltered_end_points(self: QuoteSearch, nq: str) -> list[tuple[int, int]]:
    """Free-start end points of the folded quote `nq` within its raw cap, from the whole fold."""
    return _edit_rows(nq, self.folded, False, len(nq) // 4)


def per_quote_candidate_slices(folded: str, nq: str) -> list[tuple[int, int]] | None:
    """The slices of `folded` whose scans give every end point of `nq` within m // 4.

    A q-gram filter, with q = 3 (Jokinen & Ukkonen 1991; Ukkonen 1992;
    Navarro 2001). An edit destroys at most q of the quote's m - q + 1
    q-grams, so a substring within k = m // 4 edits of the quote holds at
    least t = m - q + 1 - kq of them, each at its own position and none
    more often than the quote does; t > 0 for every m >= 9. The substring
    is at most m + k long, so an end j is a candidate only if positions in
    [j - m - k, j - q] hold t of the quote's q-grams, each counted at most
    as often as the quote holds it. A slice runs from m + k before its
    first candidate end to its last, so every alignment within the cap
    that ends in it starts in it, and a free-start scan of the slice gives
    those ends the distance a scan of the whole fold does (an end outside
    the candidates is above the cap either way). Overlapping slices merge.

    None, to scan the whole fold instead: for a quote shorter than 9; when
    the fold holds so many of the quote's q-grams (counted in one pass at
    C speed, before any position is read) that an average window of m + k
    holds t; and when the slices would cover more than half the fold.
    """
    m = len(nq)
    if m < 9:
        return None
    k = m // 4
    t, w, n = m - 2 - 3 * k, m + k, len(folded)
    need: dict[str, int] = {}
    for i in range(m - 2):
        need[nq[i : i + 3]] = need.get(nq[i : i + 3], 0) + 1
    grams = set(map(tuple, need))
    flags = bytes(map(grams.__contains__, zip(folded, folded[1:], folded[2:])))
    if flags.count(1) * w >= t * n:
        return None
    by_gram: dict[str, list[int]] = {}
    for p in map(re.Match.start, re.finditer(b"\x01", flags)):
        by_gram.setdefault(folded[p : p + 3], []).append(p)
    # Position p counts toward the ends from p + 3 to p + w, but not once
    # the window also holds as many later positions of its q-gram as the
    # quote has: that gives the capped count. An event is 2x + 1 for the
    # first end p counts toward and 2x for the first it no longer does, so
    # at equal x stops sort before starts.
    events: list[int] = []
    for gram, ps in by_gram.items():
        r = need[gram]
        events += [2 * p + 7 for p in ps]
        events += [
            2 * later + 6 if later < p + w - 2 else 2 * (p + w + 1)
            for p, later in zip(ps, ps[r:])
        ]
        events += [2 * (p + w + 1) for p in ps[-r:]]
    events.sort()
    slices: list[tuple[int, int]] = []
    depth = first = 0
    for event in events:
        if event & 1:
            depth += 1
            if depth == t:
                first = event >> 1
        else:
            depth -= 1
            if depth == t - 1:
                lo, hi = max(0, first - w), min(n, (event >> 1) - 1)
                if slices and lo <= slices[-1][1]:
                    lo = slices.pop()[0]
                slices.append((lo, hi))
    if 2 * sum(hi - lo for lo, hi in slices) > n:
        return None
    return slices


def regex_fold(text: str) -> str:
    """The one text-folding definition: lowercase, one ' ' per whitespace run.

    Each character becomes its lowercase form when that is one character
    (so 'İ' stays as it is), and each whitespace run (`str.isspace`, which
    is also what `\\s` matches) becomes a single ' '. The locator's
    case-insensitive and fuzzy stages, `fold_quote` and the span re-check
    all use it. `str.lower` on a whole string gives the same characters
    except at 'İ' (two characters) and 'Σ' (final sigma depends on its
    neighbours), so only a text holding one of those two is lowered a
    character at a time.
    """
    if "\u0130" in text or "\u03a3" in text:
        text = "".join(map(_fold_char, text))
    else:
        text = text.lower()
    return re.sub(r"\s+", " ", text)


def normalizing_parse_bulleted_list(text: str) -> list[str]:
    """Extract item strings from a (possibly bulleted) reply.

    Lines carrying a list marker (-, *, bullets, "3." or "3)") win; any
    preamble before the first marker is dropped. With no markers at all,
    every non-empty line is an item, except a first line ending in a colon,
    which is taken as preamble. A reply consisting of a single sentinel
    line ("none", "n/a", "no medications found", ...) yields an empty list.
    """
    lines = text.splitlines()
    items: list[str] = []
    saw_marker = False
    for line in lines:
        m = _BULLET_LINE_RE.match(line)
        if m:
            saw_marker = True
            items.append(m.group(1))
    if not saw_marker:
        stripped = [ln.strip() for ln in lines if ln.strip()]
        if stripped and stripped[0].endswith(":"):
            stripped = stripped[1:]
        items = stripped
    items = [it for it in items if normalize(it)]
    if len(items) == 1 and _is_sentinel(items[0]):
        return []
    return items


_LIST_MARKER_RE = re.compile(r"^(?:[-*•·‣◦]+|\(?\d{1,3}[.)])\s+")
_QUOTE_PAIRS = [
    ('"', '"'),
    ("'", "'"),
    ("“", "”"),
    ("‘", "’"),
    ("«", "»"),
    ("`", "`"),
]


def _normalize_once(s: str) -> str:
    s = " ".join(s.split())
    s = _LIST_MARKER_RE.sub("", s)
    for open_q, close_q in _QUOTE_PAIRS:
        if len(s) >= 2 and s.startswith(open_q) and s.endswith(close_q):
            s = s[1:-1]
            break
    s = s.casefold()
    s = s.rstrip(".")
    return s.strip()


def fixpoint_normalize(raw: str) -> str:
    """Canonical form of an extracted value.

    Collapses Unicode whitespace, strips list markers and surrounding quote
    pairs, casefolds, and drops trailing periods. Applied to a fixpoint so
    the result is idempotent by construction.
    """
    prev: str | None = None
    s = raw
    while s != prev:
        prev = s
        s = _normalize_once(s)
    return s


def edit_distance(a: str, b: str) -> int:
    """Textbook Levenshtein distance, quadratic dp."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def windowed_edit_distances(doc: str, needle: str, max_len: int) -> np.ndarray:
    """dists[s, L] = editdist(needle, doc[s:s+L]) for all starts and L <= max_len.

    One dp over a (starts x lengths) matrix; the within-row dependency
    (insertion into the window) is a running minimum, computed with a
    subtract/accumulate/add pass. Cells whose window would run past the end
    of the document hold a large sentinel.
    """
    n, m = len(doc), len(needle)
    if n == 0:
        return np.full((0, max_len + 1), _BIG, dtype=np.int64)
    codes = np.array([ord(c) for c in doc], dtype=np.int64)
    lengths = np.arange(max_len + 1, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)[:, None] + (lengths[None, :] - 1)
    invalid = (lengths[None, :] >= 1) & (pos >= n)
    doc_at = codes[np.clip(pos, 0, n - 1)]

    prev = np.broadcast_to(lengths, (n, max_len + 1)).astype(np.int64).copy()
    prev[invalid] = _BIG
    for i in range(1, m + 1):
        qc = ord(needle[i - 1])
        diag = prev[:, :-1] + (doc_at[:, 1:] != qc)
        up = prev[:, 1:] + 1
        base = np.concatenate(
            [np.full((n, 1), i, dtype=np.int64), np.minimum(diag, up)], axis=1
        )
        cur = np.minimum.accumulate(base - lengths[None, :], axis=1) + lengths[None, :]
        cur[invalid] = _BIG
        prev = cur
    return prev


def sellers_end_distances(needle: str, haystack: str) -> list[int]:
    """Best edit distance of `needle` against any substring ending at each position.

    Returns e where e[j] = min over s of editdist(needle, haystack[s:j]),
    j from 0 to len(haystack). Start positions are free, so row 0 is all
    zeros; this is the standard semi-global alignment.
    """
    m, n = len(needle), len(haystack)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        qc = needle[i - 1]
        for j in range(1, n + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (qc != haystack[j - 1]),
            )
        prev = cur
    return prev


def distances_for_end(needle: str, haystack: str, end: int, max_len: int) -> list[int]:
    """Edit distance of `needle` to haystack[end-L:end] for L = 0..max_len.

    Computed as one alignment of the reversed needle against the reversed
    slice, so every window sharing this end point comes out of a single
    table. Returns dists indexed by window length.
    """
    lo = max(0, end - max_len)
    window = haystack[lo:end][::-1]
    rq = needle[::-1]
    w = len(window)
    prev = list(range(w + 1))
    for i in range(1, len(rq) + 1):
        cur = [i] + [0] * w
        qc = rq[i - 1]
        for k in range(1, w + 1):
            cur[k] = min(prev[k] + 1, cur[k - 1] + 1, prev[k - 1] + (qc != window[k - 1]))
        prev = cur
    return prev


def oracle_locate(text: str, quote: str) -> tuple[str, int, int]:
    """Reference for the full locator cascade.

    Returns (kind, start, end) with kind one of "exact",
    "case_insensitive", "fuzzy", "not_found", using the same selection
    rules as production: leftmost for the first two stages; minimal
    normalized distance, then leftmost start, then smallest end, for the
    fuzzy stage.
    """
    if not quote or not quote.strip():
        return ("not_found", 0, 0)

    m = len(quote)
    for i in range(len(text) - m + 1):
        if text[i : i + m] == quote:
            return ("exact", i, i + m)

    folded, starts, ends = fold_with_offsets(text)
    nq = fold_quote(quote)
    if not nq:
        return ("not_found", 0, 0)
    for k in range(len(folded) - len(nq) + 1):
        if folded[k : k + len(nq)] == nq:
            return ("case_insensitive", starts[k], ends[k + len(nq) - 1])

    mq = len(nq)
    n = len(folded)
    lo_len, hi_len = window_band(mq)
    if n == 0 or lo_len > n:
        return ("not_found", 0, 0)
    dists = windowed_edit_distances(folded, nq, hi_len)
    best: tuple[Fraction, int, int] | None = None
    for s in range(n):
        for length in range(lo_len, hi_len + 1):
            if s + length > n:
                break
            dist = int(dists[s, length])
            if not passes_threshold(dist, mq, length):
                continue
            cand = (Fraction(dist, max(mq, length)), s, s + length)
            if best is None or cand < best:
                best = cand
    if best is None:
        return ("not_found", 0, 0)
    return ("fuzzy", starts[best[1]], ends[best[2] - 1])


def oracle_prf(pred: set[str], gold: set[str]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact-rational precision/recall/F1 with the same empty-set rules.

    Built straight from the definitions with Fractions; the production
    float path must agree to within 1e-12.
    """
    if not pred and not gold:
        one = Fraction(1)
        return (one, one, one)
    if not pred or not gold:
        zero = Fraction(0)
        return (zero, zero, zero)
    tp = len(pred & gold)
    p = Fraction(tp, len(pred))
    r = Fraction(tp, len(gold))
    f1 = Fraction(0) if p + r == 0 else 2 * p * r / (p + r)
    return (p, r, f1)


def normalized_distance_of_span(text: str, quote: str, start: int, end: int) -> Fraction:
    """Exact normalized distance between the folded quote and a folded text slice.

    The slice is folded without end-trimming: a located window keeps
    whatever whitespace it covered, only the quote side is trimmed.
    """
    nq = fold_quote(quote)
    window = fold_with_offsets(text[start:end])[0]
    if not nq and not window:
        return Fraction(0)
    return Fraction(edit_distance(nq, window), max(len(nq), len(window)))


def linear_mock_complete(steps, consumed: set[int], request, default: str | None) -> LlmResponse:
    """First step in script order that is not consumed and matches `request`.

    Adds a matching `once` step's index to `consumed`; with no match,
    answers `default` or raises ScriptExhausted.
    """
    for i, step in enumerate(steps):
        if i in consumed:
            continue
        if substring_matches(step, request):
            if step.once:
                consumed.add(i)
            return step.render(request)
    if default is not None:
        return LlmResponse(text=default, finish_reason=FinishReason.STOP)
    raise ScriptExhausted(
        f"no script step matched request starting {request.text[:120]!r}"
    )


def substring_matches(step, request) -> bool:
    """Whether `step`'s matcher accepts `request`, each substring tested with `in`."""
    if callable(step.matcher):
        return bool(step.matcher(request))
    if isinstance(step.matcher, str):
        return step.matcher in request.text
    return all(s in request.text for s in step.matcher)


def per_update_cache_key(request) -> str:
    """Content hash of a request: sha256 hex over a canonical encoding.

    Every field is written as (tag, length, utf-8 bytes) in a fixed order,
    so no combination of values can collide by concatenation and adding a
    field later changes every key (by design).
    """
    h = hashlib.sha256()

    def put(tag: str, value: str) -> None:
        data = value.encode("utf-8")
        h.update(tag.encode("ascii"))
        h.update(b"\x00")
        h.update(struct.pack(">I", len(data)))
        h.update(data)

    put("model_id", request.model_id)
    # Constant tags left from a removed completion mode; kept so stored keys still hit.
    put("mode", "chat")
    put("prompt", "")
    for i, msg in enumerate(request.messages):
        put(f"message.{i}.role", msg.role)
        put(f"message.{i}.content", msg.content)
    put("temperature", repr(request.temperature))
    put("max_output_tokens", str(request.max_output_tokens))
    return h.hexdigest()


def per_key_filter(by_key: dict[str, list[int]], text: str) -> list[int]:
    """The indices filed under every key of `by_key` that `text` holds, in order."""
    return sorted(i for key, ids in by_key.items() if key in text for i in ids)


def list_align_key(key: str, expected: list[str] | tuple[str, ...]) -> str | None:
    """Match a normalized key from a reply line to one of `expected`.

    An exact match wins; otherwise the one expected key that contains it
    or is contained in it (keys of 3+ characters only). None when there is
    no such key, or more than one.
    """
    if key in expected:
        return key
    contains = [v for v in expected if len(key) >= 3 and (key in v or v in key)]
    return contains[0] if len(contains) == 1 else None


def pool_map_run_batch(backend, config, documents, seeds, demo_pool=None, workers=4, megaprompt=False):
    """Every (seed, document) job mapped over a pool of `workers` threads.

    Prune calls fan out to one helper pool shared by the batch. Results
    come back in (seed, document) order; the first failing job's error,
    in that order, is raised.
    """
    jobs = [(seed, doc) for seed in seeds for doc in documents]
    with ThreadPoolExecutor() as helpers:
        pipeline = ExtractionPipeline(backend, config, executor=helpers)

        def work(job):
            seed, doc = job
            if megaprompt:
                return pipeline.run_megaprompt(doc, seed=seed, demo_pool=demo_pool)
            return pipeline.run(doc, seed=seed, demo_pool=demo_pool)

        if workers <= 1:
            return [work(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, jobs))


unmemoised_normalize = normalize.__wrapped__


def aggregate_variants(per_variant: dict[str, Sequence[MacroMetrics]]) -> list[AblationRow]:
    """Collapse per-seed macro metrics into one row per variant.

    Means and SEMs are taken across seeds; insertion order of the dict is
    preserved so tables list variants the way the caller staged them.
    """
    rows: list[AblationRow] = []
    for name, macros in per_variant.items():
        if not macros:
            raise ValueError(f"variant {name!r} has no seed runs")
        ps = [m.precision for m in macros]
        rs = [m.recall for m in macros]
        fs = [m.f1 for m in macros]
        rows.append(
            AblationRow(
                name=name,
                precision=sum(ps) / len(ps),
                precision_sem=sem(ps),
                recall=sum(rs) / len(rs),
                recall_sem=sem(rs),
                f1=sum(fs) / len(fs),
                f1_sem=sem(fs),
                n_seeds=len(macros),
            )
        )
    return rows


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


def constructed_chat(model_id: str, user_text: str, **kwargs) -> LlmRequest:
    return LlmRequest(model_id=model_id, messages=(Message("user", user_text),), **kwargs)


def joined_request_text(request: LlmRequest) -> str:
    return "\n".join(m.content for m in request.messages)


def per_call_render(step, request: LlmRequest) -> LlmResponse:
    r = step.response
    if callable(r):
        r = r(request)
    if isinstance(r, LlmResponse):
        return r
    return LlmResponse(text=r, finish_reason=FinishReason.STOP, latency_ms=0.0)


def new_origin(step: str, *iteration) -> Origin:
    """`Origin.original()`, `Origin.omission(*iteration)` or `Origin.megaprompt()`, built anew."""
    return Origin(step, *iteration)


_EVOLVABLE = frozenset(f.name for f in fields(ExtractedItem)) - {"value"}


def dict_update_from_raw(raw_value: str, **kwargs) -> ExtractedItem:
    return dict_update_evolve(ExtractedItem("", ""), raw_value=raw_value, **kwargs)


def dict_update_evolve(self: ExtractedItem, **changes) -> ExtractedItem:
    """A copy with `changes`; `value` follows `raw_value`, so it is not one of them."""
    unknown = changes.keys() - _EVOLVABLE
    if unknown:
        raise TypeError(f"cannot evolve {sorted(unknown)} of an ExtractedItem")
    item = object.__new__(type(self))  # skips the constructor's normalize
    item.__dict__.update(self.__dict__, **changes)
    if "raw_value" in changes:
        item.__dict__["value"] = normalize(item.raw_value)
    item.check_pruned()
    return item
