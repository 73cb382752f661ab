"""Parsers for model output and the quote-to-offset locator.

Every parser in this module accepts arbitrary text and returns a declared
outcome; the only exception type raised on content (as opposed to misuse)
is AmbiguousVerdict, which callers treat as a keep-and-flag signal, not a
crash.

The locator resolves a model-returned quote to character offsets in the
source text through three stages: exact substring, case- and
whitespace-insensitive match, then a bounded fuzzy search that minimizes
edit distance normalized by the longer of quote and window. Each quote is
located on its own. The calls on one note share a `QuoteSearch`, which
holds the note's fold and each fuzzy-stage quote's window, so a quote
costs at most:
- one fold of the note (`core.fold`), made once per note and only when a
  quote misses the exact stage, by `str.lower` and one split and join
  when the note has neither 'İ' nor 'Σ', and a character at a time
  otherwise; only the offsets of a result are mapped back, by bisecting
  the whitespace runs;
- for a fuzzy-stage quote, the pieces filter (`_piece_slices`) at two
  caps: six pieces of a quote of 24 or more characters, found by
  `str.find`, settle a near-verbatim quote within 5 edits; for a quote
  they do not settle, m // 3 pieces bound the cap m // 4. Only where
  enough distinct pieces agree on an end can a window within the cap end
  there. An absent quote usually has no such place, and an edited one a
  few slices around its match;
- free-start scans with Myers' bit-vectors (`_edit_rows`), about a dozen
  integer operations per character scanned, emitting only the end points
  whose distance could pass the threshold: over the quote's slices, or
  over the whole fold when the pieces cannot narrow it (a quote of 1, 2,
  4, 5 or 8 characters, whose m // 3 pieces do not outnumber m // 4
  edits, or one whose pieces are dense in the note);
- short anchored rows over the length band, one per such end point,
  lowest distance first, until the cap that the best window so far sets
  drops the rest: usually after the first row.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from operator import itemgetter, sub
from typing import Collection

from .core import _LIST_MARKER, _QUOTE_PAIRS, EvidenceSpan, MatchKind, StatusLabel, fold, fold_quote, normalize

# Fuzzy matching accepts a window w for quote q iff
#   editdist(q, w) / max(|q|, |w|) <= 1/5
# with |w| restricted to [ceil(0.8 |q|), floor(1.25 |q|)]. All comparisons
# are exact integer arithmetic; no floats are involved in selection.
FUZZY_THRESHOLD_NUM = 1
FUZZY_THRESHOLD_DEN = 5
WINDOW_MIN_NUM, WINDOW_MIN_DEN = 4, 5
WINDOW_MAX_NUM, WINDOW_MAX_DEN = 5, 4


class AmbiguousVerdict(Exception):
    """A verdict reply contained no recognizable yes/no token."""

    def __init__(self, text: str):
        super().__init__(f"no yes/no token in verdict reply: {text[:80]!r}")
        self.text = text


_BULLET_LINE_RE = re.compile(r"^\s*" + _LIST_MARKER + r"(.*\S)\s*$")

_SENTINEL_EXACT = {
    "none",
    "n/a",
    "na",
    "nil",
    "nothing",
    "none found",
    "none identified",
    "nothing else",
    "nothing missed",
    "no new items",
    "no others",
    "empty",
}
# "no medications", "no medications found", "no additional trial arms".
# A qualifier word licenses a multi-word noun; without one, only a single
# noun (optionally with a found/identified tail) counts, so legitimate
# values like "no improvement arm" survive.
_SENTINEL_RE = re.compile(
    r"^(?:there (?:are|were) )?no "
    r"(?:"
    r"(?:new|additional|other|further|missed|remaining)(?: \w+){1,3}"
    r"|"
    r"\w+(?: (?:were|was|are|is))?"
    r"(?: (?:found|identified|missed|mentioned|listed|present|extracted))?"
    r")$"
)
# `normalize` drops only whitespace, list markers, quote pairs and periods, and
# casefolding turns no other character into these: an item with one is not empty.
_MAYBE_EMPTY_RE = re.compile(r"""[\s.\d()*•·‣◦"'“”‘’«»`-]*""")


def _is_sentinel(line: str) -> bool:
    folded = normalize(line)
    return folded in _SENTINEL_EXACT or bool(_SENTINEL_RE.match(folded))


def parse_bulleted_list(text: str) -> list[str]:
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
    items = [it for it in items if not _MAYBE_EMPTY_RE.fullmatch(it) or normalize(it)]
    if len(items) == 1 and _is_sentinel(items[0]):
        return []
    return items


_PAREN_STATUS_RE = re.compile(r"^(?P<item>.*\S)\s*\((?P<status>[^()]+)\)\s*$")
_TRAILING_PAREN_RE = re.compile(r"\s*\([^)]*\)\s*$")

_STATUS_SYNONYMS: dict[str, StatusLabel] = {
    "active": StatusLabel.ACTIVE,
    "current": StatusLabel.ACTIVE,
    "currently taking": StatusLabel.ACTIVE,
    "taking": StatusLabel.ACTIVE,
    "ongoing": StatusLabel.ACTIVE,
    "continued": StatusLabel.ACTIVE,
    "continuing": StatusLabel.ACTIVE,
    "started": StatusLabel.ACTIVE,
    "new": StatusLabel.ACTIVE,
    "discontinued": StatusLabel.DISCONTINUED,
    "discontinue": StatusLabel.DISCONTINUED,
    "stopped": StatusLabel.DISCONTINUED,
    "stop": StatusLabel.DISCONTINUED,
    "held": StatusLabel.DISCONTINUED,
    "ceased": StatusLabel.DISCONTINUED,
    "dc'd": StatusLabel.DISCONTINUED,
    "dcd": StatusLabel.DISCONTINUED,
    "neither": StatusLabel.NEITHER,
    "unknown": StatusLabel.NEITHER,
    "unclear": StatusLabel.NEITHER,
    "n/a": StatusLabel.NEITHER,
    "none": StatusLabel.NEITHER,
    "not mentioned": StatusLabel.NEITHER,
}


def _fold_status(raw: str) -> StatusLabel | None:
    stripped = _TRAILING_PAREN_RE.sub("", raw)
    return _STATUS_SYNONYMS.get(normalize(stripped))


def parse_status_pairs(text: str) -> tuple[list[tuple[str, StatusLabel]], list[str]]:
    """Parse "item: status" lines into (item, label) pairs.

    Accepts "item: status", "item - status", and "item (status)" forms,
    folding common synonyms (stopped, current, ...). A line with no status,
    or one whose status token is unrecognized, keeps the item with
    StatusLabel.NEITHER and reports a warning. Returns (pairs, warnings).
    """
    pairs: list[tuple[str, StatusLabel]] = []
    warnings: list[str] = []
    for line in parse_bulleted_list(text):
        m = _PAREN_STATUS_RE.match(line)
        if m:
            status = _fold_status(m.group("status"))
            if status is not None:
                pairs.append((m.group("item"), status))
                continue
        if ":" in line:
            item, _, status_text = line.rpartition(":")
            item = item.strip()
            status = _fold_status(status_text)
            if item and status is not None:
                pairs.append((item, status))
            elif item:
                pairs.append((item, StatusLabel.NEITHER))
                warnings.append(
                    f"unrecognized status {status_text.strip()!r} for {item!r}; using neither"
                )
            else:
                pairs.append((status_text, StatusLabel.NEITHER))
                warnings.append(f"missing status for {status_text.strip()!r}; using neither")
            continue
        if " - " in line:
            item, _, status_text = line.rpartition(" - ")
            status = _fold_status(status_text)
            if item.strip() and status is not None:
                pairs.append((item.strip(), status))
                continue
        pairs.append((line, StatusLabel.NEITHER))
        warnings.append(f"missing status for {line.strip()!r}; using neither")
    return pairs, warnings


_QUOTE_OPENERS = "".join(_QUOTE_PAIRS)
_QUOTE_CLOSERS = "".join(_QUOTE_PAIRS.values())


def _unwrap_quote(s: str) -> str:
    s = s.strip()
    # A sentence-ending mark after the closing quote: '"aspirin".'
    if len(s) >= 3 and s[0] in _QUOTE_OPENERS and s[-2] in _QUOTE_CLOSERS and s[-1] in ".,;":
        s = s[:-1]
    if len(s) >= 2 and s[0] in _QUOTE_OPENERS and s[-1] in _QUOTE_CLOSERS:
        return s[1:-1]
    return s


def align_key(key: str, expected: Collection[str]) -> str | None:
    """Match a normalized key from a reply line to one of `expected` (distinct keys).

    An exact match wins; otherwise the one expected key that contains it
    or is contained in it (keys of 3+ characters only). None when there is
    no such key, or more than one. Pass a dict or set, built once per
    reply, so that an exact match is one lookup.
    """
    if key in expected:
        return key
    contains = [v for v in expected if len(key) >= 3 and (key in v or v in key)]
    return contains[0] if len(contains) == 1 else None


def parse_evidence(
    text: str, expected_values: list[str] | tuple[str, ...]
) -> tuple[dict[str, str], list[str]]:
    """Parse `item: "quote"` lines, aligning items to expected value keys.

    `expected_values` are normalized item values, aligned by `align_key`.
    Quote text is unwrapped from surrounding straight or smart quotes but
    otherwise preserved verbatim, since it must be located in the source
    later.
    Returns ({expected_value: quote}, warnings); values with no usable line
    are simply absent.
    """
    expected = dict.fromkeys(expected_values)
    mapping: dict[str, str] = {}
    warnings: list[str] = []
    for line in parse_bulleted_list(text):
        left, sep, right = line.partition(":")
        if not sep:
            warnings.append(f"evidence line without separator: {line[:60]!r}")
            continue
        key = align_key(normalize(left), expected)
        if key is None:
            warnings.append(f"evidence line for unknown item {left.strip()!r}")
            continue
        quote = _unwrap_quote(right)
        if not quote:
            warnings.append(f"empty quote for {key!r}")
            continue
        if key in mapping:
            warnings.append(f"duplicate evidence line for {key!r}; keeping the first")
            continue
        mapping[key] = quote
    return mapping, warnings


_YES_TOKENS = frozenset({"yes", "correct", "keep", "true"})
_NO_TOKENS = frozenset({"no", "incorrect", "remove", "false"})
_WORD_RE = re.compile(r"[a-z']+")


def parse_verdict(text: str) -> bool:
    """Read a keep/discard verdict; the first decisive token wins.

    True for yes/correct/keep/true, False for no/incorrect/remove/false.
    Raises AmbiguousVerdict when no token from either set appears.
    """
    for token in _WORD_RE.findall(text.casefold()):
        if token in _YES_TOKENS:
            return True
        if token in _NO_TOKENS:
            return False
    raise AmbiguousVerdict(text)


_ICD9_RE = re.compile(r"(?<![0-9A-Za-z.])(\d{2,3}(?:\.\d{1,2})?)(?!\.?\d)(?![A-Za-z])")
_ICD10_RE = re.compile(
    r"(?<![0-9A-Za-z.])([A-Za-z]\d[0-9A-Za-z](?:\.[0-9A-Za-z]{1,4})?)(?!\.?[0-9A-Za-z])"
)


def parse_icd_codes(text: str, version: int) -> list[str]:
    """Scan free text for ICD-9 (nnn.nn) or ICD-10 (Ann.xxxx) codes.

    Codes are uppercased and deduplicated preserving first occurrence.
    """
    if version == 9:
        pattern = _ICD9_RE
    elif version == 10:
        pattern = _ICD10_RE
    else:
        raise ValueError(f"unsupported ICD version {version}")
    seen: set[str] = set()
    codes: list[str] = []
    for m in pattern.finditer(text):
        code = m.group(1).upper()
        if code not in seen:
            seen.add(code)
            codes.append(code)
    return codes


def window_band(m: int) -> tuple[int, int]:
    """Inclusive [min, max] window lengths considered for a folded quote of length m."""
    lo = -(-m * WINDOW_MIN_NUM // WINDOW_MIN_DEN)
    hi = m * WINDOW_MAX_NUM // WINDOW_MAX_DEN
    return max(1, lo), hi


def passes_threshold(dist: int, m: int, length: int) -> bool:
    """dist / max(m, length) <= 1/5, evaluated exactly."""
    return dist * FUZZY_THRESHOLD_DEN <= max(m, length) * FUZZY_THRESHOLD_NUM


def _edit_rows(needle: str, haystack: str, anchored: bool, cap: int) -> list[tuple[int, int]]:
    """The (j, d) for j from 1 to len(haystack) whose distance d is at most `cap` (at least 0).

    d is the distance from `needle` to the best substring of `haystack`
    ending at j (free start, the standard semi-global alignment) or, when
    `anchored`, to haystack[:j]. That is the last row of the edit-distance
    table, computed with Myers' bit-vectors (Myers 1999; Hyyro 2003 for
    the score) on Python ints in one pass over the haystack, whatever the
    needle's length. Anchoring shifts a carry of 1 into the lowest bit,
    since row 0 is then 0, 1, 2, ... rather than all zeros. The needle
    must not be empty.
    """
    peq: dict[str, int] = {}
    for p, c in enumerate(needle):
        peq[c] = peq.get(c, 0) | (1 << p)
    m = len(needle)
    mask, high, carry = (1 << m) - 1, 1 << (m - 1), int(anchored)
    pv, mv, score = mask, 0, m
    hits: list[tuple[int, int]] = []
    for j, c in enumerate(haystack, 1):
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        if score <= cap:
            hits.append((j, score))
        ph = (ph << 1) & mask | carry
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return hits


def _scan_slices(folded: str, nq: str, slices: list[tuple[int, int]], cap: int) -> list[tuple[int, int]]:
    """The (end, distance) pairs within `cap` of free-start scans of `nq` over `slices` of `folded`."""
    return [(lo + j, d) for lo, hi in slices for j, d in _edit_rows(nq, folded[lo:hi], False, cap)]


# The pieces step cuts a folded quote into this many pieces.
PIECES = 6
# Up to this many pieces, a `str.find` loop per piece finds their
# occurrences; beyond it, one 3-gram pass over the fold is cheaper (on a
# 15k-character note, 60 pieces took 1.2 ms by `find` and 1.4 ms by the
# pass, 80 pieces 1.7 and 1.5 ms).
_FIND_LOOP_PIECES = 64
_Window = tuple[int, int, int, int]  # (dist, max(m, L), start, end)


def _piece_slices(folded: str, nq: str, j: int, c: int) -> list[tuple[int, int]] | None:
    """The slices of `folded` whose scans give every end point of `nq` within c.

    Cut the quote, of length m, into j pieces at i * m // j. An edit breaks
    at most one piece, so a substring within d <= c edits of the quote
    holds j - d of them whole, each where the alignment puts it
    (Baeza-Yates & Navarro 1999; Navarro & Raffinot 2002, ch. 6). Piece i
    at offset a occurring at p implies the end x = p - a + m, and the
    alignment's end differs from x by the insertions less the deletions
    after the piece. So its whole pieces imply ends within d of one another
    and of its end: an end point within c needs t = j - c distinct pieces
    whose implied ends lie within c of one another. Each hit of such a
    group gives the slice [x - 2c - m, x + c], which holds the ends within
    c of x and the starts, at most m + c before them. Overlapping slices
    merge, so a free-start scan of them gives every end point within c its
    whole-fold distance (an end outside them is above c either way).

    Up to _FIND_LOOP_PIECES pieces, a `str.find` loop per piece finds the
    hits; beyond, one 3-gram pass over the fold at C speed flags where a
    piece can start, and each piece must then be 3 or more characters.
    [] when no t hits lie within c of one another, which one pass at C
    speed over the sorted hits decides before any group is formed. None,
    to scan the whole fold instead: when t < 1; when the hits pass
    min(n / 2, t^2 n / (2 (m + 3c))) for a fold of n characters, found by
    the flag count or once the hits pass it, before any Python loop grows
    longer; and when the slices would cover more than half the fold. For
    t = 1 that bound is where one slice of m + 3c per hit could cover half
    the fold. A group needs t hits at once, which hits by chance seldom
    give, so the bound grows with t^2; but handling n / 2 hits in Python
    costs about what the scan they could save does.
    """
    m, n, t = len(nq), len(folded), j - c
    if t < 1:
        return None
    limit = min(n // 2, t * t * n // (2 * (m + 3 * c)))
    cuts = [i * m // j for i in range(j + 1)]
    pieces = [(nq[a:b], a) for a, b in zip(cuts, cuts[1:])]
    hits: list[int] = []  # implied end * j + piece index: ints, which sort at C speed
    if j <= _FIND_LOOP_PIECES:
        for i, (piece, a) in enumerate(pieces):
            p = folded.find(piece)
            while p >= 0:
                hits.append((p - a + m) * j + i)
                if len(hits) > limit:
                    return None
                p = folded.find(piece, p + 1)
    else:
        by_gram: dict[str, list[tuple[str, int, int]]] = {}
        for i, (piece, a) in enumerate(pieces):
            by_gram.setdefault(piece[:3], []).append((piece, a, i))
        grams = set(map(tuple, by_gram))
        flags = bytes(map(grams.__contains__, zip(folded, folded[1:], folded[2:])))
        if flags.count(1) > limit:
            return None
        for p in map(re.Match.start, re.finditer(b"\x01", flags)):
            starting = by_gram[folded[p : p + 3]]
            hits += [(p - a + m) * j + i for piece, a, i in starting if folded.startswith(piece, p)]
            if len(hits) > limit:
                return None
    hits.sort()
    # Implied ends within c of one another give hits less than (c + 1) * j apart.
    if len(hits) < t or min(map(sub, hits[t - 1 :], hits)) >= (c + 1) * j:
        return []
    # Keep the hits of each stretch of c + 1 implied ends that holds t
    # distinct pieces.
    ends, ids = [h // j for h in hits], [h % j for h in hits]
    held: dict[int, int] = {}
    kept: list[int] = []
    lo = done = 0
    for hi, x in enumerate(ends):
        held[ids[hi]] = held.get(ids[hi], 0) + 1
        while ends[lo] < x - c:
            held[ids[lo]] -= 1
            if not held[ids[lo]]:
                del held[ids[lo]]
            lo += 1
        if len(held) >= t:
            kept += ends[max(lo, done) : hi + 1]
            done = hi + 1
    slices: list[tuple[int, int]] = []
    for x in kept:
        lo, hi = max(0, x - 2 * c - m), min(n, x + c)
        if slices and lo <= slices[-1][1]:
            lo = slices.pop()[0]
        slices.append((lo, hi))
    if 2 * sum(hi - lo for lo, hi in slices) > n:
        return None
    return slices


def _refine(
    folded: str, nq: str, ends: list[tuple[int, int]], best: _Window | None, cap: int
) -> tuple[_Window | None, int]:
    """The best window of `nq` from `best` and `cap` on, refining `ends` in their order, and its cap.

    Any window inside the band that passes the threshold has raw distance
    at most floor(m/4), and once a best window is known, any that could
    still win (ratio at most the best's) has distance at most
    best_dist * hi_len // best_denom. The free-start distance at a
    window's end point is a lower bound on its distance, so keeping only
    end points, and window lengths, within that cap loses nothing. That
    holds in any order, and the winner is the unique minimum of (ratio,
    start, end), so end points go lowest distance first: the cap falls at
    once, and the first one above it ends the search.
    """
    m = len(nq)
    lo_len, hi_len = window_band(m)
    rq = nq[::-1]
    for end, e_j in ends:
        if e_j > cap:
            break
        # Every window sharing this end point, by its length, from one
        # anchored row of the reversed quote against the reversed slice.
        window = folded[max(0, end - hi_len):end][::-1]
        for length, dist in _edit_rows(rq, window, True, cap):
            if length < lo_len or not passes_threshold(dist, m, length):
                continue
            start = end - length
            denom = max(m, length)
            if best is not None:
                lhs = dist * best[1]
                rhs = best[0] * denom
                if not (lhs < rhs or (lhs == rhs and (start, end) < (best[2], best[3]))):
                    continue
            best = (dist, denom, start, end)
            cap = min(cap, dist * hi_len // denom)
    return best, cap


class QuoteSearch:
    """What the `locate_quote` calls on one text share.

    That is the text's fold and its map back to the text's offsets, each
    made at most once, and the window found for each fuzzy-stage quote.
    Build one per text and pass it to each call. Nothing is computed
    before a call needs it, so a text whose quotes are all exact
    substrings is never folded. Not for use by several threads.
    """

    def __init__(self, text: str):
        self.text = text
        self._folded: str | None = None
        self._after: list[int] | None = None
        self._shift: list[int] = []
        self._windows: dict[str, _Window | None] = {}

    @property
    def folded(self) -> str:
        if self._folded is None:
            self._folded = fold(self.text)
        return self._folded

    def original(self, k: int) -> int:
        """The offset in the text of the boundary before folded[k].

        k runs from 0 to len(folded); a span [s, e) of the fold covers
        [original(s), original(e)) of the text, whole whitespace runs
        included. The fold shortens the text only where a whitespace run
        of two or more characters becomes one ' ', so this bisects those
        runs rather than keep an offset for every character.
        """
        if self._after is None:
            # _after[i] is the first folded boundary past the i-th such
            # run; _shift[i] the characters dropped up to and including it.
            after: list[int] = []
            shift: list[int] = []
            dropped = 0
            for run in re.finditer(r"\s\s+", self.text):
                dropped += run.end() - run.start() - 1
                after.append(run.end() - dropped)
                shift.append(dropped)
            self._after, self._shift = after, shift
        i = bisect_right(self._after, k)
        return k + self._shift[i - 1] if i else k

    def window(self, nq: str) -> _Window | None:
        """The best window of the folded quote `nq`, or None.

        The pieces step gives every end point within PIECES - 1, and once
        the best window's cap is that low no other end point can win. Else
        the end points it did not give, from `end_points`, are refined on.
        """
        if nq not in self._windows:
            m, k = len(nq), PIECES - 1
            slices = _piece_slices(self.folded, nq, PIECES, k) if m // 4 > k else None
            ends = [] if slices is None else _scan_slices(self.folded, nq, slices, k)
            best, cap = _refine(self.folded, nq, sorted(ends, key=itemgetter(1)), None, m // 4)
            done = -1 if slices is None else k
            if best is None or cap > done:
                rest = [(j, d) for j, d in self.end_points(nq) if d > done]
                best, _ = _refine(self.folded, nq, sorted(rest, key=itemgetter(1)), best, cap)
            self._windows[nq] = best
        return self._windows[nq]

    def end_points(self, nq: str) -> list[tuple[int, int]]:
        """Free-start end points of the folded quote `nq` within its raw cap m // 4.

        Scans of the slices that m // 3 pieces leave, or of the whole fold
        when they cannot narrow it.
        """
        m = len(nq)
        slices = _piece_slices(self.folded, nq, m // 3, m // 4)
        if slices is None:
            slices = [(0, len(self.folded))]
        return _scan_slices(self.folded, nq, slices, m // 4)


def locate_quote(text: str, quote: str, search: QuoteSearch | None = None) -> EvidenceSpan:
    """Resolve a quote to character offsets in `text`.

    Stage 1: exact substring (leftmost). Stage 2: leftmost match ignoring
    case and whitespace runs. Stage 3: fuzzy search minimizing
    editdist / max(|quote|, |window|) over windows within the length band,
    accepted only at or under the 1/5 threshold; ties prefer the smaller
    normalized distance, then leftmost start, then smallest end. Offsets
    always index the original text. `search`, when given, is a QuoteSearch
    of `text` shared by the calls on the same text.
    """
    if not quote or not quote.strip():
        return EvidenceSpan.not_found(quote)

    pos = text.find(quote)
    if pos >= 0:
        return EvidenceSpan(quote=quote, start=pos, end=pos + len(quote), match_kind=MatchKind.EXACT)

    nq = fold_quote(quote)
    if search is None:
        search = QuoteSearch(text)
    folded = search.folded
    k = folded.find(nq)
    if k >= 0:
        return EvidenceSpan(
            quote=quote,
            start=search.original(k),
            end=search.original(k + len(nq)),
            match_kind=MatchKind.CASE_INSENSITIVE,
        )

    best = None if window_band(len(nq))[0] > len(folded) else search.window(nq)
    if best is None:
        return EvidenceSpan.not_found(quote)
    _, _, s, e = best
    return EvidenceSpan(
        quote=quote, start=search.original(s), end=search.original(e), match_kind=MatchKind.FUZZY
    )
