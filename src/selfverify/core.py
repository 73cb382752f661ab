"""Shared domain types: tasks, documents, extracted items, and set semantics.

Everything here is an immutable value object, safe to share across
concurrent pipeline workers. Normalization and merge semantics defined in
this module are the single source of truth for deduplication and for
case-insensitive exact matching in evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache


class TaskFamily(str, Enum):
    CLINICAL_TRIAL_ARM = "clinical_trial_arm"
    MEDICATION_STATUS = "medication_status"
    ICD_CODE = "icd_code"


@dataclass(frozen=True)
class TaskKind:
    """One extraction task: what to pull out of the text and how to treat it.

    `long_input` drives the omission-loop and demonstration defaults; ICD
    tasks default to long and the others to short.
    """

    family: TaskFamily
    name: str
    long_input: bool
    icd_version: int | None = None
    item_noun: str = "items"
    source_noun: str = "input text"

    def __post_init__(self) -> None:
        if self.family is TaskFamily.ICD_CODE:
            if self.icd_version not in (9, 10):
                raise ValueError("ICD tasks require icd_version 9 or 10")
        elif self.icd_version is not None:
            raise ValueError(f"icd_version is only valid for ICD tasks, got {self.icd_version}")

    @property
    def wants_status(self) -> bool:
        return self.family is TaskFamily.MEDICATION_STATUS


def clinical_trial_arm_task(long_input: bool = False) -> TaskKind:
    return TaskKind(
        family=TaskFamily.CLINICAL_TRIAL_ARM,
        name="clinical_trial_arm",
        long_input=long_input,
        item_noun="clinical trial arms",
        source_noun="abstract",
    )


def medication_status_task(long_input: bool = False) -> TaskKind:
    return TaskKind(
        family=TaskFamily.MEDICATION_STATUS,
        name="medication_status",
        long_input=long_input,
        item_noun="medications",
        source_noun="patient note",
    )


def icd_task(version: int, long_input: bool = True) -> TaskKind:
    return TaskKind(
        family=TaskFamily.ICD_CODE,
        name=f"icd{version}",
        long_input=long_input,
        icd_version=version,
        item_noun="diagnoses",
        source_noun="clinical note",
    )


TASKS: dict[str, TaskKind] = {
    t.name: t
    for t in (
        clinical_trial_arm_task(),
        medication_status_task(),
        icd_task(9),
        icd_task(10),
    )
}


def task_by_name(name: str) -> TaskKind:
    try:
        return TASKS[name]
    except KeyError:
        raise KeyError(f"unknown task {name!r}; known: {sorted(TASKS)}") from None


@dataclass(frozen=True)
class Document:
    """One input text (clinical note, abstract, or snippet) bound to a task."""

    id: str
    text: str
    task: TaskKind

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError(f"document {self.id!r} has empty text")


class StatusLabel(str, Enum):
    ACTIVE = "active"
    DISCONTINUED = "discontinued"
    NEITHER = "neither"

    @classmethod
    def from_string(cls, raw: str) -> "StatusLabel":
        try:
            return cls(raw.strip().casefold())
        except ValueError:
            raise ValueError(f"unknown status label {raw!r}") from None


class MatchKind(str, Enum):
    EXACT = "exact"
    CASE_INSENSITIVE = "case_insensitive"
    FUZZY = "fuzzy"
    NOT_FOUND = "not_found"


def _fold_char(c: str) -> str:
    low = c.lower()
    return low if len(low) == 1 else c


def fold(text: str) -> str:
    """The one text-folding definition: lowercase, one ' ' per whitespace run.

    Each character becomes its lowercase form when that is one character
    (so 'İ' stays as it is), and each whitespace run (`str.isspace`, which
    is also what `\\s` matches) becomes a single ' '. The locator's
    case-insensitive and fuzzy stages, `fold_quote` and the span re-check
    all use it. `str.lower` on a whole string gives the same characters
    except at 'İ' (two characters) and 'Σ' (final sigma depends on its
    neighbours), so only a text holding one of those two is lowered a
    character at a time. One split and join collapses the runs, and two
    sentinels keep a run at either end as one ' '.
    """
    if "\u0130" in text or "\u03a3" in text:
        text = "".join(map(_fold_char, text))
    else:
        text = text.lower()
    return " ".join(f"^{text}^".split())[1:-1]


def fold_quote(quote: str) -> str:
    """Fold a quote with the same rules as the document, trimmed at the ends."""
    return fold(quote).strip()


@dataclass(frozen=True)
class EvidenceSpan:
    """A model-returned quote located at character offsets in the source text.

    Offsets count Unicode scalar values (Python string indices), never bytes.
    NOT_FOUND spans carry start = end = 0 and must never be used for overlap
    scoring.
    """

    quote: str
    start: int
    end: int
    match_kind: MatchKind

    def __post_init__(self) -> None:
        if self.match_kind is MatchKind.NOT_FOUND:
            if self.start != 0 or self.end != 0:
                raise ValueError("NOT_FOUND spans must have start = end = 0")
        else:
            if not (0 <= self.start <= self.end):
                raise ValueError(f"bad span offsets [{self.start}, {self.end})")

    @classmethod
    def not_found(cls, quote: str = "") -> "EvidenceSpan":
        return cls(quote=quote, start=0, end=0, match_kind=MatchKind.NOT_FOUND)

    @property
    def located(self) -> bool:
        return self.match_kind is not MatchKind.NOT_FOUND

    def verify_against(self, text: str) -> bool:
        """Whether `text` still holds this located span; NOT_FOUND spans claim nothing.

        The span must be non-empty and inside `text`, and give back its quote
        (exact), its folded quote (case-insensitive), or a fold within the
        locator's threshold of the folded quote, by one anchored row (fuzzy).
        """
        if not self.located or not self.start < self.end <= len(text):
            return not self.located  # NOT_FOUND claims nothing; an empty or outside span fails
        window, nq = text[self.start : self.end], fold_quote(self.quote)
        if self.match_kind is not MatchKind.FUZZY:
            return window == self.quote if self.match_kind is MatchKind.EXACT else fold_quote(window) == nq
        from .parsing import _edit_rows, passes_threshold  # parsing imports this module

        window = fold(window)
        dist = _edit_rows(nq, window, True, len(nq) + len(window))[-1][1] if nq else len(window)
        return passes_threshold(dist, len(nq), len(window))


_LIST_MARKER = r"(?:[-*•·‣◦]+|\(?\d{1,3}[.)])\s+"
_LIST_MARKER_RE = re.compile(_LIST_MARKER)
_LIST_MARKERS_RE = re.compile(f"(?:{_LIST_MARKER})+")
# Opening quote -> the closing quote it pairs with.
_QUOTE_PAIRS = {'"': '"', "'": "'", "“": "”", "‘": "’", "«": "»", "`": "`"}


def _normalize_once(s: str) -> str:
    s = " ".join(s.split())
    marker = _LIST_MARKER_RE.match(s)
    if marker:
        s = s[marker.end() :]
    if len(s) >= 2 and _QUOTE_PAIRS.get(s[0]) == s[-1]:
        s = s[1:-1]
    s = s.casefold()
    s = s.rstrip(".")
    return s.strip()


@lru_cache(maxsize=4096)
def normalize(raw: str) -> str:
    """Canonical form of an extracted value, memoised per process.

    Collapses Unicode whitespace, strips list markers and surrounding quote
    pairs, casefolds, and drops trailing periods: `_normalize_once` applied
    to a fixpoint, so the result is idempotent by construction.

    A run normalises few distinct values, again on every call (status
    tokens, item values re-checked by `evolve` and the parsers), so a memo
    of 4096 entries serves them; it is bounded because unique inputs, such
    as adversarial replies, only pass through it.

    After one pass the text is casefolded, with single spaces and none at
    either end, and later passes keep it so; all they still do is strip a
    list marker, a quote pair, periods and spaces at the ends. So they run
    on two offsets into that text, which is sliced once at the end. While
    the text does not end in a period, a pass that strips one marker
    leaves the end alone, so the whole leading run of markers goes in one
    match; and nested quote pairs go one after another while both ends
    hold quotes, as the passes between them would change nothing else.
    """
    s = _normalize_once(raw)
    i, j = 0, len(s)
    while True:
        before = i, j
        # No pass starts with a space at the end, so only a final period
        # can make this pass move the end.
        end_stays = j > i and s[j - 1] != "."
        marker = (_LIST_MARKERS_RE if end_stays else _LIST_MARKER_RE).match(s, i, j)
        if marker:
            i = marker.end()
        while j - i >= 2 and _QUOTE_PAIRS.get(s[i]) == s[j - 1]:
            i, j = i + 1, j - 1
        while j > i and s[j - 1] == ".":
            j -= 1
        while i < j and s[i].isspace():
            i += 1
        while j > i and s[j - 1].isspace():
            j -= 1
        if (i, j) == before:
            return s[i:j]


@dataclass(frozen=True)
class Origin:
    """Which pipeline step produced an item (omission carries its iteration)."""

    step: str
    iteration: int | None = None

    _STEPS = ("original", "omission", "megaprompt")

    def __post_init__(self) -> None:
        if self.step not in self._STEPS:
            raise ValueError(f"unknown origin step {self.step!r}")
        if self.step == "omission":
            if self.iteration is None or self.iteration < 1:
                raise ValueError("omission origin requires iteration >= 1")
        elif self.iteration is not None:
            raise ValueError(f"{self.step} origin takes no iteration")

    @classmethod
    def original(cls) -> "Origin":
        return cls("original")

    @classmethod
    def omission(cls, iteration: int) -> "Origin":
        return cls("omission", iteration)

    @classmethod
    def megaprompt(cls) -> "Origin":
        return cls("megaprompt")

    @classmethod
    @lru_cache(maxsize=256)
    def parse(cls, text: str) -> "Origin":
        """The Origin whose `str` is `text`; ValueError for any other text."""
        step, bracket, iteration = text.partition("[")
        origin = cls(step, int(iteration[:-1])) if bracket else cls(step)
        if str(origin) != text:
            raise ValueError(f"unknown origin {text!r}")
        return origin

    def __str__(self) -> str:
        if self.step == "omission":
            return f"omission[{self.iteration}]"
        return self.step


@dataclass(frozen=True)
class ExtractedItem:
    """One extraction candidate with provenance and optional grounding.

    `value` is `normalize(raw_value)`: the constructor (and `replace`) checks
    it, while `from_raw` and `evolve` compute it once per new `raw_value`.
    """

    raw_value: str
    value: str
    status: StatusLabel | None = None
    evidence: EvidenceSpan | None = None
    origin: Origin = field(default_factory=Origin.original)
    pruned: bool = False
    prune_reason: str | None = None
    icd_code: str | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.value != normalize(self.raw_value):
            raise ValueError(
                f"value {self.value!r} is not the normalized form of {self.raw_value!r}"
            )
        self.check_pruned()

    def check_pruned(self) -> None:
        if self.pruned and not self.prune_reason:
            raise ValueError("pruned items need a non-empty prune_reason")

    @classmethod
    def from_raw(cls, raw_value: str, **kwargs) -> "ExtractedItem":
        return _BLANK_ITEM.evolve(raw_value=raw_value, **kwargs)

    def evolve(self, **changes) -> "ExtractedItem":
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

    @property
    def key(self) -> str:
        # Deduplication keys on the normalized value alone; a second status
        # for the same medication is a conflict, not a new item.
        return self.value


_EVOLVABLE = frozenset(f.name for f in fields(ExtractedItem)) - {"value"}
_BLANK_ITEM = ExtractedItem("", "")


@dataclass(frozen=True)
class ExtractionSet:
    """Ordered, key-deduplicated collection of non-pruned extracted items."""

    items: tuple[ExtractedItem, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for item in self.items:
            if item.pruned:
                raise ValueError("ExtractionSet holds non-pruned items only")
            if item.key in seen:
                raise ValueError(f"duplicate key {item.key!r} in ExtractionSet")
            seen.add(item.key)

    @classmethod
    def empty(cls) -> "ExtractionSet":
        return cls(())

    def keys(self) -> tuple[str, ...]:
        return tuple(item.key for item in self.items)

    def get(self, key: str) -> ExtractedItem | None:
        for item in self.items:
            if item.key == key:
                return item
        return None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __contains__(self, key: str) -> bool:
        return any(item.key == key for item in self.items)


def merge(
    base: ExtractionSet, additions: list[ExtractedItem] | tuple[ExtractedItem, ...]
) -> tuple[ExtractionSet, int, list[str]]:
    """Union of `base` with `additions`, preserving insertion order.

    Additions whose key is already present are dropped; a dropped addition
    that disagrees on status keeps the earlier status and reports the
    conflict. Returns (merged set, count of genuinely new items, warnings).
    """
    items = list(base.items)
    present = {item.key: item for item in items}
    warnings: list[str] = []
    new_count = 0
    for addition in additions:
        if addition.key == "":
            continue
        existing = present.get(addition.key)
        if existing is None:
            items.append(addition)
            present[addition.key] = addition
            new_count += 1
        elif existing.status != addition.status:
            warnings.append(
                f"status conflict for {addition.key!r}: kept "
                f"{existing.status.value if existing.status else None} from {existing.origin}, "
                f"ignored {addition.status.value if addition.status else None} from {addition.origin}"
            )
    return ExtractionSet(tuple(items)), new_count, warnings
