"""Seeded long clinical notes with planned evidence quotes, for `long_notes`.

Each note is 8-20k characters of filler prose with five diagnoses, each
documented by one passage. The scripted evidence answer quotes those
passages in five planned ways: two exact, one with its case changed, one
edited (about one substituted letter per 25 characters) and one that does
not occur in the note at all. The plan records the span and match kind
every quote must resolve to, the prune verdicts and the final ICD-10 codes,
so a run is checked by equality with the plan.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

from selfverify.backend import MockBackend, ScriptStep
from selfverify.core import Document, icd_task

MARKER = re.compile(r"Record LN-\d+-\d+\.")

DIAGNOSES = (
    ("community acquired pneumonia", "J18.9"),
    ("type 2 diabetes mellitus", "E11.9"),
    ("essential hypertension", "I10"),
    ("atrial fibrillation", "I48.91"),
    ("congestive heart failure", "I50.9"),
    ("acute kidney injury", "N17.9"),
    ("urinary tract infection", "N39.0"),
    ("chronic obstructive pulmonary disease", "J44.9"),
    ("hypothyroidism", "E03.9"),
    ("hyperlipidemia", "E78.5"),
    ("iron deficiency anemia", "D50.9"),
    ("major depressive disorder", "F32.9"),
    ("generalized anxiety disorder", "F41.1"),
    ("gastroesophageal reflux disease", "K21.9"),
    ("obstructive sleep apnea", "G47.33"),
    ("hypokalemia", "E87.6"),
    ("hyponatremia", "E87.1"),
    ("sepsis", "A41.9"),
    ("deep vein thrombosis", "I82.409"),
    ("pulmonary embolism", "I26.99"),
    ("alcohol use disorder", "F10.20"),
    ("cirrhosis of liver", "K74.60"),
    ("acute pancreatitis", "K85.90"),
    ("gout", "M10.9"),
    ("coronary artery disease", "I25.10"),
    ("peripheral artery disease", "I73.9"),
    ("benign prostatic hyperplasia", "N40.0"),
    ("obesity", "E66.9"),
    ("vitamin d deficiency", "E55.9"),
    ("ischemic stroke", "I63.9"),
    ("seizure disorder", "G40.909"),
    ("rheumatoid arthritis", "M06.9"),
)

# Note lengths in corpus order (84k characters for six notes) and the length
# of every evidence quote.
NOTE_CHARS = (8000, 10400, 12800, 15200, 17600, 20000)
QUOTE_CHARS = 72

# Locator outcome planned for each of the five quotes of a note.
KINDS = ("exact", "exact", "case_insensitive", "fuzzy", "not_found")

_SECTIONS = (
    "History of present illness",
    "Hospital course",
    "Review of systems",
    "Physical examination",
    "Laboratory data",
    "Medications on admission",
    "Social history",
    "Discharge instructions",
)
_SUBJECTS = (
    "The patient", "She", "He", "The family", "Nursing staff", "The team",
    "Physical therapy", "The consultant", "Overnight coverage", "The primary physician",
)
_VERBS = (
    "reported", "described", "noted", "denied", "reviewed", "confirmed",
    "documented", "discussed", "observed", "recorded",
)
_OBJECTS = (
    "mild fatigue", "intermittent nausea", "stable vital signs", "a normal appetite",
    "improving mobility", "good urine output", "clear lung sounds", "no new rash",
    "adequate pain control", "a tolerated diet", "regular sleep", "steady gait",
    "intact sensation", "no chest discomfort", "soft abdomen", "warm extremities",
)
_TAILS = (
    "during morning rounds", "after the medication change", "on repeat assessment",
    "before discharge planning", "while ambulating in the hallway", "at the bedside",
    "in the afternoon", "following the infusion", "per the flowsheet",
    "compared with the prior day",
)
# Each note draws its five evidence passages from distinct leads and tails,
# so no passage lies within fuzzy distance of another and the locator's work
# does not depend on the seed.
_LEADS = (
    "Assessment day", "Problem list, visit", "Attending note, day", "Consult, day",
    "Progress note, day", "Discharge review, day",
)
_EVIDENCE_TAILS = (
    "remains the working diagnosis for this admission and beyond",
    "was confirmed by the admitting team on careful examination",
    "is documented, treated, and scheduled for outpatient follow-up",
    "was reviewed with pharmacy and the plan is unchanged for now",
    "explains the presenting complaint according to the cardiology fellow",
    "has been stable since the last visit with no new concerns raised",
)
# Words that never occur in generated note text, for the quote that is absent.
_ABSENT_WORDS = (
    "quartz", "harbor", "violin", "meadow", "lantern", "glacier", "saffron",
    "orbit", "canyon", "whisker", "pebble", "zephyr", "jigsaw", "fjord",
)


@dataclass(frozen=True)
class PlannedQuote:
    diagnosis: str
    code: str
    kind: str
    quote: str
    start: int  # planned span; 0, 0 when not found
    end: int


@dataclass(frozen=True)
class LongNote:
    document: Document
    quotes: tuple[PlannedQuote, ...]

    @property
    def final_codes(self) -> frozenset[str]:
        return frozenset(q.code for q in self.quotes if q.kind != "not_found")


def _sentence(rng: random.Random) -> str:
    return (
        f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {rng.choice(_OBJECTS)}"
        f" {rng.choice(_TAILS)}."
    )


def _evidence_passages(rng: random.Random, names: list[str]) -> list[str]:
    """One passage of exactly QUOTE_CHARS characters per diagnosis."""
    leads = rng.sample(_LEADS, len(names))
    tails = rng.sample(_EVIDENCE_TAILS, len(names))
    return [
        f"{lead} {rng.randint(10, 29)}: {name} {tail}"[: QUOTE_CHARS - 1] + "."
        for lead, name, tail in zip(leads, names, tails)
    ]


def _edit(rng: random.Random, quote: str) -> str:
    """Substitute about one letter per 25 characters, away from the ends."""
    letters = [i for i in range(3, len(quote) - 3) if quote[i].isalpha()]
    chars = list(quote)
    for i in sorted(rng.sample(letters, len(quote) // 25)):
        chars[i] = rng.choice([c for c in string.ascii_lowercase if c != quote[i].lower()])
    return "".join(chars)


def _absent_quote(rng: random.Random) -> str:
    words: list[str] = []
    while sum(len(w) + 1 for w in words) < QUOTE_CHARS:
        words.append(rng.choice(_ABSENT_WORDS))
    return " ".join(words).capitalize()[: QUOTE_CHARS - 1] + "."


def make_note(rng: random.Random, seed: int, index: int, chosen, length: int) -> LongNote:
    """One note of about `length` characters documenting the `chosen` diagnoses."""
    marker = f"Record LN-{seed}-{index}."
    passages = _evidence_passages(rng, [name for name, _ in chosen])
    # Each passage goes at the first sentence boundary past a random offset.
    order = list(range(len(passages)))
    rng.shuffle(order)
    pending = list(zip(sorted(rng.sample(range(200, length - 200), len(passages))), order))

    parts: list[str] = [f"{marker} Discharge summary."]
    spans: dict[int, tuple[int, int]] = {}
    size = len(parts[0])
    while size < length or pending:
        piece = f"\n\n{rng.choice(_SECTIONS)}:\n" if len(parts) % 12 == 1 else " "
        if pending and size >= pending[0][0]:
            _, j = pending.pop(0)
            spans[j] = (size + len(piece), size + len(piece) + len(passages[j]))
            piece += passages[j]
        else:
            piece += _sentence(rng)
        parts.append(piece)
        size += len(piece)
    text = "".join(parts)

    kinds = list(KINDS)
    rng.shuffle(kinds)
    quotes = []
    for j, ((name, code), kind) in enumerate(zip(chosen, kinds)):
        passage = passages[j]
        start, end = spans[j]
        if text[start:end] != passage or text.casefold().count(passage.casefold()) != 1:
            raise AssertionError(f"passage {j} of note {index} is not placed once")
        if kind == "exact":
            quote = passage
        elif kind == "case_insensitive":
            quote = passage.upper()
        elif kind == "fuzzy":
            quote = _edit(rng, passage)
        else:
            quote = _absent_quote(rng)
            start = end = 0
        quotes.append(PlannedQuote(name, code, kind, quote, start, end))
    document = Document(id=f"ln-{seed}-{index}", text=text, task=icd_task(10))
    return LongNote(document, tuple(quotes))


def make_corpus(seed: int, n_notes: int = 6) -> list[LongNote]:
    """`n_notes` long notes; no two share the set of diagnoses kept after prune.

    Note and quote lengths are fixed, so every seed asks the locator for the
    same amount of work.
    """
    rng = random.Random(seed)
    notes: list[LongNote] = []
    kept_sets: set[frozenset[str]] = set()
    while len(notes) < n_notes:
        chosen = rng.sample(DIAGNOSES, len(KINDS))
        length = NOTE_CHARS[len(notes) % len(NOTE_CHARS)]
        note = make_note(rng, seed, len(notes), chosen, length)
        kept = frozenset(q.diagnosis for q in note.quotes if q.kind != "not_found")
        if kept in kept_sets:
            continue
        kept_sets.add(kept)
        notes.append(note)
    return notes


def script_steps(notes: list[LongNote]) -> list[ScriptStep]:
    """Script covering original, omission, evidence, prune and code mapping.

    The code-mapping prompt carries no note text, so its step matches on the
    names of the diagnoses the prune step kept.
    """
    steps: list[ScriptStep] = []
    for note in notes:
        marker = MARKER.search(note.document.text).group(0)
        names = [q.diagnosis for q in note.quotes]
        steps.append(
            ScriptStep(["List every diagnosis", marker], "\n".join(f"- {n}" for n in names))
        )
        steps.append(ScriptStep(["missing from the list above", marker], "None"))
        steps.append(
            ScriptStep(
                ["give one exact quote from the", marker],
                "\n".join(f'- {q.diagnosis}: "{q.quote}"' for q in note.quotes),
            )
        )
        for q in note.quotes:
            verdict = (
                "No. The quoted passage is not in the note."
                if q.kind == "not_found"
                else "Yes. The quote documents this diagnosis."
            )
            steps.append(ScriptStep([f"Candidate diagnosis: {q.diagnosis}\n", marker], verdict))
        kept = [q for q in note.quotes if q.kind != "not_found"]
        steps.append(
            ScriptStep(
                ["Convert each diagnosis"] + [f"- {q.diagnosis}\n" for q in kept],
                "\n".join(f"- {q.diagnosis}: {q.code}" for q in kept),
            )
        )
    return steps


def backend(notes: list[LongNote]) -> MockBackend:
    return MockBackend(script_steps(notes))
