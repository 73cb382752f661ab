"""Synthetic corpora paired with scripted backends, for offline runs.

Two flavors live here. The directional corpus is a fixed 50-note set
engineered so each verification step moves the aggregate metrics in a
known direction: the first pass misses one medication per note and
invents one, the omission pass recovers the missed one (and on even
notes invents another), and the prune pass removes inventions (and on
every tenth note wrongly removes a real one). The planned cases are
seeded random documents whose scripts encode the exact sets the
pipeline should produce, so end-to-end behavior can be checked by
equality rather than by eyeball.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .backend import MockBackend, ScriptStep
from .core import Document, StatusLabel, TaskKind, medication_status_task

REAL_MEDS = (
    "aspirin",
    "metformin",
    "lisinopril",
    "atorvastatin",
    "omeprazole",
    "warfarin",
    "insulin glargine",
    "furosemide",
    "amlodipine",
    "sertraline",
)

# Invented names that never occur in any generated note text.
FAKE_MEDS = ("phantomycin", "mirageprazole", "ghostatin", "fablodipine")

DIRECTIONAL_SIZE = 50


def bullet_lines(values, statuses=None) -> str:
    """Render a scripted extraction answer, one bullet per value."""
    values = list(values)
    if not values:
        return "None"
    if statuses is None:
        return "\n".join(f"- {v}" for v in values)
    return "\n".join(f"- {v} ({statuses[v].value})" for v in values)


def evidence_lines(values) -> str:
    """Render a scripted grounding answer quoting each value verbatim."""
    return "\n".join(f'- {v}: "{v}"' for v in values)


def _note_marker(i: int) -> str:
    return f"Note {i}."


def directional_document(i: int, task: TaskKind) -> tuple[Document, list[str]]:
    """Build note i and its gold medication list."""
    meds = [REAL_MEDS[(i + j) % len(REAL_MEDS)] for j in range(4)]
    text = (
        f"{_note_marker(i)} The patient takes {meds[0]} and {meds[1]} every"
        f" morning. {meds[2]} was started last week, and {meds[3]} continues"
        f" at the prior dose."
    )
    return Document(id=f"note-{i:02d}", text=text, task=task), meds


def directional_corpus(task: TaskKind | None = None):
    """The 50 engineered notes with their gold values, in a fixed order."""
    task = task or medication_status_task()
    docs: list[Document] = []
    gold: dict[str, list[str]] = {}
    for i in range(DIRECTIONAL_SIZE):
        doc, meds = directional_document(i, task)
        docs.append(doc)
        gold[doc.id] = meds
    return docs, gold


@lru_cache(maxsize=None)
def _directional_script() -> tuple[tuple[list[str] | str, str, bool], ...]:
    """The (matcher, response, once) of each step of the directional script."""
    statuses = {m: StatusLabel.ACTIVE for m in REAL_MEDS + FAKE_MEDS[:2]}
    steps: list[tuple[list[str] | str, str, bool]] = []
    for i in range(DIRECTIONAL_SIZE):
        marker = _note_marker(i)
        _, meds = directional_document(i, medication_status_task())
        found_first = meds[:3] + [FAKE_MEDS[0]]
        recovered = [meds[3]] + ([FAKE_MEDS[1]] if i % 2 == 0 else [])
        steps.append((["List every medication", marker], bullet_lines(found_first, statuses), False))
        steps.append((["missing from the list above", marker], bullet_lines(recovered, statuses), True))
        steps.append((["exact quote", marker], evidence_lines(meds), False))
        for fake in FAKE_MEDS[:2]:
            steps.append(([f"Candidate medication: {fake}", marker],
                          "No. This drug is not mentioned anywhere in the note.", False))
        if i % 10 == 0:
            steps.append(([f"Candidate medication: {meds[1]}", marker],
                          "No. On reflection this one looks doubtful.", False))
        steps.append((["Candidate medication: ", marker],
                      "Yes. The note clearly mentions this medication.", False))
    steps.append(("missing from the list above", "None", False))
    return tuple(steps)


def directional_backend() -> MockBackend:
    """A fresh scripted backend answering every prompt for the corpus.

    Fresh because the omission steps are consumed on first use; reuse a
    single instance across ablation variants and the second variant
    would see the wrong omission answers. Its steps are fresh too, made
    from script data built once, so an edit of one backend's step is not
    seen by another.
    """
    return MockBackend([ScriptStep(list(m) if isinstance(m, list) else m, response, once)
                        for m, response, once in _directional_script()])


_KEEP_TEXTS = (
    "Yes.",
    "Yes - clearly documented in the note.",
    "Keep. The note mentions it explicitly.",
    "Correct, this one appears in the note.",
)
_REMOVE_TEXTS = (
    "No.",
    "No - this is not in the note.",
    "Remove: nothing in the note supports it.",
    "Incorrect, the note never mentions this.",
)
_AMBIGUOUS_TEXT = "Hard to say from this note alone."

# A quote far from any generated note text, so grounding fails on it.
_BOGUS_QUOTE = "qqxxzzvvqq wwkkjjhhgg"


@dataclass(frozen=True)
class PlannedCase:
    """A random document plus the exact sets a correct run must produce."""

    document: Document
    gold: tuple[str, ...]
    expected_original: frozenset[str]
    expected_pre_prune: frozenset[str]
    expected_final: frozenset[str]
    expected_status: dict[str, StatusLabel]
    expected_omission_iters: int
    steps: tuple[ScriptStep, ...]


def plan_case(
    rng: random.Random,
    index: int,
    task: TaskKind | None = None,
    max_iters: int = 10,
) -> PlannedCase:
    """Generate one document and the script that drives it.

    The script decides what the mock model finds at first, what each
    omission round adds, every grounding quote, and every prune verdict,
    so the expected output sets are known before the pipeline runs.
    """
    task = task or medication_status_task()
    marker = f"Case {index}."
    reals = [f"med{n:02d}" for n in range(60)]
    fakes = [f"fake{n:02d}" for n in range(60)]

    n_gold = rng.randint(0, 6)
    gold = rng.sample(reals, n_gold)
    unused_reals = [v for v in reals if v not in gold]
    if gold:
        text = f"{marker} The patient takes " + ", ".join(gold) + "."
    else:
        text = f"{marker} No medications are mentioned today."
    document = Document(id=f"case-{index}", text=text, task=task)

    status_of: dict[str, StatusLabel] = {}

    def status(value: str) -> StatusLabel:
        if value not in status_of:
            status_of[value] = rng.choice(list(StatusLabel))
        return status_of[value]

    hallucinated = rng.sample(fakes, rng.randint(0, 2))
    found_first = [v for v in gold if rng.random() < 0.7] + hallucinated
    current = set(found_first)

    batches: list[list[str]] = []
    if rng.random() < 0.08:
        # Stress the iteration cap: every round finds something new.
        extras = rng.sample(unused_reals, max_iters)
        batches = [[v] for v in extras]
        expected_iters = max_iters
    else:
        remaining = [v for v in gold if v not in current]
        rng.shuffle(remaining)
        while remaining:
            take = rng.randint(1, len(remaining))
            batch = remaining[:take]
            remaining = remaining[take:]
            if rng.random() < 0.3:
                extra_fake = next((f for f in fakes if f not in current), None)
                if extra_fake is not None:
                    batch.append(extra_fake)
            batches.append(batch)
        batches = batches[: max_iters - 1]
        for batch in batches:
            current.update(batch)
        expected_iters = len(batches) + 1

    pre_prune = set(found_first)
    for batch in batches:
        pre_prune.update(batch)
    for value in sorted(pre_prune):
        status(value)

    final = set()
    verdict_steps: list[ScriptStep] = []
    for value in sorted(pre_prune):
        roll = rng.random()
        is_fake = value.startswith("fake")
        if roll < 0.05:
            response = _AMBIGUOUS_TEXT
            keep = True
        elif is_fake:
            keep = roll < 0.15
            response = rng.choice(_KEEP_TEXTS if keep else _REMOVE_TEXTS)
        else:
            keep = roll < 0.9
            response = rng.choice(_KEEP_TEXTS if keep else _REMOVE_TEXTS)
        if keep:
            final.add(value)
        verdict_steps.append(
            ScriptStep([f"Candidate medication: {value}", marker], response)
        )

    quote_lines = []
    for value in sorted(pre_prune):
        roll = rng.random()
        if value in gold and roll < 0.8:
            quote_lines.append(f'- {value}: "{value}"')
        elif roll < 0.4:
            quote_lines.append(f'- {value}: "{_BOGUS_QUOTE}"')

    steps: list[ScriptStep] = [
        ScriptStep(
            ["List every medication", marker],
            bullet_lines(found_first, status_of),
        )
    ]
    for batch in batches:
        steps.append(
            ScriptStep(
                ["missing from the list above", marker],
                bullet_lines(batch, status_of),
                once=True,
            )
        )
    steps.append(ScriptStep(["missing from the list above", marker], "None"))
    steps.append(ScriptStep(["exact quote", marker], "\n".join(quote_lines) or "None"))
    steps.extend(verdict_steps)

    return PlannedCase(
        document=document,
        gold=tuple(gold),
        expected_original=frozenset(found_first),
        expected_pre_prune=frozenset(pre_prune),
        expected_final=frozenset(final),
        expected_status=dict(status_of),
        expected_omission_iters=expected_iters,
        steps=tuple(steps),
    )
