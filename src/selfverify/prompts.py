"""Prompt construction from the on-disk template catalog.

Templates live in catalog/<task_family>/<step>.txt and are str.format
strings: {document}, {items}, ... name the fields, and a literal brace is
written {{ or }}. Values are inserted verbatim, so braces in clinical text
are harmless. The catalog VERSION string is recorded in run manifests so
result files identify the prompt wording they were produced with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .core import ExtractionSet, StatusLabel, TaskFamily, TaskKind

CATALOG_ROOT = Path(__file__).parent / "catalog"

FAMILY_STEPS = ("original", "omission", "evidence", "prune", "prune_no_evidence")
SHARED_STEPS = ("megaprompt_postscript",)

# Demonstrations accompany short-input tasks only; long inputs leave no
# room in context, and replacing them with repeat omission passes is the
# whole point of the long-input configuration.
DEFAULT_DEMONSTRATIONS = 5


def catalog_version() -> str:
    return (CATALOG_ROOT / "VERSION").read_text(encoding="utf-8").strip()


@lru_cache(maxsize=None)
def _template(family_dir: str, step: str) -> str:
    """Read each template once per process; the catalog is fixed at install."""
    return (CATALOG_ROOT / family_dir / f"{step}.txt").read_text(encoding="utf-8")


def family_template(family: TaskFamily, step: str) -> str:
    if step not in FAMILY_STEPS and step != "icd_map":
        raise ValueError(f"unknown prompt step {step!r}")
    return _template(family.value, step)


def shared_template(step: str) -> str:
    if step not in SHARED_STEPS:
        raise ValueError(f"unknown shared prompt {step!r}")
    return _template("shared", step)


@dataclass(frozen=True)
class DemoExample:
    """One few-shot demonstration: input text plus the expected answer block."""

    text: str
    answer: str


def render_answer(task: TaskKind, values: list[tuple[str, StatusLabel | None]]) -> str:
    """Render gold values the way the prompts ask the model to answer."""
    lines = []
    for value, status in values:
        if task.wants_status:
            label = (status or StatusLabel.NEITHER).value.capitalize()
            lines.append(f"- {value}: {label}")
        else:
            lines.append(f"- {value}")
    return "\n".join(lines) if lines else "None"


def render_demonstrations(demos: list[DemoExample]) -> str:
    if not demos:
        return ""
    blocks = [f"Text:\n{d.text}\nAnswer:\n{d.answer}" for d in demos]
    return "Here are some examples.\n\n" + "\n\n".join(blocks) + "\n\n"


def sample_demonstrations(
    pool: list[DemoExample], k: int, seed: int
) -> list[DemoExample]:
    """Draw k demonstrations without replacement, deterministically per seed."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(pool):
        raise ValueError(f"asked for {k} demonstrations but the pool has {len(pool)}")
    if k == 0:
        return []
    return random.Random(seed).sample(pool, k)


def _items_block(items: ExtractionSet | list[str], with_status: bool = False) -> str:
    lines: list[str] = []
    if isinstance(items, ExtractionSet):
        for item in items:
            if with_status and item.status is not None:
                lines.append(f"- {item.value}: {item.status.value.capitalize()}")
            else:
                lines.append(f"- {item.value}")
    else:
        lines.extend(f"- {v}" for v in items)
    return "\n".join(lines) if lines else "(none)"


def build_original_prompt(
    task: TaskKind,
    document_text: str,
    demonstrations: list[DemoExample] | None = None,
) -> str:
    return family_template(task.family, "original").format(
        demonstrations=render_demonstrations(demonstrations or []),
        document=document_text,
    )


def build_omission_prompt(task: TaskKind, document_text: str, items: ExtractionSet | list[str]) -> str:
    return family_template(task.family, "omission").format(
        document=document_text,
        items=_items_block(items, with_status=task.wants_status),
    )


def build_evidence_prompt(task: TaskKind, document_text: str, items: ExtractionSet | list[str]) -> str:
    return family_template(task.family, "evidence").format(
        document=document_text,
        items=_items_block(items),
    )


def build_prune_prompt(task: TaskKind, document_text: str, item_value: str, quote: str | None = None) -> str:
    """Per-item keep/discard question; with a quote when grounding ran."""
    if quote is not None:
        return family_template(task.family, "prune").format(
            document=document_text, item=item_value, quote=quote
        )
    return family_template(task.family, "prune_no_evidence").format(
        document=document_text, item=item_value
    )


def build_icd_map_prompt(task: TaskKind, items: ExtractionSet | list[str]) -> str:
    if task.family is not TaskFamily.ICD_CODE:
        raise ValueError("code mapping only applies to ICD tasks")
    return family_template(task.family, "icd_map").format(
        items=_items_block(items),
        icd_version=str(task.icd_version),
    )


def build_megaprompt(
    task: TaskKind,
    document_text: str,
    demonstrations: list[DemoExample] | None = None,
) -> str:
    """Single-call variant: the original prompt plus verification postscript."""
    base = build_original_prompt(task, document_text, demonstrations)
    postscript = shared_template("megaprompt_postscript").format(
        item_noun=task.item_noun,
        source_noun=task.source_noun,
    )
    return f"{base}\n\n{postscript}"
