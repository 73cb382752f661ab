"""Test-only helpers built on the package's public surface."""

from __future__ import annotations

import random

from selfverify.backend import MockBackend, ScriptStep


def backend_for_cases(cases) -> MockBackend:
    """One scripted backend covering several planned cases at once.

    Every step matcher requires its own case marker, so cases can share
    a backend without answering each other's prompts.
    """
    steps: list[ScriptStep] = []
    for case in cases:
        steps.extend(case.steps)
    return MockBackend(steps)


_FUZZ_FRAGMENTS = (
    "- aspirin (active)",
    "* metformin: discontinued",
    "• item one",
    "1. first\n2) second",
    "None",
    "none.",
    "No additional items were found.",
    "There are no new medications.",
    'hypertension: "History of hypertension"',
    'x: "unbalanced',
    "Yes, keep it.",
    "No - remove.",
    "maybe?",
    "J44.1 and 250.00 and S06.0X1A",
    "::::",
    "“smart quotes”",
    "ünïcode ΣΩ bullets •·‣",
    "a" * 300,
    "\n\n\n",
    "\t - \t",
    "item - with - dashes",
    "(discontinued)",
    "drug one; drug two",
)


def fuzz_text(rng: random.Random) -> str:
    """One reply-like string: fragments, fragments with a cut, or printable noise."""
    roll = rng.random()
    if roll < 0.4:
        text = rng.choice(_FUZZ_FRAGMENTS)
        if rng.random() < 0.5:
            text = text + "\n" + rng.choice(_FUZZ_FRAGMENTS)
    elif roll < 0.7:
        base = rng.choice(_FUZZ_FRAGMENTS)
        cut = rng.randint(0, len(base))
        text = base[:cut] + rng.choice(("", " ", "-", ":", '"')) + base[cut:]
    else:
        size = rng.randint(0, 80)
        text = "".join(
            chr(rng.choice((32, 10, 45, 58, 34) + tuple(range(33, 127)))) for _ in range(size)
        )
    return text
