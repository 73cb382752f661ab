"""Test-only helpers built on the package's public surface."""

from __future__ import annotations

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
