"""The benchmark's traced run wraps selfverify functions by attribute name.

A refactor that renames or drops one of them breaks only a traced
benchmark run; this test catches it in the ordinary suite.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"


def test_tracer_sees_one_locate_span_per_quote(monkeypatch):
    """The per-layer locator metrics read one `parsing.locate_quote` span per quote.

    One long note of the benchmark's long_notes kind, with its five planned
    quotes (exact, exact, case-folded, edited and missing), must give five
    spans whose outcomes are the planned ones.
    """
    monkeypatch.syspath_prepend(str(BENCHMARK))
    longnotes = importlib.import_module("longnotes")
    from selfverify.pipeline import PipelineConfig, run_batch

    [note] = longnotes.make_corpus(0, n_notes=1)
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        tracer.active = True
        run_batch(longnotes.backend([note]), PipelineConfig(), [note.document], seeds=[0], workers=1)
    finally:
        tracer.active = False
        tracer.uninstall()
    spans = [s for s in tracer.spans if s.name == "parsing.locate_quote"]
    assert sorted(kind for _, kind in (s.info for s in spans)) == sorted(longnotes.KINDS)
    assert {chars for chars, _ in (s.info for s in spans)} == {len(note.document.text)}
