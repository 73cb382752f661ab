"""The benchmark's traced run wraps selfverify functions by attribute name.

A refactor that renames or drops one of them breaks only a traced
benchmark run; this test catches it in the ordinary suite.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import replace
from pathlib import Path

from selfverify.parsing import fold_quote

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


def test_each_locate_does_only_its_own_quotes_work(monkeypatch):
    """Per-quote locator work falls inside that quote's `pipeline.locate_quote` call.

    One long note whose evidence reply has two quotes that reach the pieces
    filter at the cap m // 4: a passage with ten letters substituted and
    one written in the note's own words. Each call filters and scans only
    its own quote, so the per-kind locator times measure each quote's own
    work.
    """
    monkeypatch.syspath_prepend(str(BENCHMARK))
    longnotes = importlib.import_module("longnotes")
    from selfverify import parsing, pipeline
    from selfverify.pipeline import PipelineConfig, run_batch

    [note] = longnotes.make_corpus(0, n_notes=1)
    text = note.document.text
    rng = random.Random(0)
    words = text.split()
    own_words = " ".join(rng.choice(words) for _ in range(20))[:72]
    quotes = []
    for q in note.quotes:
        if q.kind == "fuzzy":
            chars = list(text[q.start : q.end])
            for i in range(3, 69, 7):
                chars[i] = "#"
            q = replace(q, quote="".join(chars))
        elif q.kind == "not_found":
            q = replace(q, quote=own_words)
        quotes.append(q)
    note = replace(note, quotes=tuple(quotes))

    work: list[tuple[str, str]] = []
    filtered, scanned = parsing._piece_slices, parsing._edit_rows

    def counted_filter(folded, nq, j, c):
        if c == len(nq) // 4:
            work.append(("filter", nq))
        return filtered(folded, nq, j, c)

    def counted_scan(needle, haystack, anchored, cap):
        work.append(("anchored" if anchored else "free", needle))
        return scanned(needle, haystack, anchored, cap)

    located = []
    locate = pipeline.locate_quote

    def recorded(text, quote, search=None):
        work.clear()
        span = locate(text, quote, search)
        located.append((quote, span, list(work)))
        return span

    monkeypatch.setattr(parsing, "_piece_slices", counted_filter)
    monkeypatch.setattr(parsing, "_edit_rows", counted_scan)
    monkeypatch.setattr(pipeline, "locate_quote", recorded)
    run_batch(longnotes.backend([note]), PipelineConfig(), [note.document], seeds=[0], workers=1)
    filtering = [(quote, calls) for quote, _, calls in located if ("filter", fold_quote(quote)) in calls]
    assert len(filtering) == 2
    for quote, calls in filtering:
        nq = fold_quote(quote)
        assert ("free", nq) in calls
        assert {needle for _, needle in calls} <= {nq, nq[::-1]}, quote
    assert all(not calls for quote, span, calls in located if span.match_kind.value == "exact")


def test_tracer_counts_every_match_check(monkeypatch):
    """`backend.mock.match_checks_per_call` reads the tracer's count of `ScriptStep.matches` calls.

    The last note of long_notes seed 0, run against the script of all six
    notes, makes 13 mock calls whose candidate steps take 54 checks: a
    call tries the steps of every note filed under the same substring
    until its own note's step. A backend that decided steps without
    `ScriptStep.matches` would make that metric read 0.
    """
    monkeypatch.syspath_prepend(str(BENCHMARK))
    longnotes = importlib.import_module("longnotes")
    from selfverify.pipeline import PipelineConfig, run_batch

    notes = longnotes.make_corpus(0)
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        tracer.active = True
        run_batch(longnotes.backend(notes), PipelineConfig(), [notes[-1].document], seeds=[0], workers=1)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert sum(s.name == "backend.mock.complete" for s in tracer.spans) == 13
    assert tracer.counts()["backend.mock.match_check"] == 54
