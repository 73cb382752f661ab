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
