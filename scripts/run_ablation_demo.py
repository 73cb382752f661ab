#!/usr/bin/env python3
"""Reproduce the step-ablation table on the engineered offline corpus.

Each pipeline variant runs over the same 50 scripted notes; the table
shows the omission pass buying recall, the prune pass buying precision,
and the full chain landing the best F1. The single-call variant scores
exactly like the plain first pass because nothing acts on its appended
verification instructions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from selfverify.cli import CliError, check_workers, parse_seeds
from selfverify.evaluation import render_dsv, render_text_table
from selfverify.pipeline import PipelineConfig, run_ablation
from selfverify.synthetic import directional_backend, directional_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--dsv", help="also write the table to this TSV file")
    args = parser.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
        check_workers(args.workers)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code

    documents, gold = directional_corpus()
    rows = run_ablation(
        directional_backend,
        PipelineConfig(demonstrations_k=0),
        documents,
        gold,
        seeds,
        workers=args.workers,
        with_megaprompt=True,
    )
    print(render_text_table(rows))
    if args.dsv:
        Path(args.dsv).write_text(render_dsv(rows), encoding="utf-8")
        print(f"wrote {args.dsv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
