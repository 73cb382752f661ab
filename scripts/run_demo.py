#!/usr/bin/env python3
"""Run the worked extraction demo offline and emit its audit report.

Drives one clinical note through all four pipeline steps against the
scripted backend in fixtures/, prints what each step decided, then
writes a run directory with the HTML report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from selfverify.backend import MockBackend, load_script
from selfverify.core import icd_task
from selfverify.data import (
    RunManifest,
    load_dataset,
    load_run,
    records_to_documents,
    render_report_html,
    write_run,
)
from selfverify.evaluation import evaluate_doc
from selfverify.pipeline import PipelineConfig, run_batch
from selfverify.prompts import catalog_version

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dataset", default=str(REPO / "fixtures" / "demo_diagnosis.jsonl")
    )
    parser.add_argument("--script", default=str(REPO / "fixtures" / "demo_script.jsonl"))
    parser.add_argument("--out", default="runs/demo")
    args = parser.parse_args()

    out_dir = Path(args.out)
    if out_dir.exists():
        print(f"error: {out_dir} already exists; remove it or pass --out", file=sys.stderr)
        return 2

    # Diagnosis extraction without the code-mapping call.
    task = icd_task(10)
    config = PipelineConfig(icd_mapping=False)
    records, _ = load_dataset(args.dataset)
    documents = records_to_documents(records, task)
    backend = MockBackend(load_script(args.script))

    results = run_batch(backend, config, documents, seeds=[0], workers=1)
    gold = {r.doc_id: r.gold_values() for r in records}

    for result in results:
        print(f"document {result.doc_id} ({result.omission_iters} omission rounds)")
        for item in result.final:
            quote = item.evidence.quote if item.evidence else "no quote"
            print(f'  kept    {item.value}  [{quote}]')
        for item in result.pruned:
            print(f"  pruned  {item.value}  ({item.prune_reason})")
        metrics = evaluate_doc(result.doc_id, [i.value for i in result.final], gold[result.doc_id])
        print(
            f"  scores  P={metrics.precision:.3f} R={metrics.recall:.3f} F1={metrics.f1:.3f}"
        )

    manifest = RunManifest(
        run_id=out_dir.name,
        task=task.name,
        backend="mock",
        model_id=config.model_id,
        seeds=[0],
        workers=1,
        config=config.describe(task),
        catalog_version=catalog_version(),
        dataset=str(args.dataset),
        n_documents=len(documents),
    )
    write_run(out_dir, manifest, results)
    report = out_dir / "report.html"
    report.write_text(render_report_html(*load_run(out_dir)), encoding="utf-8")
    print(f"report: {report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
