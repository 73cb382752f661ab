"""Command line front end: extract, evaluate, ablate, report, cache.

Exit codes: 0 success, 2 bad usage or configuration, 3 unreadable or
invalid input artifact (dataset, run dir, script, store), 4 run and
dataset disagree about which documents exist, 5 backend failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Iterator

from .backend import (
    Backend,
    BackendError,
    CachingBackend,
    HttpBackend,
    HttpConfig,
    MockBackend,
    ReplayBackend,
    ResponseStore,
    StoreCorrupt,
    load_script,
)
from .core import TASKS, TaskKind, normalize, task_by_name
from .data import (
    DatasetRecord,
    FormatError,
    RunExists,
    RunManifest,
    demo_pool_from_records,
    load_dataset,
    load_run,
    records_to_documents,
    render_report_html,
    write_run,
)
from .evaluation import (
    DocMetrics,
    evaluate_doc,
    filter_values,
    render_dsv,
    render_text_table,
    rows_to_records,
    score_run,
    status_accuracy,
    top_k_codes,
)
from .pipeline import OPTIONAL_STEPS, PipelineConfig, PipelineResult, run_ablation, run_batch
from .prompts import catalog_version

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MISMATCH = 4
EXIT_BACKEND = 5

# PipelineConfig fields a YAML config file may set; flags win over these.
_CONFIG_KEYS = tuple(f.name for f in fields(PipelineConfig))


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_steps(raw: str) -> tuple[str, ...]:
    text = raw.strip().lower()
    if text in ("none", ""):
        return ()
    if text == "full":
        return OPTIONAL_STEPS
    wanted = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [w for w in wanted if w not in OPTIONAL_STEPS]
    if unknown:
        raise CliError(
            EXIT_USAGE,
            f"unknown steps {unknown}; choose from {list(OPTIONAL_STEPS)}, 'full', or 'none'",
        )
    return tuple(s for s in OPTIONAL_STEPS if s in wanted)


def parse_seeds(raw: str) -> list[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise CliError(EXIT_USAGE, f"seeds must be comma-separated integers, got {raw!r}")
    if not seeds:
        raise CliError(EXIT_USAGE, "at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise CliError(EXIT_USAGE, f"seeds must be distinct, got {raw!r}")
    return seeds


def check_workers(workers: int) -> None:
    if workers < 1:
        raise CliError(EXIT_USAGE, "--workers must be at least 1")


def _task(name: str) -> TaskKind:
    try:
        return task_by_name(name)
    except KeyError as exc:
        raise CliError(EXIT_USAGE, str(exc))


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    import yaml  # only --config needs it

    try:
        loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read config file: {exc}")
    except yaml.YAMLError as exc:
        raise CliError(EXIT_USAGE, f"config file is not valid YAML: {exc}")
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise CliError(EXIT_USAGE, "config file must be a YAML mapping")
    unknown = sorted(set(loaded) - set(_CONFIG_KEYS))
    if unknown:
        raise CliError(
            EXIT_USAGE, f"unknown config keys {unknown}; known: {list(_CONFIG_KEYS)}"
        )
    return loaded


def _pipeline_config(args) -> PipelineConfig:
    settings = _read_config_file(getattr(args, "config", None))
    if isinstance(settings.get("steps"), list):
        settings["steps"] = tuple(settings["steps"])
    if getattr(args, "steps", None) is not None:
        settings["steps"] = _parse_steps(args.steps)
    if getattr(args, "model", None) is not None:
        settings["model_id"] = args.model
    if getattr(args, "demos", None) is not None:
        settings["demonstrations_k"] = args.demos
    try:
        return PipelineConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"bad pipeline configuration: {exc}")


def _load_records(args) -> tuple[list[DatasetRecord], list[str]]:
    path = Path(args.dataset)
    try:
        records, warnings = load_dataset(path, lenient=getattr(args, "lenient", False))
    except FileNotFoundError:
        raise CliError(EXIT_DATA, f"dataset not found: {path}")
    except FormatError as exc:
        raise CliError(EXIT_DATA, f"{path}: {exc}")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return records, warnings


def _require_store(path: str) -> None:
    """Exit 3 unless a store file exists at `path`: opening one would create it."""
    if not Path(path).exists():
        raise CliError(EXIT_DATA, f"response store not found: {path}")


def _store(args) -> ResponseStore:
    if not getattr(args, "cache", None):
        raise CliError(EXIT_USAGE, f"--cache is required for backend {args.backend!r}")
    if args.backend == "replay":  # answers only from what was recorded
        _require_store(args.cache)
    with _store_errors():
        return ResponseStore(args.cache)


@contextmanager
def _store_errors() -> Iterator[None]:
    """Exit 3 with one `error:` line for a store file that is corrupt, a directory or gone."""
    try:
        yield
    except StoreCorrupt as exc:
        raise CliError(
            EXIT_DATA,
            f"response store is corrupt: {exc}; `selfverify cache repair --cache {exc.path}`"
            " truncates it to its last whole record",
        )
    except IsADirectoryError as exc:
        raise CliError(EXIT_DATA, f"response store is a directory: {exc.filename}")
    except FileNotFoundError as exc:  # removed since `_require_store` found it
        raise CliError(EXIT_DATA, f"response store not found: {exc.filename}")


def _mock_backend(args) -> MockBackend:
    if not getattr(args, "script", None):
        raise CliError(EXIT_USAGE, "--script is required for the mock backend")
    try:
        steps = load_script(args.script)
    except FileNotFoundError:
        raise CliError(EXIT_DATA, f"script not found: {args.script}")
    except ValueError as exc:
        raise CliError(EXIT_DATA, f"bad script file: {exc}")
    return MockBackend(steps, default=args.mock_default)


def make_backend(args) -> Backend:
    """Build the backend named by --backend from the relevant flags."""
    kind = args.backend
    if kind == "replay":
        return ReplayBackend(_store(args))
    if kind not in ("mock", "http", "record"):
        raise CliError(EXIT_USAGE, f"unknown backend {kind!r}")
    base: Backend
    if kind == "mock" or getattr(args, "script", None):
        base = _mock_backend(args)
    elif getattr(args, "endpoint", None):
        base = HttpBackend(HttpConfig(base_url=args.endpoint))
    else:
        raise CliError(EXIT_USAGE, f"--endpoint (or --script) is required for backend {kind!r}")
    if kind == "record" or getattr(args, "cache", None):
        return CachingBackend(base, _store(args))
    return base


def _documents_and_pool(config, task, records):
    """The eval documents and the demo pool, checked before any model call."""
    documents = records_to_documents(records, task)
    if not documents:
        raise CliError(EXIT_DATA, "dataset has no eval-split documents")
    demo_pool = demo_pool_from_records(records, task)
    needed = config.resolved_k(task)
    if needed > len(demo_pool):
        raise CliError(
            EXIT_USAGE,
            f"{needed} demonstrations requested but the demo-pool split has "
            f"only {len(demo_pool)} documents",
        )
    return documents, demo_pool or None


def cmd_extract(args) -> int:
    task = _task(args.task)
    config = _pipeline_config(args)
    records, _ = _load_records(args)
    out_dir = Path(args.out)
    if out_dir.exists():  # before any model call is paid for
        raise CliError(EXIT_USAGE, f"run directory already exists: {out_dir}")
    backend = make_backend(args)
    seeds = parse_seeds(args.seeds)
    documents, demo_pool = _documents_and_pool(config, task, records)
    started = time.perf_counter()
    results = run_batch(
        backend,
        config,
        documents,
        seeds=seeds,
        demo_pool=demo_pool,
        workers=args.workers,
        megaprompt=args.megaprompt,
    )
    wall_seconds = time.perf_counter() - started
    manifest = RunManifest(
        run_id=out_dir.name,
        task=task.name,
        backend=args.backend,
        model_id=config.model_id,
        seeds=seeds,
        workers=args.workers,
        config=config.describe(task),
        catalog_version=catalog_version(),
        dataset=str(args.dataset),
        n_documents=len({r.doc_id for r in results}),
        wall_seconds=wall_seconds,
        megaprompt=args.megaprompt,
    )
    try:
        write_run(out_dir, manifest, results, include_traces=not args.no_traces)
    except RunExists:  # made while the run went on
        raise CliError(EXIT_USAGE, f"run directory already exists: {out_dir}")
    print(f"wrote {len(results)} results to {out_dir}")
    return EXIT_OK


def _gold_maps(records) -> tuple[dict[str, list[str]], dict[str, dict[str, str | None]]]:
    values: dict[str, list[str]] = {}
    statuses: dict[str, dict[str, str | None]] = {}
    for record in records:
        values[record.doc_id] = record.gold_values()
        statuses[record.doc_id] = {
            normalize(item.value): (item.status.value if item.status else None)
            for item in record.gold
        }
    return values, statuses


def _read_run(run_dir: str) -> tuple[dict, list[PipelineResult]]:
    """The run's manifest and results; exit 3 when a run file is missing."""
    try:
        return load_run(run_dir)
    except FileNotFoundError:
        raise CliError(EXIT_DATA, f"run directory not found or incomplete: {run_dir}")


def _check_output_dirs(*paths: str | None) -> None:
    """Exit 2 naming the first output path whose directory does not exist.

    Called before any work, so a mistyped path costs no model calls.
    """
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise CliError(EXIT_USAGE, f"cannot write {path}: no such directory")


def _write_output(path: str | Path, text: str) -> Path:
    """Write one output file; exit 2 naming the path when it cannot be written."""
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}")
    return path


def cmd_evaluate(args) -> int:
    if args.top_k is not None and args.top_k < 1:
        raise CliError(EXIT_USAGE, f"--top-k must be at least 1, got {args.top_k}")
    _check_output_dirs(args.json)
    manifest, results = _read_run(args.run)
    if not results:
        raise CliError(EXIT_DATA, f"run directory has no results: {args.run}")
    records, _ = _load_records(args)
    gold_values, gold_statuses = _gold_maps(records)

    missing = sorted({r.doc_id for r in results} - set(gold_values))
    if missing:
        more = "..." if len(missing) > 5 else ""
        raise CliError(EXIT_MISMATCH, f"run contains documents absent from the dataset: {missing[:5]}{more}")

    allowed: set[str] | None = None
    if args.top_k is not None:
        allowed = set(top_k_codes(gold_values.values(), k=args.top_k))

    scores: list[tuple[int, DocMetrics]] = []
    status_pairs: list[float] = []
    for result in results:
        predicted = [item.value for item in result.final]
        gold = gold_values[result.doc_id]
        if allowed is not None:
            predicted = filter_values(predicted, allowed)
            gold = filter_values(gold, allowed)
        metrics = evaluate_doc(result.doc_id, predicted, gold)
        scores.append((result.seed, metrics))
        if args.per_doc:
            print(f"seed={result.seed} doc={result.doc_id} "
                  f"P={metrics.precision:.3f} R={metrics.recall:.3f} F1={metrics.f1:.3f}")
        if args.status:
            predicted_status = {item.value: item.status for item in result.final}
            accuracy = status_accuracy(predicted_status, gold_statuses[result.doc_id])
            if accuracy is not None:
                status_pairs.append(accuracy)

    row = score_run(manifest.get("run_id", "run"), scores)
    print(render_text_table([row]))
    if args.status:
        if status_pairs:
            print(f"Status accuracy: {sum(status_pairs) / len(status_pairs):.3f}")
        else:
            print("Status accuracy: n/a (no shared values)")
    if args.json:
        _write_output(args.json, json.dumps(rows_to_records([row]), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_ablate(args) -> int:
    _check_output_dirs(args.dsv, args.json)
    task = _task(args.task)
    records, _ = _load_records(args)
    gold_values, _ = _gold_maps(records)
    seeds = parse_seeds(args.seeds)
    config = _pipeline_config(args)
    documents, demo_pool = _documents_and_pool(config, task, records)
    rows = run_ablation(
        lambda: make_backend(args),
        config,
        documents,
        gold_values,
        seeds,
        demo_pool=demo_pool,
        workers=args.workers,
        with_megaprompt=args.with_megaprompt,
    )
    print(render_text_table(rows))
    if args.dsv:
        _write_output(args.dsv, render_dsv(rows))
    if args.json:
        _write_output(args.json, json.dumps(rows_to_records(rows), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    report = render_report_html(*_read_run(args.run))
    path = _write_output(args.out or Path(args.run) / "report.html", report)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_cache(args) -> int:
    # Each action reads one store that must exist; only import's --cache and
    # export's --into are created when missing.
    _require_store(getattr(args, "from") if args.action == "import" else args.cache)
    if args.action == "repair":
        with _store_errors():
            dropped_bytes, dropped_records = ResponseStore.repair(args.cache)
        print(
            f"{args.cache}: dropped {dropped_bytes} bytes holding"
            f" {dropped_records} torn or invalid record(s)"
        )
        return EXIT_OK
    with _store_errors():
        store = ResponseStore(args.cache)
        if args.action == "stats":
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
        elif args.action == "purge":
            print(f"removed {store.purge()} entries")
        elif args.action == "export":
            added = ResponseStore(args.into).merge_from(args.cache)
            print(f"exported {added} new entries to {args.into}")
        elif args.action == "import":
            added = store.merge_from(getattr(args, "from"))
            print(f"imported {added} new entries")
    return EXIT_OK


def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend",
        choices=["mock", "http", "record", "replay"],
        default="mock",
        help="model backend (default: mock)",
    )
    sub.add_argument("--script", help="JSONL script for the mock backend")
    sub.add_argument(
        "--mock-default", help="fallback response when no script step matches"
    )
    sub.add_argument("--cache", help="response store file (record/replay/caching)")
    sub.add_argument("--endpoint", help="base URL for the http backend")
    sub.add_argument("--model", help="model id sent to the backend")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="JSONL dataset path")
    sub.add_argument("--config", help="YAML file with pipeline settings")
    sub.add_argument("--steps", help="comma list of omission,evidence,prune; or full/none")
    sub.add_argument("--demos", type=int, help="demonstration count override")
    sub.add_argument("--seeds", default="0", help="comma-separated seeds (default: 0)")
    sub.add_argument("--workers", type=int, default=4, help="documents in flight on a slow backend (default: 4)")
    sub.add_argument("--lenient", action="store_true", help="skip malformed dataset lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfverify",
        description="Few-shot clinical extraction with chained self-verification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    extract = commands.add_parser("extract", help="run the pipeline over a dataset")
    extract.add_argument("--task", required=True, choices=sorted(TASKS))
    _add_run_flags(extract)
    _add_backend_flags(extract)
    extract.add_argument("--out", required=True, help="run directory to create")
    extract.add_argument(
        "--megaprompt",
        action="store_true",
        help="single-call variant: verification folded into the first prompt",
    )
    extract.add_argument(
        "--no-traces", action="store_true", help="omit prompts/responses from results"
    )
    extract.set_defaults(func=cmd_extract)

    evaluate = commands.add_parser("evaluate", help="score a run against its dataset")
    evaluate.add_argument("--run", required=True, help="run directory")
    evaluate.add_argument("--dataset", required=True, help="JSONL dataset path")
    evaluate.add_argument("--lenient", action="store_true", help="skip malformed dataset lines")
    evaluate.add_argument(
        "--top-k", type=int, help="restrict scoring to the k most frequent gold values"
    )
    evaluate.add_argument("--per-doc", action="store_true", help="print per-document scores")
    evaluate.add_argument("--status", action="store_true", help="also report status accuracy")
    evaluate.add_argument("--json", help="write aggregate metrics to this JSON file")
    evaluate.set_defaults(func=cmd_evaluate)

    ablate = commands.add_parser("ablate", help="compare step bundles on one dataset")
    ablate.add_argument("--task", required=True, choices=sorted(TASKS))
    _add_run_flags(ablate)
    _add_backend_flags(ablate)
    ablate.add_argument(
        "--with-megaprompt", action="store_true", help="add the single-call variant"
    )
    ablate.add_argument("--dsv", help="write the table to this delimiter-separated file")
    ablate.add_argument("--json", help="write the table to this JSON file")
    ablate.set_defaults(func=cmd_ablate)

    report = commands.add_parser("report", help="render the HTML audit report for a run")
    report.add_argument("--run", required=True, help="run directory")
    report.add_argument("--out", help="output path (default: <run>/report.html)")
    report.set_defaults(func=cmd_report)

    cache = commands.add_parser("cache", help="inspect or edit a response store")
    cache.add_argument("action", choices=["stats", "purge", "export", "import", "repair"])
    cache.add_argument("--cache", required=True, help="response store file")
    cache.add_argument("--into", help="destination store for export")
    cache.add_argument("--from", dest="from", help="source store for import")
    cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cache":
        if args.action == "export" and not args.into:
            parser.error("cache export requires --into")
        if args.action == "import" and not getattr(args, "from"):
            parser.error("cache import requires --from")
    try:
        check_workers(getattr(args, "workers", 1))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BackendError as exc:
        print(f"error: backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    raise SystemExit(main())
