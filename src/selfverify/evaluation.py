"""Set-based extraction metrics, span scoring, and ablation tables.

Values are compared by case-insensitive exact match after normalization
(see core.normalize). Per-document precision/recall/F1 are macro-averaged:
the reported F1 is the mean of per-document F1 scores, not the harmonic
mean of macro precision and recall.

`evaluate` and `ablate` build their tables the same way: one row per run
via `score_run`, from each document's metrics and seed.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import normalize


@dataclass(frozen=True)
class DocMetrics:
    doc_id: str
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


def evaluate_doc(
    doc_id: str,
    predicted: Iterable[str],
    gold: Iterable[str],
) -> DocMetrics:
    """Score one document's predicted values against its gold values.

    Inputs are normalized and deduplicated here, so raw strings are fine.
    Conventions for empty sets: both empty scores 1/1/1 (nothing to find,
    nothing invented); empty predictions against non-empty gold score 0;
    non-empty predictions against empty gold also score 0 across the board,
    counting every prediction as a false positive.
    """
    return evaluate_sets(doc_id, {normalize(v) for v in predicted}, {normalize(v) for v in gold})


def evaluate_sets(doc_id: str, pred_set: set[str], gold_set: set[str]) -> DocMetrics:
    """`evaluate_doc` on values that are normalized already; "" is ignored."""
    pred_set, gold_set = pred_set - {""}, gold_set - {""}
    tp = len(pred_set & gold_set)
    fp = len(pred_set - gold_set)
    fn = len(gold_set - pred_set)
    if not pred_set and not gold_set:
        return DocMetrics(doc_id, 1.0, 1.0, 1.0, 0, 0, 0)
    if not pred_set or not gold_set:
        return DocMetrics(doc_id, 0.0, 0.0, 0.0, tp, fp, fn)
    precision = tp / len(pred_set)
    recall = tp / len(gold_set)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return DocMetrics(doc_id, precision, recall, f1, tp, fp, fn)


# The scored metrics, in column order: a macro average holds each one's mean
# over documents, a table row its mean and SEM across seeds, and every
# renderer lists its columns from this.
METRICS = ("precision", "recall", "f1")
_STAT_COLUMNS = tuple(column for metric in METRICS for column in (metric, f"{metric}_sem"))


@dataclass(frozen=True)
class MacroMetrics:
    precision: float
    recall: float
    f1: float
    n_docs: int


def macro_average(metrics: Sequence[DocMetrics]) -> MacroMetrics:
    if not metrics:
        raise ValueError("cannot macro-average zero documents")
    n = len(metrics)
    means = {metric: sum(getattr(m, metric) for m in metrics) / n for metric in METRICS}
    return MacroMetrics(**means, n_docs=n)


def sem(values: Sequence[float]) -> float:
    """Standard error of the mean: sample stddev over sqrt(n); 0 for n < 2."""
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) / math.sqrt(len(values))


def status_accuracy(
    predicted: dict[str, str | None], gold: dict[str, str | None]
) -> float | None:
    """Fraction of shared values whose predicted status equals gold status.

    Inputs map normalized value -> status label string (or None). Returns
    None when the two sides share no values.
    """
    shared = set(predicted) & set(gold)
    if not shared:
        return None
    agree = sum(1 for key in shared if (predicted[key] or "") == (gold[key] or ""))
    return agree / len(shared)


def top_k_codes(gold_lists: Iterable[Iterable[str]], k: int = 50) -> list[str]:
    """The k most frequent gold codes by document frequency.

    Each document contributes at most once per code. Ties break
    lexicographically on the normalized code, so the selection is total and
    reproducible.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts: Counter[str] = Counter()
    for doc_codes in gold_lists:
        for code in {normalize(c) for c in doc_codes} - {""}:
            counts[code] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [code for code, _ in ranked[:k]]


def filter_values(values: Iterable[str], allowed: set[str]) -> list[str]:
    """Keep values whose normalized form is in `allowed`, preserving order."""
    return [v for v in values if normalize(v) in allowed]


def intervals_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True when half-open character intervals share at least one position."""
    return max(a[0], b[0]) < min(a[1], b[1])


def span_token_length(text: str, span: tuple[int, int]) -> int:
    """Span length counted in whitespace-separated tokens."""
    return len(text[span[0] : span[1]].split())


@dataclass(frozen=True)
class SpanCase:
    """One scored span: where the model grounded an item vs. where gold says.

    predicted is None when the item had no locatable quote; such cases stay
    in the denominator and count as non-overlapping.
    """

    text: str
    predicted: tuple[int, int] | None
    gold: tuple[int, int]


@dataclass(frozen=True)
class SpanEvalReport:
    considered: int
    overlapping: int
    accuracy: float
    mean_predicted_tokens: float
    mean_gold_tokens: float


def evaluate_spans(cases: Sequence[SpanCase]) -> SpanEvalReport:
    if not cases:
        return SpanEvalReport(0, 0, 1.0, 0.0, 0.0)
    overlapping = 0
    pred_tokens: list[int] = []
    gold_tokens: list[int] = []
    for case in cases:
        gold_tokens.append(span_token_length(case.text, case.gold))
        if case.predicted is not None:
            pred_tokens.append(span_token_length(case.text, case.predicted))
            if intervals_overlap(case.predicted, case.gold):
                overlapping += 1
    return SpanEvalReport(
        considered=len(cases),
        overlapping=overlapping,
        accuracy=overlapping / len(cases),
        mean_predicted_tokens=(sum(pred_tokens) / len(pred_tokens)) if pred_tokens else 0.0,
        mean_gold_tokens=sum(gold_tokens) / len(gold_tokens),
    )


@dataclass(frozen=True)
class AblationRow:
    """One pipeline variant's scores aggregated over seeds."""

    name: str
    precision: float
    precision_sem: float
    recall: float
    recall_sem: float
    f1: float
    f1_sem: float
    n_seeds: int


def score_run(name: str, scores: Iterable[tuple[int, DocMetrics]]) -> AblationRow:
    """One run's table row from its (seed, document metrics) pairs.

    Pairs may come in any order. Each seed's documents are macro-averaged
    in the order given, and the row holds each metric's mean and SEM across
    the seeds, taken in sorted order.
    """
    by_seed: dict[int, list[DocMetrics]] = {}
    for seed, metrics in scores:
        by_seed.setdefault(seed, []).append(metrics)
    if not by_seed:
        raise ValueError(f"variant {name!r} has no seed runs")
    macros = [macro_average(by_seed[seed]) for seed in sorted(by_seed)]
    columns: dict[str, float] = {}
    for metric in METRICS:
        values = [getattr(macro, metric) for macro in macros]
        columns[metric] = sum(values) / len(values)
        columns[f"{metric}_sem"] = sem(values)
    return AblationRow(name=name, n_seeds=len(macros), **columns)


def render_text_table(rows: Sequence[AblationRow]) -> str:
    """Aligned, human-readable variant table with mean +/- SEM columns."""
    headers = ["Variant", *(metric.title() for metric in METRICS), "Seeds"]
    body = [
        [row.name, *(f"{getattr(row, m):.3f} ± {getattr(row, f'{m}_sem'):.3f}" for m in METRICS), str(row.n_seeds)]
        for row in rows
    ]
    widths = [max(len(h), *(len(line[i]) for line in body)) if body else len(h) for i, h in enumerate(headers)]
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(line) for line in body)
    return "\n".join(lines)


def render_dsv(rows: Sequence[AblationRow]) -> str:
    """Tab-separated variant table for spreadsheets and scripts."""
    lines = ["\t".join(["variant", *_STAT_COLUMNS, "n_seeds"])]
    for row in rows:
        cells = (f"{getattr(row, column):.6f}" for column in _STAT_COLUMNS)
        lines.append("\t".join([row.name, *cells, str(row.n_seeds)]))
    return "\n".join(lines)


def rows_to_records(rows: Sequence[AblationRow]) -> list[dict]:
    """Plain-dict form of the table, for JSON serialization."""
    return [
        {
            "variant": row.name,
            **{column: getattr(row, column) for column in _STAT_COLUMNS},
            "n_seeds": row.n_seeds,
        }
        for row in rows
    ]
