"""Tests for metrics, top-k filtering, and ablation tables."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import aggregate_variants, oracle_prf
from selfverify.evaluation import (
    AblationRow,
    DocMetrics,
    evaluate_doc,
    filter_values,
    macro_average,
    render_dsv,
    render_text_table,
    rows_to_records,
    score_run,
    sem,
    status_accuracy,
    top_k_codes,
)


class TestEvaluateDoc:
    def test_perfect(self):
        m = evaluate_doc("d", ["Aspirin", "statin"], ["aspirin", "Statin"])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)

    def test_false_positive_then_pruned(self):
        # Three predictions, two right: P=2/3, R=1, F1=0.8. Dropping the
        # wrong one lifts all three to 1.
        before = evaluate_doc("d", ["a", "b", "c"], ["a", "b"])
        assert before.precision == pytest.approx(2 / 3)
        assert before.recall == 1.0
        assert before.f1 == pytest.approx(0.8)
        after = evaluate_doc("d", ["a", "b"], ["a", "b"])
        assert (after.precision, after.recall, after.f1) == (1.0, 1.0, 1.0)

    def test_both_empty(self):
        m = evaluate_doc("d", [], [])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_empty_pred_nonempty_gold(self):
        m = evaluate_doc("d", [], ["a"])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.fn == 1

    def test_nonempty_pred_empty_gold(self):
        m = evaluate_doc("d", ["a"], [])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.fp == 1

    def test_normalization_applied(self):
        m = evaluate_doc("d", ["- Aspirin 81 MG."], ["aspirin  81 mg"])
        assert m.f1 == 1.0

    def test_duplicates_collapse(self):
        m = evaluate_doc("d", ["a", "A", "a."], ["a"])
        assert (m.tp, m.fp) == (1, 0)
        assert m.precision == 1.0

    @given(
        st.sets(st.text(alphabet="abcde", min_size=1, max_size=4), max_size=8),
        st.sets(st.text(alphabet="abcde", min_size=1, max_size=4), max_size=8),
    )
    @settings(max_examples=300)
    def test_matches_exact_oracle(self, pred, gold):
        m = evaluate_doc("d", pred, gold)
        p, r, f1 = oracle_prf(pred, gold)
        assert abs(m.precision - float(p)) <= 1e-12
        assert abs(m.recall - float(r)) <= 1e-12
        assert abs(m.f1 - float(f1)) <= 1e-12


class TestMacroAverage:
    def test_averages_f1_directly(self):
        docs = [
            DocMetrics("a", 1.0, 0.5, 2 / 3, 1, 0, 1),
            DocMetrics("b", 0.5, 1.0, 2 / 3, 1, 1, 0),
        ]
        macro = macro_average(docs)
        assert macro.precision == 0.75
        assert macro.recall == 0.75
        # Mean of per-doc F1s, not harmonic mean of macro P and R.
        assert macro.f1 == pytest.approx(2 / 3)
        assert macro.f1 != pytest.approx(2 * 0.75 * 0.75 / 1.5)
        assert macro.n_docs == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            macro_average([])


class TestSem:
    def test_singleton_is_zero(self):
        assert sem([0.5]) == 0.0
        assert sem([]) == 0.0

    def test_matches_formula(self):
        values = [0.6, 0.7, 0.8]
        expected = math.sqrt(0.01) / math.sqrt(3)
        assert sem(values) == pytest.approx(expected)

    def test_constant_series(self):
        assert sem([0.5, 0.5, 0.5]) == 0.0


class TestStatusAccuracy:
    def test_agreement_fraction(self):
        acc = status_accuracy(
            {"a": "active", "b": "discontinued", "c": "neither"},
            {"a": "active", "b": "active", "d": "active"},
        )
        assert acc == pytest.approx(1 / 2)

    def test_no_shared_values(self):
        assert status_accuracy({"a": "active"}, {"b": "active"}) is None


class TestTopKCodes:
    def test_frequency_then_lexicographic(self):
        gold = [
            ["J44.1", "I10"],
            ["J44.1", "E11.9"],
            ["I10"],
            ["A00"],
        ]
        top = top_k_codes(gold, k=3)
        # j44.1 and i10 tie at 2; then a00 and e11.9 tie at 1: "a00" wins.
        assert top == ["i10", "j44.1", "a00"]

    def test_doc_contributes_once_per_code(self):
        top = top_k_codes([["I10", "i10", "I10."]], k=5)
        assert top == ["i10"]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            top_k_codes([], k=0)
        assert top_k_codes([], k=5) == []

    def test_exhaustive_tie_break_oracle(self):
        # Independent check: recompute counts by brute force and verify the
        # selection keeps exactly the lexicographically-first codes at the
        # cut frequency.
        rng = random.Random(11)
        codes = [f"c{i:02d}" for i in range(30)]
        gold = [[rng.choice(codes) for _ in range(rng.randrange(1, 6))] for _ in range(60)]
        k = 10
        top = top_k_codes(gold, k=k)
        counts: dict[str, int] = {}
        for doc in gold:
            for c in set(doc):
                counts[c] = counts.get(c, 0) + 1
        expected = sorted(counts, key=lambda c: (-counts[c], c))[:k]
        assert top == expected

    def test_filter_values(self):
        allowed = {"i10", "j44.1"}
        assert filter_values(["J44.1", "A00", "I10"], allowed) == ["J44.1", "I10"]


def _seed_scores(per_seed: list[tuple[float, float, float]]) -> list[tuple[int, DocMetrics]]:
    """One document per seed whose scores are the seed's macro average."""
    return [(seed, DocMetrics(f"d{seed}", p, r, f, 0, 0, 0)) for seed, (p, r, f) in enumerate(per_seed)]


class TestAblationTable:
    def make_rows(self):
        return [
            score_run("Original", _seed_scores([(0.8, 0.6, 0.68), (0.82, 0.62, 0.70)])),
            score_run("+ Full SV", _seed_scores([(0.9, 0.8, 0.84), (0.92, 0.82, 0.86)])),
        ]

    def test_aggregation_means_and_sems(self):
        rows = self.make_rows()
        assert [r.name for r in rows] == ["Original", "+ Full SV"]
        assert rows[0].precision == pytest.approx(0.81)
        assert rows[0].precision_sem == pytest.approx(sem([0.8, 0.82]))
        assert rows[1].f1 == pytest.approx(0.85)
        assert rows[0].n_seeds == 2

    def test_empty_variant_rejected(self):
        with pytest.raises(ValueError, match="'Original' has no seed runs"):
            score_run("Original", [])

    def test_text_table_aligned(self):
        text = render_text_table(self.make_rows())
        lines = text.splitlines()
        assert lines[0].startswith("Variant")
        assert "Precision" in lines[0]
        assert len(lines) == 4
        assert "±" in lines[2]

    def test_dsv(self):
        out = render_dsv(self.make_rows())
        lines = out.splitlines()
        assert lines[0].split("\t") == [
            "variant", "precision", "precision_sem", "recall", "recall_sem", "f1", "f1_sem", "n_seeds",
        ]
        assert lines[1].split("\t")[0] == "Original"
        assert float(lines[1].split("\t")[1]) == pytest.approx(0.81)

    def test_records(self):
        records = rows_to_records(self.make_rows())
        assert records[0]["variant"] == "Original"
        assert records[1]["f1"] == pytest.approx(0.85)

    def test_row_is_plain_data(self):
        row = AblationRow("x", 1, 0, 1, 0, 1, 0, 1)
        assert row.name == "x"
        # Cells are formatted by column, so integer scores still print as floats.
        assert render_dsv([row]).splitlines()[1] == "x\t1.000000\t0.000000\t1.000000\t0.000000\t1.000000\t0.000000\t1"


_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_count = st.integers(0, 5)
_doc_metrics = st.builds(DocMetrics, st.text(max_size=3), _unit, _unit, _unit, _count, _count, _count)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.tuples(st.integers(-3, 3), _doc_metrics), min_size=1, max_size=20),
    order=st.randoms(use_true_random=False),
)
def test_score_run_matches_per_seed_grouping(scores, order):
    """score_run equals the former path: group by seed, macro-average each seed in sorted order, aggregate."""
    order.shuffle(scores)
    by_seed: dict[int, list[DocMetrics]] = {}
    for seed, metrics in scores:
        by_seed.setdefault(seed, []).append(metrics)
    macros = [macro_average(by_seed[seed]) for seed in sorted(by_seed)]
    assert score_run("run", iter(scores)) == aggregate_variants({"run": macros})[0]
