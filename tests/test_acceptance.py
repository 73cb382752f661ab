"""Nine end-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (visible with -s, or in the
captured output of a failing run) and then asserts. Tolerances are
pinned in the assertions themselves: metric agreement within 1e-12,
zero invariant violations, zero substring-contract exceptions, at most
1% locator disagreement on perturbed quotes.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from selfverify.backend import (
    CachingBackend,
    HttpBackend,
    HttpConfig,
    MockBackend,
    ReplayBackend,
    ResponseStore,
    load_script,
)
from selfverify.core import MatchKind, icd_task, normalize
from selfverify.data import (
    RunManifest,
    load_dataset,
    records_to_documents,
    write_run,
)
from selfverify.evaluation import (
    evaluate_doc,
    filter_values,
    macro_average,
    top_k_codes,
)
from selfverify.parsing import (
    AmbiguousVerdict,
    locate_quote,
    parse_bulleted_list,
    parse_evidence,
    parse_icd_codes,
    parse_status_pairs,
    parse_verdict,
)
from selfverify.pipeline import (
    ABLATION_PRESETS,
    ExtractionPipeline,
    PipelineConfig,
    run_batch,
)
from selfverify.prompts import DemoExample, catalog_version, sample_demonstrations
from selfverify.synthetic import directional_backend, directional_corpus, plan_case

from helpers import backend_for_cases, fuzz_text
from oracles import oracle_locate, oracle_prf

FIXTURES = Path(__file__).parent.parent / "fixtures"


def _verdict(n: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {n:02d}] {status}: {label}{suffix}")
    assert ok, f"criterion {n} failed: {label}{suffix}"


def _norm_set(values) -> set[str]:
    return {normalize(v) for v in values} - {""}


def test_01_worked_note_end_to_end():
    started = time.perf_counter()
    records, _ = load_dataset(FIXTURES / "demo_diagnosis.jsonl")
    task = icd_task(10)
    document = records_to_documents(records, task)[0]
    backend = MockBackend(load_script(FIXTURES / "demo_script.jsonl"))
    pipeline = ExtractionPipeline(backend, PipelineConfig(icd_mapping=False))
    result = pipeline.run(document)
    elapsed = time.perf_counter() - started

    final_values = frozenset(result.final.keys())
    pruned_values = [item.value for item in result.pruned]
    pruned_quote = (
        result.pruned[0].evidence.quote
        if result.pruned and result.pruned[0].evidence
        else ""
    )
    metrics = evaluate_doc(
        result.doc_id, [i.value for i in result.final], records[0].gold_values()
    )
    ok = (
        final_values == {"hypertension", "right adrenal mass"}
        and pruned_values == ["liver fibrosis"]
        and "ruled out" in pruned_quote
        and (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)
        and elapsed < 1.0
    )
    _verdict(
        1,
        "worked single-note walkthrough",
        ok,
        f"final={sorted(final_values)} pruned={pruned_values} "
        f"P={metrics.precision} R={metrics.recall} F1={metrics.f1} t={elapsed:.3f}s",
    )


def test_02_pipeline_set_invariants_on_random_scripts():
    rng = random.Random(20260815)
    config = PipelineConfig(demonstrations_k=0)
    violations = 0
    first_bad = ""
    for n in range(1000):
        case = plan_case(rng, n)
        pipeline = ExtractionPipeline(backend_for_cases([case]), config)
        result = pipeline.run(case.document)
        pre = frozenset(result.pre_prune.keys())
        final = frozenset(result.final.keys())
        pruned_keys = {item.key for item in result.pruned}
        good = (
            case.expected_original <= pre
            and final <= pre
            and result.omission_iters <= config.omission_max_iters
            and final | pruned_keys == pre
            and not (final & pruned_keys)
            and pre == case.expected_pre_prune
            and final == case.expected_final
            and result.omission_iters == case.expected_omission_iters
            and all(i.status == case.expected_status[i.key] for i in result.final)
        )
        if not good:
            violations += 1
            if not first_bad:
                first_bad = f"first failure at case {n}"
    _verdict(
        2,
        "set invariants over 1000 randomized scripts",
        violations == 0,
        first_bad or "superset/subset/termination/partition all held",
    )


def test_03_metrics_match_rational_oracle():
    rng = random.Random(3)
    vocab = [f"item {i}" for i in range(30)]
    vocab += ["", "  ", "- Dashed Item", '"quoted value"', "MiXeD Case", "x."]
    worst = 0.0
    doc_metrics = []
    oracle_triples = []
    for _ in range(500):
        pred = [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
        gold = [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
        metrics = evaluate_doc("d", pred, gold)
        triple = oracle_prf(_norm_set(pred), _norm_set(gold))
        worst = max(
            worst,
            abs(metrics.precision - triple[0]),
            abs(metrics.recall - triple[1]),
            abs(metrics.f1 - triple[2]),
        )
        doc_metrics.append(metrics)
        oracle_triples.append(triple)

    macro = macro_average(doc_metrics)
    n = Fraction(len(oracle_triples))
    oracle_macro = (
        sum(t[0] for t in oracle_triples) / n,
        sum(t[1] for t in oracle_triples) / n,
        sum(t[2] for t in oracle_triples) / n,
    )
    macro_err = max(
        abs(macro.precision - oracle_macro[0]),
        abs(macro.recall - oracle_macro[1]),
        abs(macro.f1 - oracle_macro[2]),
    )
    ok = worst <= 1e-12 and macro_err <= 1e-12
    _verdict(
        3,
        "metric equivalence with brute-force rational recomputation",
        ok,
        f"500 pairs, worst per-doc err={worst:.2e}, macro err={float(macro_err):.2e}",
    )


def test_04_each_step_moves_metrics_the_designed_way():
    documents, gold = directional_corpus()
    macros = {}
    for name, steps in ABLATION_PRESETS.items():
        config = PipelineConfig(steps=steps, demonstrations_k=0)
        results = run_batch(directional_backend(), config, documents, seeds=[0], workers=4)
        per_doc = [
            evaluate_doc(r.doc_id, [i.value for i in r.final], gold[r.doc_id])
            for r in results
        ]
        macros[name] = macro_average(per_doc)

    base = macros["Original"]
    omission = macros["+ Omission"]
    prune = macros["+ Prune"]
    full = macros["+ Full SV"]
    ok = (
        omission.recall > base.recall
        and prune.precision > base.precision
        and full.f1 > base.f1
        and full.f1 == max(m.f1 for m in macros.values())
    )
    _verdict(
        4,
        "50-note corpus moves as designed",
        ok,
        f"R {base.recall:.3f}->{omission.recall:.3f} with omission, "
        f"P {base.precision:.3f}->{prune.precision:.3f} with prune, "
        f"F1 {base.f1:.3f}->{full.f1:.3f} full",
    )


_WORDS = (
    "patient takes aspirin daily blood pressure was stopped the and dose mg "
    "noted stable follow up clinic renal mass left right no change history of "
    "continues started week month visit reviewed tablet oral therapy"
).split()


def _random_text(rng: random.Random, target_chars: int) -> str:
    parts: list[str] = []
    length = 0
    while length < target_chars:
        word = rng.choice(_WORDS)
        if rng.random() < 0.10:
            word = word.capitalize()
        if rng.random() < 0.05:
            word += ","
        if rng.random() < 0.04:
            word += "."
        if rng.random() < 0.03:
            word += "\n"
        parts.append(word)
        length += len(word) + 1
    return " ".join(parts)[:target_chars]


def _flip_case(quote: str, rng: random.Random) -> str:
    chars = list(quote)
    alpha = [i for i, c in enumerate(chars) if c.isalpha()]
    flipped = [i for i in alpha if rng.random() < 0.3]
    if not flipped and alpha:
        flipped = [rng.choice(alpha)]
    for i in flipped:
        chars[i] = chars[i].swapcase()
    return "".join(chars)


def _single_edit(quote: str, rng: random.Random) -> str:
    pos = rng.randrange(len(quote))
    op = rng.choice(("substitute", "insert", "delete"))
    if op == "substitute":
        replacement = rng.choice("xzqjv")
        while replacement == quote[pos]:
            replacement = rng.choice("xzqjvk")
        return quote[:pos] + replacement + quote[pos + 1 :]
    if op == "insert":
        return quote[:pos] + rng.choice("xzqjv") + quote[pos:]
    return quote[:pos] + quote[pos + 1 :]


def test_05_locator_agrees_with_window_oracle():
    rng = random.Random(55)
    mismatches = {"exact": 0, "case": 0, "fuzzy": 0}
    totals = {"exact": 0, "case": 0, "fuzzy": 0}
    contract_failures = 0
    for n in range(1000):
        style = ("exact", "case", "fuzzy")[n % 3]
        size = rng.randint(100, 600) if style == "fuzzy" else rng.randint(100, 2000)
        text = _random_text(rng, size)
        m = rng.randint(10, 40)
        start = rng.randint(0, len(text) - m)
        quote = text[start : start + m]
        if style == "case":
            quote = _flip_case(quote, rng)
        elif style == "fuzzy":
            quote = _single_edit(quote, rng)

        span = locate_quote(text, quote)
        expected = oracle_locate(text, quote)
        got = (span.match_kind.name.lower(), span.start, span.end)
        totals[style] += 1
        if got != expected:
            mismatches[style] += 1
        if span.located and not span.verify_against(text):
            contract_failures += 1

    fuzzy_rate = mismatches["fuzzy"] / totals["fuzzy"]
    ok = (
        mismatches["exact"] == 0
        and mismatches["case"] == 0
        and fuzzy_rate <= 0.01
        and contract_failures == 0
    )
    _verdict(
        5,
        "quote locator matches the brute-force window oracle",
        ok,
        f"mismatches exact={mismatches['exact']}/{totals['exact']} "
        f"case={mismatches['case']}/{totals['case']} "
        f"fuzzy={mismatches['fuzzy']}/{totals['fuzzy']}, "
        f"span re-check failures={contract_failures}",
    )


def test_07_top_k_code_filter():
    # Planned document frequencies: c00..c44 occur in 60-i docs (all
    # distinct), c45..c56 tie at 10 docs, c57..c59 trail at 3 docs. With
    # k=50 the cut lands inside the 12-way tie, so the five
    # lexicographically smallest tied codes complete the set.
    planned = {f"c{i:02d}": (60 - i if i < 45 else (10 if i < 57 else 3)) for i in range(60)}
    docs = []
    for j in range(60):
        codes = [code.upper() for code, count in planned.items() if j < count]
        if codes:
            codes.append(codes[0])  # in-doc duplicate must not double count
        docs.append(codes)
    expected = sorted(planned, key=lambda c: (-planned[c], c))[:50]

    got = top_k_codes(docs, k=50)
    ranking_ok = got == expected and "c49" in got and "c50" not in got

    allowed = set(got)
    rng = random.Random(7)
    vocab = [f"C{i:02d}" for i in range(60)] + [f"c{i:02d}" for i in range(60)]
    worst = 0.0
    for _ in range(100):
        pred = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        gold = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        metrics = evaluate_doc("d", filter_values(pred, allowed), filter_values(gold, allowed))
        triple = oracle_prf(_norm_set(pred) & allowed, _norm_set(gold) & allowed)
        worst = max(
            worst,
            abs(metrics.precision - triple[0]),
            abs(metrics.recall - triple[1]),
            abs(metrics.f1 - triple[2]),
        )
    ok = ranking_ok and worst <= 1e-12
    _verdict(
        7,
        "frequency ranking with lexicographic ties and filtered scoring",
        ok,
        f"boundary={got[44:51]}, filtered-eval worst err={worst:.2e}",
    )


def test_08_record_then_replay_is_bit_identical(tmp_path):
    rng = random.Random(88)
    cases = [plan_case(rng, n) for n in range(100)]
    documents = [case.document for case in cases]
    gold = {case.document.id: list(case.gold) for case in cases}
    config = PipelineConfig(demonstrations_k=0)
    task = documents[0].task

    store_path = tmp_path / "store.bin"
    recorder = CachingBackend(backend_for_cases(cases), ResponseStore(store_path))
    recorded = run_batch(recorder, config, documents, seeds=[0], workers=4)

    def persist(results, name):
        manifest = RunManifest(
            run_id=name,
            task=task.name,
            backend=name,
            model_id=config.model_id,
            seeds=[0],
            workers=4,
            config=config.describe(task),
            catalog_version=catalog_version(),
        )
        run_dir = tmp_path / name
        write_run(run_dir, manifest, results)
        return (run_dir / "results.jsonl").read_bytes()

    def metrics_of(results):
        per_doc = [
            evaluate_doc(r.doc_id, [i.value for i in r.final], gold[r.doc_id])
            for r in results
        ]
        macro = macro_average(per_doc)
        return (macro.precision, macro.recall, macro.f1)

    recorded_bytes = persist(recorded, "recorded")
    recorded_metrics = metrics_of(recorded)

    replay_bytes = []
    replay_metrics = []
    for attempt in range(3):
        replayer = ReplayBackend(ResponseStore(store_path))
        results = run_batch(replayer, config, documents, seeds=[0], workers=4)
        replay_bytes.append(persist(results, f"replay-{attempt}"))
        replay_metrics.append(metrics_of(results))

    pool = [DemoExample(f"note {i}", f"- med{i:02d}") for i in range(20)]
    demo_draws = {tuple(sample_demonstrations(pool, 5, seed=11)) for _ in range(5)}

    ok = (
        all(b == recorded_bytes for b in replay_bytes)
        and all(m == recorded_metrics for m in replay_metrics)
        and len(demo_draws) == 1
    )
    _verdict(
        8,
        "record/replay determinism over 100 documents x 3 replays",
        ok,
        f"results.jsonl={len(recorded_bytes)} bytes, macro={recorded_metrics}",
    )


def test_09_parser_fuzz_100k_strings():
    assert parse_bulleted_list("None") == []
    assert parse_bulleted_list("1. alpha\n2) beta") == ["alpha", "beta"]

    rng = random.Random(9)
    keys = ["aspirin", "metformin", "item one"]
    crashes = 0
    first_crash = ""
    for n in range(100_000):
        text = fuzz_text(rng)
        try:
            parse_bulleted_list(text)
            parse_status_pairs(text)
            parse_evidence(text, keys)
            parse_icd_codes(text, 9)
            parse_icd_codes(text, 10)
            normalize(text)
            try:
                parse_verdict(text)
            except AmbiguousVerdict:
                pass
        except Exception as exc:  # noqa: BLE001 - the point is "never raises"
            crashes += 1
            if not first_crash:
                first_crash = f"{type(exc).__name__} on {text[:40]!r} (case {n})"
    _verdict(
        9,
        "parser fuzzing, 100000 strings",
        crashes == 0,
        first_crash or "no parser raised",
    )


_SMOKE_ENDPOINT_VAR = "SELFVERIFY_SMOKE_ENDPOINT"


@pytest.mark.skipif(
    _SMOKE_ENDPOINT_VAR not in os.environ,
    reason=f"set {_SMOKE_ENDPOINT_VAR} to run the live smoke test",
)
def test_10_live_endpoint_smoke():
    endpoint = os.environ[_SMOKE_ENDPOINT_VAR]
    model = os.environ.get("SELFVERIFY_SMOKE_MODEL", "gpt-4o-mini")
    records, _ = load_dataset(FIXTURES / "smoke_medication.jsonl")
    records = sorted(records, key=lambda r: len(r.text))[:10]

    from selfverify.core import medication_status_task

    task = medication_status_task()
    documents = records_to_documents(records, task)
    gold = {r.doc_id: r.gold_values() for r in records}
    backend = HttpBackend(HttpConfig(base_url=endpoint))

    def macro_for(steps):
        config = PipelineConfig(model_id=model, steps=steps, demonstrations_k=0)
        results = run_batch(backend, config, documents, seeds=[0], workers=2)
        per_doc = [
            evaluate_doc(r.doc_id, [i.value for i in r.final], gold[r.doc_id])
            for r in results
        ]
        return macro_average(per_doc), results

    original_macro, _ = macro_for(())
    full_macro, full_results = macro_for(("omission", "evidence", "prune"))

    with_evidence = [
        item
        for result in full_results
        for item in tuple(result.final) + result.pruned
        if item.evidence is not None
    ]
    located = [
        item for item in with_evidence if item.evidence.match_kind is not MatchKind.NOT_FOUND
    ]
    located_rate = len(located) / len(with_evidence) if with_evidence else 0.0
    ok = located_rate >= 0.7 and full_macro.f1 >= original_macro.f1
    _verdict(
        10,
        "live endpoint smoke",
        ok,
        f"located={located_rate:.2f}, F1 original={original_macro.f1:.3f} "
        f"full={full_macro.f1:.3f}",
    )
