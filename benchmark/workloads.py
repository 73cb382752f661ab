"""The four workloads: set-up, one timed pass, and the output checks.

A workload object is built once per set-up (the runner builds it several
times and times each build). `run_pass` builds that pass's backends, times
only the work a user waits for, then checks every output and returns a
`Pass`. A doc-run that raised or failed a check counts in `Pass.failed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import runpy
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from selfverify import cli, pipeline, synthetic
from selfverify.data import result_to_record
from selfverify.pipeline import PipelineConfig

import longnotes
from endpoint import Endpoint


@dataclass
class Pass:
    seconds: float  # wall time of the timed work
    cpu_seconds: float
    docs: int  # doc-runs attempted
    failed: int
    endpoints: list[Endpoint]
    # Mock calls counted on the backends the pass built; None where the
    # endpoint log is the count.
    mock_calls: int | None = None
    # The endpoints whose doc-runs the latency percentiles cover; all when None.
    latency_endpoints: list[Endpoint] | None = None
    # (start, end) of each timed region, for the host-speed gauge.
    regions: list[tuple[float, float]] = field(default_factory=list)
    # The replay part of the pass (record_replay); None elsewhere.
    replay_seconds: float | None = None
    replay_regions: list[tuple[float, float]] = field(default_factory=list)
    replay_docs: int = 0
    results_bytes: int = 0
    errors: list[str] = field(default_factory=list)
    # Filled in by the runner from the request logs.
    log: object = None
    windows: list[tuple[float, float]] = field(default_factory=list)  # latency doc-runs


class Clock:
    """Wall and CPU time of the timed regions of one pass.

    A tracer given here records spans inside the timed regions only, so
    set-up and output checks leave no spans.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.regions: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def timed(self):
        if self.tracer:
            self.tracer.active = True
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.wall += end - wall
            self.cpu += time.process_time() - cpu
            self.regions.append((wall, end))
            if self.tracer:
                self.tracer.active = False


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Workload:
    name: str
    marker: re.Pattern  # names the doc in a prompt, for the request log
    # Whether a pass is bound by this process's CPU, so that its timings
    # are scaled to the host-speed gauge's reference speed (see gauge.py).
    cpu_bound = True
    tracer = None  # set by the runner for the traced passes


class OfflineAblation(Workload):
    """`scripts/run_ablation_demo.py --workers 2`, run in-process as a user runs it."""

    name = "offline_ablation"
    marker = re.compile(r"Note \d+\.")
    DOCS = 5 * 3 * synthetic.DIRECTIONAL_SIZE  # variants x seeds x notes
    # The table the script prints at the commit that defined this benchmark.
    EXPECTED_TABLE = (
        "Variant     Precision      Recall         F1             Seeds\n"
        "----------  -------------  -------------  -------------  -----\n"
        "Original    0.750 ± 0.000  0.750 ± 0.000  0.750 ± 0.000  3\n"
        "+ Omission  0.733 ± 0.000  1.000 ± 0.000  0.844 ± 0.000  3\n"
        "+ Prune     1.000 ± 0.000  0.725 ± 0.000  0.838 ± 0.000  3\n"
        "+ Full SV   1.000 ± 0.000  0.975 ± 0.000  0.986 ± 0.000  3\n"
        "Megaprompt  0.750 ± 0.000  0.750 ± 0.000  0.750 ± 0.000  3\n"
    )

    def __init__(self, root: Path, seed: int, work_dir: Path, tamper=None):
        self.script = root / "scripts" / "run_ablation_demo.py"
        if not self.script.is_file():
            raise FileNotFoundError(self.script)
        # `tamper` edits each scripted backend; the self-check uses it.
        self.tamper = tamper

    def run_pass(self) -> Pass:
        mocks, endpoints = [], []

        def hook(original):
            def directional_backend(*args, **kwargs):
                mock = original(*args, **kwargs)
                if self.tamper:
                    self.tamper(mock)
                mocks.append(mock)
                endpoints.append(Endpoint(mock))
                return endpoints[-1]

            return directional_backend

        clock, out, code, errors = Clock(self.tracer), io.StringIO(), None, []
        argv = sys.argv
        sys.argv = [str(self.script), "--workers", "2"]
        try:
            with patched(synthetic, "directional_backend", hook), contextlib.redirect_stdout(out):
                with clock.timed():
                    runpy.run_path(str(self.script), run_name="__main__")
        except SystemExit as exc:
            code = exc.code
        except Exception:
            errors.append(traceback.format_exc())
        finally:
            sys.argv = argv
        if code != 0:
            errors.append(f"script exited with {code!r}")
        elif out.getvalue() != self.EXPECTED_TABLE:
            errors.append("printed table differs:\n" + out.getvalue())
        return Pass(
            seconds=clock.wall,
            cpu_seconds=clock.cpu,
            docs=self.DOCS,
            failed=self.DOCS if errors else 0,
            endpoints=endpoints,
            mock_calls=sum(len(m.calls) for m in mocks),
            regions=clock.regions,
            errors=errors,
        )


class LiveChain(Workload):
    """Full chain over the directional corpus behind a 20 ms endpoint, 2 clients."""

    name = "live_chain"
    marker = re.compile(r"Note \d+\.")
    cpu_bound = False  # 20 ms of sleep per call
    SEEDS = (0, 1)
    LATENCY_S = 0.020
    WORKERS = 2

    def __init__(self, root: Path, seed: int, work_dir: Path, tamper=None):
        self.documents, _ = synthetic.directional_corpus()
        self.config = PipelineConfig(demonstrations_k=0)
        self.tamper = tamper
        # Untimed serial reference run, no latency.
        self.reference = {}
        for s in self.SEEDS:
            for r in pipeline.run_batch(
                synthetic.directional_backend(), self.config, self.documents, seeds=[s], workers=1
            ):
                self.reference[(s, r.doc_id)] = result_to_record(r)

    def run_pass(self) -> Pass:
        endpoints = []
        for _ in self.SEEDS:
            mock = synthetic.directional_backend()
            if self.tamper:
                self.tamper(mock)
            endpoints.append(Endpoint(mock, self.LATENCY_S))
        clock, results, errors = Clock(self.tracer), [], []
        try:
            with clock.timed():
                for s, ep in zip(self.SEEDS, endpoints):
                    results += pipeline.run_batch(
                        ep, self.config, self.documents, seeds=[s], workers=self.WORKERS
                    )
        except Exception:
            errors.append(traceback.format_exc())
        docs = len(self.reference)
        passed = sum(
            result_to_record(r) == self.reference.get((r.seed, r.doc_id)) for r in results
        )
        if passed < docs and not errors:
            errors.append(f"{docs - passed} records differ from the serial reference run")
        return Pass(clock.wall, clock.cpu, docs, docs - passed, endpoints,
                    regions=clock.regions, errors=errors)


class LongNotes(Workload):
    """Full ICD-10 chain, one worker, over seeded 8-20k character notes."""

    name = "long_notes"
    marker = longnotes.MARKER

    def __init__(self, root: Path, seed: int, work_dir: Path, tamper=None, n_notes: int = 6):
        self.notes = longnotes.make_corpus(seed, n_notes)
        self.documents = [n.document for n in self.notes]
        self.config = PipelineConfig()
        self.tamper = tamper

    def run_pass(self) -> Pass:
        mock = longnotes.backend(self.notes)
        if self.tamper:
            self.tamper(mock)
        ep = Endpoint(mock)
        clock, results, errors = Clock(self.tracer), [], []
        try:
            with clock.timed():
                results = pipeline.run_batch(ep, self.config, self.documents, seeds=[0], workers=1)
        except Exception:
            errors.append(traceback.format_exc())
        by_id = {r.doc_id: r for r in results}
        failed = 0
        for note in self.notes:
            problems = check_long_note(note, by_id.get(note.document.id))
            if problems:
                failed += 1
                errors.append(f"{note.document.id}: " + "; ".join(problems))
        return Pass(clock.wall, clock.cpu, len(self.notes), failed, [ep],
                    regions=clock.regions, errors=errors)


def check_long_note(note: longnotes.LongNote, result) -> list[str]:
    """Differences between one pipeline result and its plan; empty when equal."""
    if result is None:
        return ["no result"]
    problems = []
    items = {item.key: item for item in result.pre_prune}
    for q in note.quotes:
        item = items.get(q.diagnosis)
        if item is None or item.evidence is None:
            problems.append(f"{q.diagnosis}: no evidence")
            continue
        got = (item.evidence.match_kind.value, item.evidence.start, item.evidence.end)
        if got != (q.kind, q.start, q.end):
            problems.append(f"{q.diagnosis}: located {got}, planned {(q.kind, q.start, q.end)}")
        if ("quote_not_found" in item.flags) != (q.kind == "not_found"):
            problems.append(f"{q.diagnosis}: quote_not_found flag is wrong")
    codes = frozenset(item.icd_code for item in result.final)
    if codes != note.final_codes:
        problems.append(f"final codes {sorted(codes)}, planned {sorted(note.final_codes)}")
    return problems


class RecordReplay(Workload):
    """CLI path: record into a fresh store, replay from it, then evaluate."""

    name = "record_replay"
    marker = re.compile(r"Case \d+\.")
    CASES = 200
    SEEDS = "0,1"

    def __init__(self, root: Path, seed: int, work_dir: Path, tamper=None, cases: int = CASES):
        self.cases = planned_cases(seed, cases)
        self.work_dir = work_dir
        if work_dir.exists():
            shutil.rmtree(work_dir)
        work_dir.mkdir(parents=True)
        self.dataset = work_dir / "dataset.jsonl"
        self.script = work_dir / "script.jsonl"
        with self.dataset.open("w", encoding="utf-8") as fh:
            for case in self.cases:
                statuses = {v: s.value for v, s in case.expected_status.items()}
                gold = [{"value": v, "status": statuses.get(v)} for v in case.gold]
                fh.write(json.dumps({"doc_id": case.document.id, "text": case.document.text,
                                     "gold": gold, "split": "eval"}) + "\n")
        with self.script.open("w", encoding="utf-8") as fh:
            for case in self.cases:
                for step in case.steps:
                    response = step.response
                    if tamper:
                        response = tamper(case, step)
                    fh.write(json.dumps({"match": step.matcher, "response": response,
                                         "once": step.once}) + "\n")
        self.expected_final = {c.document.id: c.expected_final for c in self.cases}
        self.expected_f1 = f"{macro_f1(self.cases):.3f}"
        self.seeds = len(self.SEEDS.split(","))
        self.passes = 0

    def _extract(self, backend_flags: list[str], out: Path) -> list[str]:
        return ["extract", "--task", "medication_status", "--dataset", str(self.dataset),
                "--seeds", self.SEEDS, "--demos", "0", "--workers", "2", "--out", str(out),
                *backend_flags]

    def run_pass(self) -> Pass:
        self.passes += 1
        pass_dir = self.work_dir / f"pass-{self.passes}"
        store = pass_dir / "store.bin"
        recorded, replayed = pass_dir / "record", pass_dir / "replay"
        commands = [
            self._extract(["--backend", "record", "--script", str(self.script),
                           "--cache", str(store)], recorded),
            self._extract(["--backend", "replay", "--cache", str(store)], replayed),
            ["evaluate", "--run", str(replayed), "--dataset", str(self.dataset), "--status"],
        ]
        endpoints = []

        def hook(original):
            def make_backend(args):
                endpoints.append(Endpoint(original(args)))
                return endpoints[-1]

            return make_backend

        clocks, codes, outputs, errors = [], [], [], []
        with patched(cli, "make_backend", hook):
            for argv in commands:
                clock, out = Clock(self.tracer), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), clock.timed():
                        codes.append(cli.main(argv))
                except Exception:
                    codes.append(None)
                    errors.append(traceback.format_exc())
                clocks.append(clock)
                outputs.append(out.getvalue())
        per_extract = len(self.cases) * self.seeds
        failed = 0
        rec_lines = read_lines(recorded / "results.jsonl")
        rep_lines = read_lines(replayed / "results.jsonl")
        results_bytes = (recorded / "results.jsonl").stat().st_size if rec_lines else 0
        if codes[0] != 0 or len(rec_lines) != per_extract:
            errors.append(f"record exited with {codes[0]!r}, {len(rec_lines)} results")
            failed += per_extract
        else:
            wrong = [r["doc_id"] for r in map(json.loads, rec_lines)
                     if {i["value"] for i in r["final"]} != self.expected_final[r["doc_id"]]]
            failed += len(wrong)
            if wrong:
                errors.append(f"final sets differ from the plan for {wrong[:5]}")
        if codes[1] != 0 or codes[2] != 0 or len(rep_lines) != per_extract:
            errors.append(f"replay/evaluate exited with {codes[1:]!r}, {len(rep_lines)} results")
            failed += per_extract
        else:
            differ = sum(a != b for a, b in zip(rec_lines, rep_lines))
            f1 = evaluate_f1(outputs[2])
            if f1 != self.expected_f1:
                errors.append(f"evaluate printed F1 {f1}, planned {self.expected_f1}")
                differ = per_extract
            elif differ:
                errors.append(f"{differ} replayed result lines differ from the recorded ones")
            failed += differ
        shutil.rmtree(pass_dir, ignore_errors=True)
        return Pass(
            seconds=sum(c.wall for c in clocks),
            cpu_seconds=sum(c.cpu for c in clocks),
            docs=2 * per_extract,
            failed=failed,
            endpoints=endpoints,
            # Recorded doc-runs of seed 0 call the scripted model while those
            # of seed 1 hit the store, an order of magnitude faster, so a
            # median over both would fall in the gap between them. Latency
            # covers the replay extract, whose doc-runs all read the store.
            latency_endpoints=endpoints[1:2],
            regions=[r for c in clocks for r in c.regions],
            replay_seconds=clocks[1].wall + clocks[2].wall,
            replay_regions=clocks[1].regions + clocks[2].regions,
            replay_docs=per_extract,
            results_bytes=results_bytes,
            errors=errors,
        )


# Model calls per planned case, averaged over many seeds, and the share of
# cases in each band of calls per case (lowest call count of the band
# first). The top band holds the cases whose omission rounds run long, at
# 22 to 30 calls; no case makes 17 to 21.
CALLS_PER_CASE = 9.19
CALL_BANDS = ((2, 0.230), (6, 0.294), (9, 0.211), (11, 0.148), (13, 0.037), (17, 0.080))


def case_calls(case) -> int:
    """Model calls one run of a planned case makes: original, omission
    rounds, evidence (when any item is left) and one prune per item."""
    items = len(case.expected_pre_prune)
    return 1 + case.expected_omission_iters + (items > 0) + items


def band(calls: int) -> int:
    return sum(calls >= low for low, _ in CALL_BANDS) - 1


def band_targets(count: int) -> list[int]:
    """Cases per band for `count` cases, rounded to sum to `count`."""
    exact = [count * share / sum(s for _, s in CALL_BANDS) for _, share in CALL_BANDS]
    targets = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda b: targets[b] - exact[b])
    for b in by_remainder[: count - sum(targets)]:
        targets[b] += 1
    return targets


def planned_cases(seed: int, count: int) -> list:
    """`count` seeded planned cases with band_targets(count) cases in each
    band of calls per case, making round(count x CALLS_PER_CASE) calls.

    Seeded cases are redrawn, one random slot at a time, while that brings
    the band counts, then the total, closer to their targets. Every seed
    then asks for the same number of model calls, spread the same way over
    fast and slow doc-runs, so neither the work of a pass nor its latency
    tail depends on the seed, only the content does.
    """
    rng = random.Random(seed)
    cases = [synthetic.plan_case(rng, i) for i in range(count)]
    calls = [case_calls(c) for c in cases]
    target, bands = round(count * CALLS_PER_CASE), band_targets(count)
    filled = [0] * len(bands)
    for c in calls:
        filled[band(c)] += 1

    def off(total: int, filled: list[int]) -> tuple[int, int]:
        return sum(abs(f - t) for f, t in zip(filled, bands)), abs(total - target)

    total = sum(calls)
    while off(total, filled) != (0, 0):
        i = rng.randrange(count)
        candidate = synthetic.plan_case(rng, i)
        new = case_calls(candidate)
        moved = filled.copy()
        moved[band(calls[i])] -= 1
        moved[band(new)] += 1
        if off(total - calls[i] + new, moved) < off(total, filled):
            cases[i], total, filled, calls[i] = candidate, total - calls[i] + new, moved, new
    return cases


def read_lines(path: Path) -> list[str]:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return []


def doc_f1(predicted: frozenset[str], gold: set[str]) -> float:
    """Per-doc F1 under the package's conventions for empty sets."""
    if not predicted and not gold:
        return 1.0
    tp = len(predicted & gold)
    if not predicted or not gold or tp == 0:
        return 0.0
    precision, recall = tp / len(predicted), tp / len(gold)
    return 2 * precision * recall / (precision + recall)


def macro_f1(cases) -> float:
    """Macro F1 the planned final sets score against gold."""
    return sum(doc_f1(c.expected_final, set(c.gold)) for c in cases) / len(cases)


_TABLE_CELL = re.compile(r"(\d+\.\d{3}) ± \d+\.\d{3}")


def evaluate_f1(printed: str) -> str | None:
    """The F1 cell of the one-row table `selfverify evaluate` prints."""
    for line in printed.splitlines():
        cells = _TABLE_CELL.findall(line)
        if len(cells) == 3:
            return cells[2]
    return None


WORKLOADS = {w.name: w for w in (OfflineAblation, LiveChain, LongNotes, RecordReplay)}
