"""The extraction pipeline: original pass, omission loop, grounding, prune.

Each document flows through up to four chained model calls plus an
optional code-mapping call for ICD tasks:

  1. original    first extraction from the input text
  2. omission    "what did you miss?" repeated to a fixpoint
  3. evidence    one verbatim quote per item, located to char offsets
  4. prune       per-item keep/discard verdict, optionally quote-grounded
  5. icd map     diagnosis wording -> ICD code (ICD tasks, after prune)

A separate single-call variant packs the verification instructions into
the original prompt instead of making follow-up calls.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from . import evaluation
from .backend import Backend, LlmRequest
from .core import (
    Document,
    EvidenceSpan,
    ExtractedItem,
    ExtractionSet,
    Origin,
    TaskFamily,
    TaskKind,
    merge,
    normalize,
)
from .parsing import (
    AmbiguousVerdict,
    QuoteSearch,
    align_key,
    locate_quote,
    parse_bulleted_list,
    parse_evidence,
    parse_icd_codes,
    parse_status_pairs,
    parse_verdict,
)
from .prompts import (
    DEFAULT_DEMONSTRATIONS,
    DemoExample,
    build_evidence_prompt,
    build_icd_map_prompt,
    build_megaprompt,
    build_omission_prompt,
    build_original_prompt,
    build_prune_prompt,
    sample_demonstrations,
)

OPTIONAL_STEPS = ("omission", "evidence", "prune")

# Named step bundles compared by the ablation runner. "prune" without
# "evidence" asks the verdict question without a supporting quote.
ABLATION_PRESETS: dict[str, tuple[str, ...]] = {
    "Original": (),
    "+ Omission": ("omission",),
    "+ Prune": ("prune",),
    "+ Full SV": ("omission", "evidence", "prune"),
}

DEFAULT_OMISSION_MIN_ITERS_LONG = 5
DEFAULT_OMISSION_MAX_ITERS = 10

# The first uncached model call of a batch decides: only if it took at least
# this long does the batch start threads, for documents and prune calls. Scripted
# backends answer in well under a millisecond, so their runs stay on one thread.
FAN_OUT_MIN_CALL_S = 0.010


@dataclass(frozen=True)
class PipelineConfig:
    """Everything that decides pipeline behavior, independent of the task.

    Fields left None resolve per task: demonstrations default to 5 for
    short-input tasks and 0 for long ones; the omission floor defaults to 5
    passes for long-input tasks and 1 otherwise. Code mapping runs on ICD
    tasks only, where it defaults to on.
    """

    model_id: str = "default-model"
    steps: tuple[str, ...] = OPTIONAL_STEPS
    demonstrations_k: int | None = None
    omission_min_iters: int | None = None
    omission_max_iters: int = DEFAULT_OMISSION_MAX_ITERS
    icd_mapping: bool | None = None
    temperature: float = 0.1
    max_output_tokens_extract: int = 1024
    max_output_tokens_prune: int = 256

    def __post_init__(self) -> None:
        unknown = [s for s in self.steps if s not in OPTIONAL_STEPS]
        if unknown:
            raise ValueError(f"unknown steps {unknown}; valid: {list(OPTIONAL_STEPS)}")
        if len(set(self.steps)) != len(self.steps):
            raise ValueError("steps must not repeat")
        if self.demonstrations_k is not None and self.demonstrations_k < 0:
            raise ValueError("demonstrations_k must be >= 0")
        if self.omission_min_iters is not None and self.omission_min_iters < 1:
            raise ValueError("omission_min_iters must be >= 1")
        if self.omission_max_iters < 1:
            raise ValueError("omission_max_iters must be >= 1")
        if self.omission_min_iters is not None and self.omission_max_iters < self.omission_min_iters:
            raise ValueError("omission_max_iters must be >= omission_min_iters")

    def resolved_k(self, task: TaskKind) -> int:
        if self.demonstrations_k is not None:
            return self.demonstrations_k
        return 0 if task.long_input else DEFAULT_DEMONSTRATIONS

    def resolved_min_iters(self, task: TaskKind) -> int:
        if self.omission_min_iters is not None:
            return self.omission_min_iters
        return DEFAULT_OMISSION_MIN_ITERS_LONG if task.long_input else 1

    def resolved_icd_mapping(self, task: TaskKind) -> bool:
        return task.family is TaskFamily.ICD_CODE and (self.icd_mapping is None or self.icd_mapping)

    def describe(self, task: TaskKind) -> dict:
        """Effective settings for this task, for run manifests."""
        return {
            **asdict(self),
            "steps": list(self.steps),
            "demonstrations_k": self.resolved_k(task),
            "omission_min_iters": self.resolved_min_iters(task),
            "icd_mapping": self.resolved_icd_mapping(task),
        }


@dataclass(frozen=True)
class StepTrace:
    """One model call: prompt in, text out, what the parser made of it.

    Traces deliberately carry no timing, so a replayed run serializes
    byte-identically to the run that recorded it.
    """

    step: str
    prompt: str
    response: str
    temperature: float
    summary: str = ""
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PipelineResult:
    doc_id: str
    text: str
    task_name: str
    seed: int
    final: ExtractionSet
    pruned: tuple[ExtractedItem, ...] = ()
    pre_prune: ExtractionSet = field(default_factory=ExtractionSet.empty)
    traces: tuple[StepTrace, ...] = ()
    warnings: tuple[str, ...] = ()
    omission_iters: int = 0
    megaprompt: bool = False


class ExtractionPipeline:
    """Runs the chained extraction steps against one backend.

    Prune calls fan out to the `executor`, if any (see `_call_each`). The
    first uncached call uses up `on_slow`, calling it if it took at least
    FAN_OUT_MIN_CALL_S; cache hits never count, so a warm cache cannot hide
    a slow endpoint. No lock is needed: nothing shared is written after that
    call, and before it a batch runs on its calling thread with no executor.
    """

    def __init__(
        self, backend: Backend, config: PipelineConfig | None = None, executor: Executor | None = None,
        on_slow: Callable[[], None] | None = None,
    ):
        self.backend = backend
        self.config = config or PipelineConfig()
        self.executor = executor
        self.on_slow = on_slow

    def _call(self, prompt: str, max_tokens: int) -> str:
        """One model call; the first uncached one is timed for `on_slow`."""
        request = LlmRequest.chat(
            self.config.model_id,
            prompt,
            temperature=self.config.temperature,
            max_output_tokens=max_tokens,
        )
        started = time.perf_counter()
        response = self.backend.complete(request)
        if self.on_slow is not None and not response.from_cache:
            on_slow, self.on_slow = self.on_slow, None
            if time.perf_counter() - started >= FAN_OUT_MIN_CALL_S:
                on_slow()
        return response.text

    def _call_each(self, prompts: list[str], max_tokens: int) -> list[str]:
        """Answer independent prompts; the replies come back in prompt order.

        Two or more run concurrently on the executor, if any. The calling
        thread answers the first prompt, then each one no helper has started
        yet, so it never waits for a helper that is busy with another document.
        """
        if self.executor is None or len(prompts) < 2:
            return [self._call(prompt, max_tokens) for prompt in prompts]
        futures = [self.executor.submit(self._call, prompt, max_tokens) for prompt in prompts[1:]]
        try:
            responses = [self._call(prompts[0], max_tokens)]
            for prompt, future in zip(prompts[1:], futures):
                responses.append(self._call(prompt, max_tokens) if future.cancel() else future.result())
        finally:
            for future in futures:  # after a failure, drop the calls not yet started
                future.cancel()
        return responses

    def _trace(
        self, log: list[StepTrace], step: str, prompt: str, response: str, summary: str, warnings=()
    ) -> None:
        log.append(StepTrace(step, prompt, response, self.config.temperature, summary, tuple(warnings)))

    def _skipped_without_items(self, step: str, current: ExtractionSet, log: list[StepTrace]) -> bool:
        """Trace `step` as skipped, and say so, when there are no items to send."""
        if len(current):
            return False
        self._trace(log, step, "", "", "skipped: no items")
        return True

    def _extract(
        self, task: TaskKind, prompt: str, origin: Origin, base: ExtractionSet, log: list[StepTrace]
    ) -> tuple[ExtractionSet, int]:
        """One extraction call: parse the listed items and merge them into `base`.

        Serves the original pass, each omission pass and the megaprompt;
        the trace step is named after the origin.
        """
        response = self._call(prompt, self.config.max_output_tokens_extract)
        if task.wants_status:
            pairs, warnings = parse_status_pairs(response)
        else:
            pairs, warnings = [(raw, None) for raw in parse_bulleted_list(response)], []
        items = [ExtractedItem.from_raw(raw, status=status, origin=origin) for raw, status in pairs]
        current, new_count, merge_warnings = merge(base, items)
        summary = f"added {new_count} new" if origin.step == "omission" else f"{new_count} items"
        self._trace(log, str(origin), prompt, response, summary, warnings + merge_warnings)
        return current, new_count

    def _demos_for(self, task: TaskKind, seed: int, demo_pool: list[DemoExample] | None) -> list[DemoExample]:
        k = self.config.resolved_k(task)
        if k == 0:
            return []
        if not demo_pool:
            raise ValueError(
                f"task {task.name} wants {k} demonstrations but no demo pool was provided"
            )
        return sample_demonstrations(demo_pool, k, seed)

    def run(
        self,
        document: Document,
        seed: int = 0,
        demo_pool: list[DemoExample] | None = None,
    ) -> PipelineResult:
        task = document.task
        cfg = self.config
        log: list[StepTrace] = []
        demos = self._demos_for(task, seed, demo_pool)
        prompt = build_original_prompt(task, document.text, demos)
        current, _ = self._extract(task, prompt, Origin.original(), ExtractionSet.empty(), log)

        omission_iters = 0
        if "omission" in cfg.steps:
            min_iters = cfg.resolved_min_iters(task)
            for omission_iters in range(1, cfg.omission_max_iters + 1):
                prompt = build_omission_prompt(task, document.text, current)
                origin = Origin.omission(omission_iters)
                current, new_count = self._extract(task, prompt, origin, current, log)
                if omission_iters >= min_iters and new_count == 0:
                    break

        if "evidence" in cfg.steps:
            current = self._evidence_step(document, current, log)

        pre_prune = current
        pruned: tuple[ExtractedItem, ...] = ()
        if "prune" in cfg.steps:
            current, pruned = self._prune_step(document, current, log)

        return self._finish(
            document, seed, current, log, pruned=pruned, pre_prune=pre_prune, omission_iters=omission_iters
        )

    def run_megaprompt(
        self,
        document: Document,
        seed: int = 0,
        demo_pool: list[DemoExample] | None = None,
    ) -> PipelineResult:
        """Single-call baseline: verification folded into one prompt."""
        task = document.task
        log: list[StepTrace] = []
        demos = self._demos_for(task, seed, demo_pool)
        prompt = build_megaprompt(task, document.text, demos)
        current, _ = self._extract(task, prompt, Origin.megaprompt(), ExtractionSet.empty(), log)
        return self._finish(document, seed, current, log, megaprompt=True)

    def _finish(
        self, document: Document, seed: int, current: ExtractionSet, log: list[StepTrace], **fields
    ) -> PipelineResult:
        """Map diagnoses to codes (ICD tasks) and assemble the result.

        A result's warnings are its traces' warnings in call order. Without
        an explicit `pre_prune` (the megaprompt), it is the final set after
        code mapping.
        """
        task = document.task
        if self.config.resolved_icd_mapping(task):
            current = self._icd_map_step(document, current, log)
        fields.setdefault("pre_prune", current)
        return PipelineResult(
            doc_id=document.id,
            text=document.text,
            task_name=task.name,
            seed=seed,
            final=current,
            traces=tuple(log),
            warnings=tuple(w for trace in log for w in trace.warnings),
            **fields,
        )

    def _evidence_step(
        self, document: Document, current: ExtractionSet, log: list[StepTrace]
    ) -> ExtractionSet:
        if self._skipped_without_items("evidence", current, log):
            return current
        cfg = self.config
        prompt = build_evidence_prompt(document.task, document.text, current)
        response = self._call(prompt, cfg.max_output_tokens_extract)
        mapping, warnings = parse_evidence(response, list(current.keys()))
        search = QuoteSearch(document.text)
        updated: list[ExtractedItem] = []
        for item in current:
            quote = mapping.get(item.key)
            if quote is None:
                span, flags = EvidenceSpan.not_found(""), ("no_evidence_line",)
            else:
                span = locate_quote(document.text, quote, search)
                flags = () if span.located else ("quote_not_found",)
            updated.append(item.evolve(evidence=span, flags=item.flags + flags))
        summary = f"{sum(item.evidence.located for item in updated)} of {len(updated)} quotes located"
        self._trace(log, "evidence", prompt, response, summary, warnings)
        return ExtractionSet(tuple(updated))

    def _prune_step(
        self, document: Document, current: ExtractionSet, log: list[StepTrace]
    ) -> tuple[ExtractionSet, tuple[ExtractedItem, ...]]:
        items = list(current)
        prompts = [
            build_prune_prompt(
                document.task,
                document.text,
                item.value,
                item.evidence.quote if item.evidence and item.evidence.quote else None,
            )
            for item in items
        ]
        responses = self._call_each(prompts, self.config.max_output_tokens_prune)
        kept: list[ExtractedItem] = []
        pruned: list[ExtractedItem] = []
        for item, prompt, response in zip(items, prompts, responses):
            warnings: list[str] = []
            try:
                keep = parse_verdict(response)
                summary = "keep" if keep else "remove"
            except AmbiguousVerdict:
                keep = True
                summary = "ambiguous, kept"
                warnings.append(f"ambiguous verdict for {item.key!r}; keeping")
                item = item.evolve(flags=item.flags + ("ambiguous_verdict",))
            if keep:
                kept.append(item)
            else:
                reason = response.strip().splitlines()[0][:200] if response.strip() else "removed"
                pruned.append(item.evolve(pruned=True, prune_reason=reason))
            self._trace(log, f"prune[{item.key}]", prompt, response, summary, warnings)
        return ExtractionSet(tuple(kept)), tuple(pruned)

    def _icd_map_step(
        self, document: Document, current: ExtractionSet, log: list[StepTrace]
    ) -> ExtractionSet:
        if self._skipped_without_items("icd_map", current, log):
            return current
        task = document.task
        prompt = build_icd_map_prompt(task, current)
        response = self._call(prompt, self.config.max_output_tokens_extract)
        warnings: list[str] = []
        code_by_key: dict[str, str | None] = {}
        expected = dict.fromkeys(current.keys())
        for line in parse_bulleted_list(response):
            left, sep, right = line.partition(":")
            key = align_key(normalize(left), expected)
            if key is None:
                warnings.append(f"code line for unknown diagnosis {left.strip()!r}")
                continue
            codes = parse_icd_codes(right if sep else line, task.icd_version or 10)
            if key in code_by_key:
                warnings.append(f"duplicate code line for {key!r}; keeping the first")
                continue
            if codes:
                code_by_key[key] = codes[0]
            elif normalize(right) in ("none", "n/a", "na", "no code"):
                code_by_key[key] = None
            else:
                warnings.append(f"no code found on line for {key!r}")

        mapped: list[ExtractedItem] = []
        dropped = 0
        for item in current:
            if item.key not in code_by_key:
                mapped.append(item.evolve(flags=item.flags + ("unmapped_code",)))
                continue
            code = code_by_key[item.key]
            if code is None:
                dropped += 1
                warnings.append(f"diagnosis {item.key!r} reported uncodable; dropped")
                continue
            mapped.append(item.evolve(raw_value=code, icd_code=code))
        current, _, merge_warnings = merge(ExtractionSet.empty(), mapped)
        summary = f"{len(current)} codes, {dropped} uncodable"
        self._trace(log, "icd_map", prompt, response, summary, warnings + merge_warnings)
        return current


def run_batch(
    backend: Backend,
    config: PipelineConfig,
    documents: list[Document],
    seeds: list[int],
    demo_pool: list[DemoExample] | None = None,
    workers: int = 4,
    megaprompt: bool = False,
) -> list[PipelineResult]:
    """Run every (document, seed) pair, at most `workers` documents at a time.

    The calling thread takes the documents in turn; the first uncached model
    call decides (see ExtractionPipeline). If it was slow, `workers - 1`
    helper threads join on the same queue, and prune calls fan out to a pool
    of the stdlib's default size for I/O work. So fast, scripted and replayed
    batches start no thread. Results come back in (seed, document) order;
    the first failure stops the queue and is raised once every running
    document ends.
    """
    jobs = [(seed, doc) for seed in seeds for doc in documents]
    pending, lock = enumerate(jobs), threading.Lock()
    results: dict[int, PipelineResult] = {}
    errors: list[BaseException] = []

    def take() -> tuple[int, tuple[int, Document]] | None:
        with lock:  # hands out no job once one has failed
            return None if errors else next(pending, None)

    def drain() -> None:
        while (job := take()) is not None:
            index, (seed, doc) = job
            try:
                results[index] = run(doc, seed=seed, demo_pool=demo_pool)
            except BaseException as exc:  # raised by the calling thread once every drain stops
                with lock:
                    errors.append(exc)

    def go_wide() -> None:
        pipeline.executor = helpers
        for _ in range(workers - 1):
            drains.submit(drain)

    with ThreadPoolExecutor() as helpers, ThreadPoolExecutor(max(workers - 1, 1)) as drains:
        pipeline = ExtractionPipeline(backend, config, on_slow=go_wide)
        run = pipeline.run_megaprompt if megaprompt else pipeline.run
        drain()
    if errors:
        raise errors[0]
    return [results[index] for index in range(len(jobs))]


def run_ablation(
    make_backend: Callable[[], Backend],
    config: PipelineConfig,
    documents: list[Document],
    gold: dict[str, list[str]],
    seeds: list[int],
    demo_pool: list[DemoExample] | None = None,
    workers: int = 4,
    with_megaprompt: bool = False,
) -> list[evaluation.AblationRow]:
    """Score every ABLATION_PRESETS bundle, and optionally the megaprompt, per seed.

    `gold` maps each document id to its gold values. Each (variant, seed)
    run gets a backend of its own from `make_backend`, since scripted
    backends consume their `once` steps. Rows come in preset order, with
    "Megaprompt" last.
    """
    variants: dict[str, tuple[str, ...] | None] = dict(ABLATION_PRESETS)
    if with_megaprompt:
        variants["Megaprompt"] = None
    gold_sets = {doc.id: {normalize(v) for v in gold[doc.id]} for doc in documents}
    rows = []
    for name, steps in variants.items():
        variant = config if steps is None else replace(config, steps=steps)
        scores = []
        for seed in seeds:
            results = run_batch(
                make_backend(), variant, documents, [seed], demo_pool, workers, megaprompt=steps is None
            )
            scores.extend(
                (r.seed, evaluation.evaluate_sets(r.doc_id, {i.value for i in r.final}, gold_sets[r.doc_id]))
                for r in results
            )
        rows.append(evaluation.score_run(name, scores))
    return rows
