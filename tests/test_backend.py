"""Tests for backends, cache keys, and the binary response store."""

from __future__ import annotations

import hashlib
import os
import random
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import backend_for_cases
from oracles import linear_mock_complete, per_key_filter

from selfverify import backend as backend_module
from selfverify.backend import (
    Backend,
    BackendError,
    CachingBackend,
    FinishReason,
    HttpBackend,
    HttpConfig,
    LlmRequest,
    LlmResponse,
    Message,
    MockBackend,
    RateLimited,
    ReplayBackend,
    ReplayMiss,
    ResponseStore,
    ScriptExhausted,
    ScriptStep,
    StoreCorrupt,
    Usage,
    cache_key,
    load_script,
)
from selfverify.pipeline import ExtractionPipeline, PipelineConfig
from selfverify.synthetic import plan_case


def chat(text: str = "hello", **kwargs) -> LlmRequest:
    return LlmRequest.chat("m1", text, **kwargs)


# Overlapping substrings: prefixes of longer needles, markers that share a
# prefix, regex metacharacters, keys that overlap in a text ("aba", "bab")
# or sit inside one another ("xab", "ab"), keys ending in a newline, and
# non-ASCII and case variants that a case-sensitive scan must keep apart.
_NEEDLES = [
    "", "a", "ab", "b", "Candidate medication: ", "Candidate medication: x", "Case 1.", "Case 10.",
    "(1)", ".", "*", "\\", "|", "aba", "bab", "xab", "ab\n", "Case 1.\n", "\u0130", "\u00df", "SS",
    "Candidate Medication:",
]


def _has_ab(request: LlmRequest) -> bool:
    return "ab" in request.text


def _long(request: LlmRequest) -> bool:
    return len(request.text) > 12


def _never(request: LlmRequest) -> bool:
    return False


_matchers = st.one_of(
    st.sampled_from(_NEEDLES),
    st.lists(st.sampled_from(_NEEDLES), max_size=3),
    st.sampled_from([_has_ab, _long, _never]),
)
_texts = st.lists(st.sampled_from(_NEEDLES[1:] + [" ", "x", "0"]), max_size=5).map("".join)
_KEY_CHARS = "ab.x|(\n\u0130\u00dfsS"
_keys = st.lists(st.sampled_from(_NEEDLES[1:]) | st.text(_KEY_CHARS, min_size=1, max_size=4), unique=True,
                 max_size=12)


class TestLlmRequest:
    def test_chat_needs_messages(self):
        with pytest.raises(ValueError):
            LlmRequest(model_id="m", messages=())

    def test_chat_factory(self):
        req = LlmRequest.chat("m", "hi")
        assert [m.role for m in req.messages] == ["user"]
        assert req.temperature == 0.1
        assert req.max_output_tokens == 1024

    def test_text_joins_messages(self):
        req = LlmRequest(model_id="m", messages=(Message("system", "sys"), Message("user", "hi")))
        assert req.text == "sys\nhi"


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(chat()) == cache_key(chat())

    def test_digest_is_pinned(self):
        # Existing response stores are keyed by this digest; it must never drift.
        assert cache_key(LlmRequest.chat("m1", "hello")) == (
            "94b1df4dece24794cbb380f1ce386c220371c85a6b1deb97efb0e963a86a5969"
        )

    def test_sensitive_to_each_field(self):
        base = chat()
        variants = [
            LlmRequest.chat("m2", "hello"),
            chat("other text"),
            chat(temperature=0.2),
            chat(max_output_tokens=2048),
            LlmRequest(model_id="m1", messages=(Message("system", "sys"), Message("user", "hello"))),
        ]
        keys = {cache_key(base)} | {cache_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_no_concatenation_collision(self):
        a = LlmRequest(model_id="m", messages=(Message("user", "ab"), Message("user", "c")))
        b = LlmRequest(model_id="m", messages=(Message("user", "a"), Message("user", "bc")))
        assert cache_key(a) != cache_key(b)

    def test_role_matters(self):
        a = LlmRequest(model_id="m", messages=(Message("user", "x"),))
        b = LlmRequest(model_id="m", messages=(Message("system", "x"),))
        assert cache_key(a) != cache_key(b)

    @given(
        st.text(max_size=30),
        st.text(max_size=30),
        st.floats(min_value=0, max_value=2, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_key_is_hex64(self, model, text, temp):
        req = LlmRequest.chat(model or "m", text or "x", temperature=temp)
        key = cache_key(req)
        assert len(key) == 64
        int(key, 16)


class TestMockBackend:
    def test_first_match_wins(self):
        backend = MockBackend(
            [ScriptStep("alpha", "first"), ScriptStep("alpha", "second")]
        )
        assert backend.complete(chat("alpha beta")).text == "first"

    def test_list_matcher_requires_all(self):
        backend = MockBackend([ScriptStep(["alpha", "beta"], "both")], default="fallback")
        assert backend.complete(chat("alpha beta")).text == "both"
        assert backend.complete(chat("alpha only")).text == "fallback"

    def test_once_step_consumed(self):
        backend = MockBackend(
            [ScriptStep("go", "first time", once=True), ScriptStep("go", "after that")]
        )
        assert backend.complete(chat("go")).text == "first time"
        assert backend.complete(chat("go")).text == "after that"
        assert backend.complete(chat("go")).text == "after that"

    def test_callable_matcher_and_response(self):
        backend = MockBackend(
            [ScriptStep(lambda r: "x" in r.text, lambda r: f"saw {len(r.text)} chars")]
        )
        assert backend.complete(chat("xyz")).text == "saw 3 chars"

    def test_exhausted(self):
        backend = MockBackend([ScriptStep("specific", "resp")])
        with pytest.raises(ScriptExhausted):
            backend.complete(chat("no match here"))

    def test_response_object_returned_as_is(self):
        rich = LlmResponse(text="rich", finish_reason=FinishReason.LENGTH)
        backend = MockBackend([ScriptStep("", rich)])
        assert backend.complete(chat()) is rich

    def test_empty_matcher_matches_everything(self):
        backend = MockBackend([ScriptStep("", "always")])
        assert backend.complete(chat("anything")).text == "always"

    def test_records_calls(self):
        backend = MockBackend([], default="d")
        backend.complete(chat("one"))
        backend.complete(chat("two"))
        assert [c.text for c in backend.calls] == ["one", "two"]

    def test_thread_safety_of_once(self):
        backend = MockBackend(
            [ScriptStep("go", "winner", once=True)], default="loser"
        )
        results: list[str] = []

        def hit():
            results.append(backend.complete(chat("go")).text)

        threads = [threading.Thread(target=hit) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results.count("winner") == 1

    @given(
        script=st.lists(st.tuples(_matchers, st.booleans()), max_size=12),
        texts=st.lists(_texts, min_size=1, max_size=10),
        default=st.none() | st.just("fallback"),
    )
    @settings(max_examples=300, deadline=None)
    def test_index_agrees_with_linear_scan(self, script, texts, default):
        steps = [ScriptStep(m, f"step {i}", once=once) for i, (m, once) in enumerate(script)]
        backend = MockBackend(steps, default=default)
        consumed: set[int] = set()
        for text in texts:
            request = chat(text)
            try:
                want = linear_mock_complete(steps, consumed, request, default).text
            except ScriptExhausted:
                want = ScriptExhausted
            try:
                got = backend.complete(request).text
            except ScriptExhausted:
                got = ScriptExhausted
            assert got == want, text
            assert backend._consumed == consumed

    @given(keys=_keys, texts=st.lists(_texts | st.text(_KEY_CHARS, max_size=30), min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_scan_finds_the_candidates_of_a_per_key_filter(self, keys, texts):
        backend = MockBackend([ScriptStep(key, key) for key in [""] + keys])
        for text in texts:
            found = backend._find_keys(text) | {""}
            assert sorted(i for key in found for i in backend._by_key[key]) == per_key_filter(
                backend._by_key, text), text

    def test_scan_is_case_sensitive(self):
        backend = MockBackend([ScriptStep("\u0130", "dotted"), ScriptStep("SS", "upper")], default="none")
        assert backend._find_keys("i\u0307 \u00df ss Ss") == set()
        assert backend.complete(chat("Candidate medication: \u0130")).text == "dotted"

    def test_call_checks_only_steps_of_its_own_case(self, monkeypatch):
        cases = [plan_case(random.Random(0), n) for n in range(500)]
        late = next(c for c in reversed(cases) if any(
            "Candidate medication:" in s.matcher[0] for s in c.steps))
        solo = backend_for_cases([late])
        ExtractionPipeline(solo, PipelineConfig(demonstrations_k=0)).run(late.document)
        prune = next(r for r in solo.calls if "Candidate medication:" in r.text)
        backend = backend_for_cases(cases)
        checks = [0]
        matches = ScriptStep.matches

        def counting(step, request, found):
            checks[0] += 1
            return matches(step, request, found)

        monkeypatch.setattr(ScriptStep, "matches", counting)
        for request in (solo.calls[0], prune):
            checks[0] = 0
            backend.complete(request)
            assert checks[0] <= len(late.steps), f"{checks[0]} checks in {len(backend.steps)} steps"


def _python_steps(fn, *args):
    """`fn(*args)` and the trace events its frames in `selfverify.backend` raised."""
    steps = [0]

    def trace(frame, event, arg):
        if frame.f_code.co_filename != backend_module.__file__:
            return None
        steps[0] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, steps[0]


class TestKeyScanWork:
    """On adversarial keys the scan's Python-level work does not grow with the prompt.

    Each occurrence is handled inside `re.findall`; what runs as Python is
    one step per key that must be tested with `in`. Counted, not timed.
    """

    @pytest.mark.parametrize("keys", [
        ["a"],  # one key at every position of the prompt
        ["a" * k for k in range(1, 201)],  # 200 keys, each inside the longer ones
        ["a" * i + "b" + "a" * (199 - i) for i in range(200)],  # 200 keys whose ends overlap
        ["x" + "a" * i + "b" for i in range(30)],  # a trie 30 branches deep
    ], ids=["one_char", "nested", "overlapping", "deep"])
    def test_python_steps_do_not_grow_with_the_prompt(self, keys):
        backend = MockBackend([ScriptStep(key, key) for key in keys])
        counts = []
        for n in (10_000, 20_000):
            for text in ("a" * n, "a" * (n // 2) + keys[-1] + "a" * (n // 2)):
                found, steps = _python_steps(backend._find_keys, text)
                assert found == {key for key in keys if key in text}
                counts.append(steps)
        assert counts[:2] == counts[2:]
        assert max(counts) <= 3 * len(keys) + 10


# Needles over a three-letter alphabet nest, share prefixes and start
# inside one another, in their own first-character group ("axa", "ab") and
# across groups ("xab", "ab"). The ladder's keys share ever longer
# prefixes: together they make a trie 18 branches deep.
_SMALL = "abx"
_LADDER = ["x" + "a" * i + "b" for i in range(18)]
_small_needles = st.text(_SMALL, max_size=5) | st.sampled_from(_LADDER)
_small_script = st.lists(st.tuples(
    _small_needles | st.lists(_small_needles, max_size=3) | st.sampled_from([_has_ab, _never]),
    st.booleans(),
), max_size=12)
_small_texts = st.lists(st.lists(_small_needles, max_size=6).map("".join), min_size=1, max_size=6)


class TestSubstringSet:
    """A call decides every step by the set of substrings one scan of its prompt finds."""

    def test_the_ladder_reaches_past_the_trie_depth(self):
        deep: set[str] = set()
        backend_module._trie_branches(_LADDER, deep)
        assert deep

    @given(script=_small_script, ladder=st.booleans(), texts=_small_texts)
    @settings(max_examples=400, deadline=None)
    def test_scan_and_calls_agree_with_in_tests(self, script, ladder, texts):
        script = script + [(key, False) for key in _LADDER] * ladder
        steps = [ScriptStep(m, f"step {i}", once=once) for i, (m, once) in enumerate(script)]
        needles = {n for m, _ in script if not callable(m) for n in ([m] if isinstance(m, str) else m)} - {""}
        backend = MockBackend(steps, default=None)
        consumed: set[int] = set()
        for text in texts:
            assert backend._find_keys(text) == {n for n in needles if n in text}, text
            request = chat(text)
            try:
                want = linear_mock_complete(steps, consumed, request, None).text
            except ScriptExhausted:
                want = ScriptExhausted
            try:
                got = backend.complete(request).text
            except ScriptExhausted:
                got = ScriptExhausted
            assert got == want, text

    def test_a_key_starting_inside_another_of_its_group_is_found(self):
        backend = MockBackend([ScriptStep(["ab", "axa"], "both"), ScriptStep("axa", "axa only")])
        assert backend._find_keys("axab") == {"axa", "ab"}
        assert backend.complete(chat("axab")).text == "both"
        assert backend.complete(chat("axax")).text == "axa only"

    def test_one_finder_serves_every_backend_of_a_script(self):
        steps = [ScriptStep(["Case 1.", "List"], "a"), ScriptStep("Case 10.", "b")]
        assert MockBackend(steps)._find_keys is MockBackend(list(steps))._find_keys


class TestLoadScript:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            '# comment\n'
            '{"match": "alpha", "response": "A"}\n'
            '\n'
            '{"match": ["b", "c"], "response": "BC", "once": true}\n'
            '{"response": "default-ish"}\n',
            encoding="utf-8",
        )
        steps = load_script(path)
        assert len(steps) == 3
        backend = MockBackend(steps)
        assert backend.complete(chat("has b and c")).text == "BC"
        assert backend.complete(chat("alpha")).text == "A"
        assert backend.complete(chat("anything")).text == "default-ish"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad JSON"):
            load_script(path)

    def test_missing_response(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"match": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="response"):
            load_script(path)

    def test_non_string_match_element_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"match": "ok", "response": "A"}\n{"match": [1, "x"], "response": "B"}\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: 'match'"):
            load_script(path)

    def test_non_boolean_once_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"match": "x", "response": "A", "once": "false"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: 'once'"):
            load_script(path)

    def test_non_string_response_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"match": "x", "response": {"text": "A"}}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: 'response'"):
            load_script(path)


class FakeHttpResponse:
    def __init__(self, status_code=200, payload=None, headers=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.posts: list[tuple[str, dict, dict]] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append((url, json, headers))
        out = self.outcomes.pop(0)
        if isinstance(out, Exception):
            raise out
        return out


class FakeClock:
    def __init__(self):
        self.t = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.t += seconds


def chat_payload(text="the answer", finish="stop"):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


def make_backend(outcomes, **config_kwargs):
    clock = FakeClock()
    session = FakeSession(outcomes)
    config = HttpConfig(base_url="http://llm.test", max_attempts=4, **config_kwargs)
    backend = HttpBackend(config, session=session, sleep=clock.sleep, clock=clock)
    return backend, session, clock


class TestHttpBackend:
    def test_chat_success(self):
        backend, session, _ = make_backend([FakeHttpResponse(payload=chat_payload())])
        resp = backend.complete(chat("question"))
        assert resp.text == "the answer"
        assert resp.finish_reason is FinishReason.STOP
        assert resp.usage.prompt_tokens == 7
        url, payload, _ = session.posts[0]
        assert url == "http://llm.test/v1/chat/completions"
        assert payload["messages"] == [{"role": "user", "content": "question"}]
        assert payload["temperature"] == 0.1

    def test_length_finish_reason(self):
        backend, _, _ = make_backend([FakeHttpResponse(payload=chat_payload("cut", finish="length"))])
        resp = backend.complete(chat())
        assert resp.text == "cut"
        assert resp.finish_reason is FinishReason.LENGTH

    def test_parsed_reply_and_clocked_latency_reach_the_caller(self):
        clock = FakeClock()

        class TimedSession(FakeSession):
            def post(self, *args, **kwargs):
                clock.t += 0.25  # the request takes 250 ms by the backend's clock
                return super().post(*args, **kwargs)

        session = TimedSession([FakeHttpResponse(payload=chat_payload("cut", finish="length"))])
        backend = HttpBackend(HttpConfig(base_url="http://llm.test"), session=session, sleep=clock.sleep, clock=clock)
        expected = LlmResponse("cut", FinishReason.LENGTH, Usage(prompt_tokens=7, completion_tokens=3), 250.0)
        assert backend.complete(chat()) == expected

    def test_retries_then_succeeds(self):
        backend, session, clock = make_backend(
            [
                FakeHttpResponse(status_code=503),
                requests.ConnectionError("boom"),
                FakeHttpResponse(payload=chat_payload("finally")),
            ]
        )
        assert backend.complete(chat()).text == "finally"
        assert len(session.posts) == 3
        assert clock.sleeps  # backed off between attempts

    def test_exponential_backoff_growth(self):
        backend, _, clock = make_backend(
            [FakeHttpResponse(status_code=500)] * 3
            + [FakeHttpResponse(payload=chat_payload())]
        )
        backend.complete(chat())
        waits = [s for s in clock.sleeps if s > 0]
        assert waits == sorted(waits)
        assert len(waits) >= 3

    def test_gives_up_after_max_attempts(self):
        backend, session, _ = make_backend([FakeHttpResponse(status_code=500)] * 4)
        with pytest.raises(BackendError):
            backend.complete(chat())
        assert len(session.posts) == 4

    def test_non_retryable_error_raises_immediately(self):
        backend, session, _ = make_backend([FakeHttpResponse(status_code=400, text="bad req")])
        with pytest.raises(BackendError, match="400"):
            backend.complete(chat())
        assert len(session.posts) == 1

    def test_rate_limit_honors_retry_after(self):
        backend, session, clock = make_backend(
            [
                FakeHttpResponse(status_code=429, headers={"Retry-After": "3"}),
                FakeHttpResponse(payload=chat_payload()),
            ]
        )
        resp = backend.complete(chat())
        assert resp.text == "the answer"
        assert clock.t >= 3.0

    def test_retries_and_cooldowns_are_logged_at_debug(self, caplog):
        backend, _, _ = make_backend([
            FakeHttpResponse(status_code=503),
            requests.ConnectionError("boom"),
            FakeHttpResponse(status_code=429, headers={"Retry-After": "3"}),
            FakeHttpResponse(payload=chat_payload()),
        ])
        with caplog.at_level("DEBUG", logger="selfverify.backend"):
            backend.complete(chat())
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("DEBUG", "attempt 2 of 4 in 0.5 s, after: server error 503"),
            ("DEBUG", "attempt 3 of 4 in 1 s, after: request failed: boom"),
            ("DEBUG", "rate limited (429): cooling down for 3 s"),
            ("DEBUG", "attempt 4 of 4 in 2 s, after: rate limited (429)"),
        ]

    def test_rate_limit_exhaustion_raises_rate_limited(self):
        backend, _, _ = make_backend(
            [FakeHttpResponse(status_code=429, headers={"Retry-After": "1"})] * 4
        )
        with pytest.raises(RateLimited) as exc_info:
            backend.complete(chat())
        assert exc_info.value.retry_after == 1.0

    def test_cooldown_shared_across_threads(self):
        backend, _, clock = make_backend(
            [
                FakeHttpResponse(status_code=429, headers={"Retry-After": "5"}),
                FakeHttpResponse(payload=chat_payload()),
                FakeHttpResponse(payload=chat_payload()),
            ]
        )
        backend.complete(chat("first"))
        t_after_first = clock.t
        backend.complete(chat("second"))
        # Second call sees an already-expired cooldown and pays no extra wait
        # beyond normal operation.
        assert clock.t >= t_after_first
        assert t_after_first >= 5.0

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sekret")
        backend, session, _ = make_backend([FakeHttpResponse(payload=chat_payload())])
        backend.complete(chat())
        _, _, headers = session.posts[0]
        assert headers["Authorization"] == "Bearer sekret"

    def test_custom_auth_header(self, monkeypatch):
        monkeypatch.setenv("MY_KEY", "k123")
        backend, session, _ = make_backend(
            [FakeHttpResponse(payload=chat_payload())],
            api_key_env="MY_KEY",
            auth_header="x-api-key",
            auth_scheme="",
        )
        backend.complete(chat())
        _, _, headers = session.posts[0]
        assert headers["x-api-key"] == "k123"

    def test_malformed_payload(self):
        backend, _, _ = make_backend([FakeHttpResponse(payload={"weird": True})])
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(chat())

    @pytest.mark.parametrize("count", [None, "12k", [3], {}])
    def test_unreadable_usage_counts_mean_no_usage(self, count):
        payload = chat_payload()
        payload["usage"]["prompt_tokens"] = count
        backend, _, _ = make_backend([FakeHttpResponse(payload=payload)])
        resp = backend.complete(chat())
        assert (resp.text, resp.usage) == ("the answer", None)

    @pytest.mark.parametrize("content", [["a"], {"text": "a"}, 3, True])
    def test_content_that_is_not_text_is_malformed(self, content):
        backend, session, _ = make_backend([FakeHttpResponse(payload=chat_payload(text=content))])
        with pytest.raises(BackendError, match="malformed completion payload"):
            backend.complete(chat())
        assert len(session.posts) == 1

    def test_null_content_is_an_empty_reply(self):
        backend, _, _ = make_backend([FakeHttpResponse(payload=chat_payload(text=None))])
        assert backend.complete(chat()).text == ""

    def test_invalid_json(self):
        backend, _, _ = make_backend([FakeHttpResponse(payload=None)])
        with pytest.raises(BackendError, match="JSON"):
            backend.complete(chat())


KEY_A = "ab" * 32
KEY_B = "cd" * 32


class TestResponseStore:
    def test_roundtrip(self, tmp_path):
        store = ResponseStore(tmp_path / "cache.bin")
        assert store.get(KEY_A) is None
        assert store.put(KEY_A, "hello world")
        assert store.get(KEY_A) == "hello world"
        assert KEY_A in store
        assert len(store) == 1

    def test_write_at_most_once(self, tmp_path):
        store = ResponseStore(tmp_path / "cache.bin")
        assert store.put(KEY_A, "first")
        assert not store.put(KEY_A, "second")
        assert store.get(KEY_A) == "first"

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "cache.bin"
        ResponseStore(path).put(KEY_A, "persisted ünïcode")
        again = ResponseStore(path)
        assert again.get(KEY_A) == "persisted ünïcode"

    def test_exact_byte_layout(self, tmp_path):
        path = tmp_path / "cache.bin"
        store = ResponseStore(path)
        store.put(KEY_A, "hello", timestamp=1700000000)
        data = path.read_bytes()
        assert data[:32] == bytes.fromhex(KEY_A)
        assert struct.unpack(">Q", data[32:40])[0] == 1700000000
        assert struct.unpack(">I", data[40:44])[0] == 5
        assert data[44:49] == b"hello"
        assert len(data) == 49

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "cache.bin"
        ResponseStore(path).put(KEY_A, "some longer text here")
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(StoreCorrupt):
            ResponseStore(path)

    def test_get_serves_from_memory_after_open(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.bin"
        ResponseStore(path).put(KEY_A, "read at open")
        store = ResponseStore(path)
        store.put(KEY_B, "just put")

        def refuse(*args, **kwargs):
            raise AssertionError("the store touched its file on a lookup")

        with monkeypatch.context() as m:
            m.setattr("builtins.open", refuse)
            m.setattr(Path, "open", refuse)
            texts = [store.get(KEY_A), store.get(KEY_B), store.get("ef" * 32)]
        assert texts == ["read at open", "just put", None]

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(StoreCorrupt):
            ResponseStore(path)

    def test_bad_key_rejected(self, tmp_path):
        store = ResponseStore(tmp_path / "cache.bin")
        with pytest.raises(ValueError):
            store.put("zz", "text")
        with pytest.raises(ValueError):
            store.get("not hex!")

    def test_purge(self, tmp_path):
        path = tmp_path / "cache.bin"
        store = ResponseStore(path)
        store.put(KEY_A, "a")
        store.put(KEY_B, "b")
        assert store.purge() == 2
        assert len(store) == 0
        assert path.stat().st_size == 0

    def test_merge_from(self, tmp_path):
        a = ResponseStore(tmp_path / "a.bin")
        a.put(KEY_A, "from a")
        b = ResponseStore(tmp_path / "b.bin")
        b.put(KEY_A, "conflicting")
        b.put(KEY_B, "from b")
        added = a.merge_from(tmp_path / "b.bin")
        assert added == 1
        assert a.get(KEY_A) == "from a"
        assert a.get(KEY_B) == "from b"

    def test_merge_from_keeps_each_records_timestamp(self, tmp_path):
        source = ResponseStore(tmp_path / "source.bin")
        source.put(KEY_A, "stored at 1000", timestamp=1000)
        source.put(KEY_B, "stored at 2000", timestamp=2000)
        copy = ResponseStore(tmp_path / "copy.bin")
        assert copy.merge_from(source.path) == 2
        assert copy.path.read_bytes() == source.path.read_bytes()
        assert struct.unpack(">Q", copy.path.read_bytes()[32:40]) == (1000,)

    def test_stats(self, tmp_path):
        store = ResponseStore(tmp_path / "cache.bin")
        store.put(KEY_A, "xyz")
        s = store.stats()
        assert s["entries"] == 1
        assert s["bytes"] == 44 + 3

    @given(st.dictionaries(st.sampled_from([KEY_A, KEY_B, "ef" * 32]), st.text(max_size=50), max_size=3))
    @settings(max_examples=50)
    def test_roundtrip_property(self, entries):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            store = ResponseStore(f"{d}/s.bin")
            for k, v in entries.items():
                store.put(k, v)
            reopened = ResponseStore(f"{d}/s.bin")
            for k, v in entries.items():
                assert reopened.get(k) == v


def _record(key: str, text: str) -> bytes:
    payload = text.encode("utf-8")
    return bytes.fromhex(key) + struct.pack(">QI", 1700000000, len(payload)) + payload


# Files of two whole records followed by a torn or bad tail: the tail's
# bytes and the records it counts as.
_TORN_TAILS = {
    "truncated_header": (b"\x00" * 10, 1),
    "truncated_body": (_record("ef" * 32, "cut off in the middle")[:-5], 1),
    "bad_utf8": (
        _record("ef" * 32, "x").replace(b"x", b"\xff") + _record("01" * 32, "after the bad one"),
        2,
    ),
}


class TestStoreRepair:
    @pytest.mark.parametrize("tail", sorted(_TORN_TAILS))
    def test_repair_truncates_to_last_whole_record(self, tmp_path, tail):
        path = tmp_path / "cache.bin"
        good = _record(KEY_A, "first") + _record(KEY_B, "second ünïcode")
        bad, records = _TORN_TAILS[tail]
        path.write_bytes(good + bad)
        with pytest.raises(StoreCorrupt):
            ResponseStore(path)
        assert ResponseStore.repair(path) == (len(bad), records)
        assert path.read_bytes() == good
        store = ResponseStore(path)
        assert (store.get(KEY_A), store.get(KEY_B), len(store)) == ("first", "second ünïcode", 2)
        assert ResponseStore.repair(path) == (0, 0)

    def test_repair_of_an_empty_or_whole_file_changes_nothing(self, tmp_path):
        path = tmp_path / "cache.bin"
        path.write_bytes(b"")
        assert ResponseStore.repair(path) == (0, 0)
        ResponseStore(path).put(KEY_A, "kept")
        before = path.read_bytes()
        assert ResponseStore.repair(path) == (0, 0)
        assert path.read_bytes() == before


_APPENDER = """
import hashlib, sys
from selfverify.backend import ResponseStore
store = ResponseStore(sys.argv[1])
name = sys.argv[2]
for i in range(300):
    key = hashlib.sha256(f"{name}-{i}".encode()).hexdigest()
    store.put(key, f"{name}-{i}:" + name * (i * 97 % 20000))
"""


def test_two_recording_processes_never_interleave_records(tmp_path):
    """Two processes append 300 records each to one store, some 20 kB long."""
    path = tmp_path / "cache.bin"
    src = str(Path(__file__).resolve().parent.parent / "src")
    writers = [
        subprocess.Popen([sys.executable, "-c", _APPENDER, str(path), name], env={**os.environ, "PYTHONPATH": src})
        for name in ("a", "b")
    ]
    assert [writer.wait(timeout=120) for writer in writers] == [0, 0]
    store = ResponseStore(path)
    assert len(store) == 600
    for name in ("a", "b"):
        for i in range(300):
            key = hashlib.sha256(f"{name}-{i}".encode()).hexdigest()
            assert store.get(key) == f"{name}-{i}:" + name * (i * 97 % 20000)


def _merged(path: Path) -> ResponseStore:
    store = ResponseStore(path.with_name("merged.bin"))
    store.merge_from(path)
    return store


@pytest.mark.parametrize("open_store", [ResponseStore, _merged], ids=["open", "merge_from"])
def test_opening_a_store_waits_for_an_append_in_flight(tmp_path, open_store):
    """A store opened while another writer holds the lock mid-record reads the whole record."""
    import fcntl

    path = tmp_path / "cache.bin"
    ResponseStore(path).put(KEY_A, "before")
    record = bytes.fromhex(KEY_B) + struct.pack(">QI", 0, 6) + b"during"
    opened: list[object] = []
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, record[:40])
        reader = threading.Thread(target=lambda: opened.append(_outcome(open_store, path)))
        reader.start()
        reader.join(timeout=0.3)  # a reader that does not wait has read the torn tail by now
        os.write(fd, record[40:])
    finally:
        os.close(fd)  # releases the lock
    reader.join(timeout=10)
    assert opened and not isinstance(opened[0], Exception), opened
    assert (opened[0].get(KEY_A), opened[0].get(KEY_B)) == ("before", "during")


def test_purge_waits_for_an_append_in_flight(tmp_path):
    """Purging while another writer holds the lock mid-record cuts the file after the record, not under it."""
    import fcntl

    path = tmp_path / "cache.bin"
    store = ResponseStore(path)
    store.put(KEY_A, "before")
    record = bytes.fromhex(KEY_B) + struct.pack(">QI", 0, 6) + b"during"
    purged: list[object] = []
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, record[:40])
        purger = threading.Thread(target=lambda: purged.append(_outcome(store.purge)))
        purger.start()
        purger.join(timeout=0.3)  # a purge that does not wait has truncated by now
        os.write(fd, record[40:])
    finally:
        os.close(fd)  # releases the lock
    purger.join(timeout=10)
    assert purged == [1]
    assert path.stat().st_size == 0
    assert len(ResponseStore(path)) == 0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the test reports it
        return exc


class CountingBackend(Backend):
    def __init__(self):
        self.calls = 0

    def complete(self, request: LlmRequest) -> LlmResponse:
        self.calls += 1
        return LlmResponse(text=f"reply #{self.calls} to {request.text}", latency_ms=12.5)


class TestCachingBackend:
    def test_second_call_hits_cache(self, tmp_path):
        inner = CountingBackend()
        cached = CachingBackend(inner, ResponseStore(tmp_path / "c.bin"))
        first = cached.complete(chat("q"))
        second = cached.complete(chat("q"))
        assert inner.calls == 1
        assert not first.from_cache
        assert second.from_cache
        assert second.text == first.text
        assert second.latency_ms == 0.0

    def test_distinct_requests_both_call(self, tmp_path):
        inner = CountingBackend()
        cached = CachingBackend(inner, ResponseStore(tmp_path / "c.bin"))
        cached.complete(chat("q1"))
        cached.complete(chat("q2"))
        assert inner.calls == 2


class TestRecordReplay:
    def test_record_then_replay(self, tmp_path):
        store_path = tmp_path / "rec.bin"
        recorder = CachingBackend(MockBackend([], default="canned"), ResponseStore(store_path))
        live = recorder.complete(chat("q"))
        replayer = ReplayBackend(ResponseStore(store_path))
        replayed = replayer.complete(chat("q"))
        assert replayed.text == live.text
        assert replayed.from_cache
        assert replayed.latency_ms == 0.0

    def test_replay_miss(self, tmp_path):
        replayer = ReplayBackend(ResponseStore(tmp_path / "empty.bin"))
        with pytest.raises(ReplayMiss):
            replayer.complete(chat("never recorded"))
