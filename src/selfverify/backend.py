"""Backends for model calls: HTTP, scripted mock, record/replay.

All pipeline steps go through the Backend.complete interface, so any step
can run against a live OpenAI-compatible server, a deterministic script, or
a byte-exact replay of a previous run. Cache keys are content hashes of
every request field that affects the completion.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import struct
import threading
import time
from abc import ABC, abstractmethod
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .core import decode_json

if TYPE_CHECKING:
    import requests

_log = logging.getLogger(__name__)
DEFAULT_TEMPERATURE = 0.1
DEFAULT_MAX_OUTPUT_TOKENS = 1024


class FinishReason(str, Enum):
    STOP = "stop"
    LENGTH = "length"
    ERROR = "error"


@dataclass(frozen=True)
class Message:
    role: str
    content: str


@dataclass(frozen=True)
class LlmRequest:
    """One chat request; immutable so it can hash and cross threads."""

    model_id: str
    messages: tuple[Message, ...]
    temperature: float = DEFAULT_TEMPERATURE
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("chat requests need at least one message")
        # All message text joined, for script matching and debugging; not a
        # field, so equality and hashing ignore it and `replace` recomputes it.
        object.__setattr__(self, "text", "\n".join(m.content for m in self.messages))

    @classmethod
    def chat(cls, model_id: str, user_text: str, **kwargs) -> "LlmRequest":
        return cls(model_id=model_id, messages=(Message("user", user_text),), **kwargs)


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class LlmResponse:
    text: str
    finish_reason: FinishReason = FinishReason.STOP
    usage: Usage | None = None
    latency_ms: float = 0.0
    from_cache: bool = False


_pack_len = struct.Struct(">I").pack
# The mode and prompt fields of a removed completion mode, constant; kept so stored keys still hit.
_CHAT_MODE = b"mode\0" + _pack_len(4) + b"chat" + b"prompt\0" + _pack_len(0)


def cache_key(request: LlmRequest) -> str:
    """Content hash of a request: sha256 hex over a canonical encoding.

    Every field is written as (tag, NUL, big-endian length, utf-8 bytes) in
    a fixed order, so no combination of values can collide by concatenation
    and adding a field later changes every key (by design). The fields are
    joined first and hashed in one call.
    """
    model = request.model_id.encode()
    parts = [b"model_id\0", _pack_len(len(model)), model, _CHAT_MODE]
    for i, msg in enumerate(request.messages):
        role, content = msg.role.encode(), msg.content.encode()
        parts += (b"message.%d.role\0" % i, _pack_len(len(role)), role,
                  b"message.%d.content\0" % i, _pack_len(len(content)), content)
    temperature, max_tokens = repr(request.temperature).encode(), str(request.max_output_tokens).encode()
    parts += (b"temperature\0", _pack_len(len(temperature)), temperature,
              b"max_output_tokens\0", _pack_len(len(max_tokens)), max_tokens)
    return hashlib.sha256(b"".join(parts)).hexdigest()


class BackendError(Exception):
    """Unrecoverable backend failure after retries."""


class RateLimited(BackendError):
    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ScriptExhausted(BackendError):
    """A mock script had no step matching the request."""


class ReplayMiss(BackendError):
    """Replay was asked for a request that was never recorded."""


class StoreCorrupt(BackendError):
    """The response store file failed structural validation."""

    def __init__(self, path: Path, problem: str):
        super().__init__(f"{path}: {problem}")
        self.path = path


class Backend(ABC):
    @abstractmethod
    def complete(self, request: LlmRequest) -> LlmResponse:
        raise NotImplementedError


@dataclass
class ScriptStep:
    """One mock rule: when `matcher` accepts the request, answer `response`.

    `matcher` is a substring of the request text, a list of substrings that
    must all be present, or a predicate on the request. `once` steps are
    consumed by their first use, which lets scripts express "answer A the
    first time, B afterwards".
    """

    matcher: str | list[str] | Callable[[LlmRequest], bool]
    response: str | LlmResponse | Callable[[LlmRequest], str]
    once: bool = False

    def __post_init__(self) -> None:
        m = self.matcher  # read once: a later edit of it is not seen
        self._needles = None if callable(m) else frozenset((m,) if isinstance(m, str) else m)

    def matches(self, request: LlmRequest, found: set[str]) -> bool:
        """Whether the step answers `request`, whose text holds `""` and the script's substrings in `found`."""
        if self._needles is None:
            return bool(self.matcher(request))
        return self._needles <= found

    def render(self, request: LlmRequest) -> LlmResponse:
        r = self.response
        if callable(r):
            r = r(request)
        if isinstance(r, LlmResponse):
            return r
        return LlmResponse(text=r, finish_reason=FinishReason.STOP, latency_ms=0.0)


class MockBackend(Backend):
    """Deterministic scripted backend; first matching step wins.

    With no matching step, returns `default` when set, otherwise raises
    ScriptExhausted. Thread-safe: matching and `once` consumption are
    atomic, and the reply is rendered after, so callable responses of
    concurrent calls run concurrently.

    Each step is filed under the one of its substrings that fewest steps
    share (callable and `[]` matchers under `""`, which every text holds).
    A call finds every substring of the script that its prompt holds in
    one scan per first character (`_key_finder`), then checks the steps
    filed under them in script order, each by one subset test of its
    needle set against that set: the prompt is not read again. The index
    and the finder are built once per script's needle sets
    (`_script_index`) and shared, read-only, by every backend of equal
    steps; each backend keeps its own steps, consumption, call log and
    lock. Needles are read when a step is made, so a later edit of a
    step's `response` is seen but one of its `matcher` is not.
    """

    def __init__(self, steps: list[ScriptStep] | None = None, default: str | None = None):
        self.steps = list(steps or [])
        self.default = default
        self.calls: list[LlmRequest] = []
        self._consumed: set[int] = set()
        self._lock = threading.Lock()
        self._by_key, self._find_keys = _script_index(tuple(s._needles for s in self.steps))

    def complete(self, request: LlmRequest) -> LlmResponse:
        found = self._find_keys(request.text)
        found.add("")
        candidates = sorted(i for key in found for i in self._by_key.get(key, ()))
        step = None
        with self._lock:
            self.calls.append(request)
            for i in candidates:
                if i not in self._consumed and self.steps[i].matches(request, found):
                    step = self.steps[i]
                    if step.once:
                        self._consumed.add(i)
                    break
        if step is not None:
            return step.render(request)
        if self.default is not None:
            return LlmResponse(text=self.default, finish_reason=FinishReason.STOP)
        raise ScriptExhausted(
            f"no script step matched request starting {request.text[:120]!r}"
        )


@lru_cache
def _script_index(needles: tuple[frozenset[str] | None, ...]) -> tuple[dict[str, list[int]], Callable]:
    """The steps filed by key, and the key finder, of a script whose steps have `needles`.

    `None` stands for a callable matcher. Cached: backends of steps with
    equal needles share the result, which none of them may change.
    """
    lists = [sorted(ns) if ns else [""] for ns in needles]  # sorted: ties file the same in every process
    shared = Counter(n for ns in lists for n in ns)
    by_key: dict[str, list[int]] = {}
    for i, ns in enumerate(lists):
        by_key.setdefault(min(ns, key=shared.__getitem__), []).append(i)
    return by_key, _key_finder(tuple(n for n in shared if n))


def _key_finder(keys: tuple[str, ...]) -> Callable[[str], set[str]]:
    """A function giving a fresh set of the `keys` (distinct, non-empty) that a text holds.

    The keys no other key holds make one regex per first character, led by
    their common prefix, which `re` seeks at C speed; each `findall` is one
    pass. A key alone under its first character gets `in` instead, which
    finds one literal faster. Matches do not overlap, so a scan can miss a
    key inside another, or one that starts only inside matches of other
    keys of its own first character, which then occurs again in one of
    them: those few get `in` too, as do keys too deep in the trie (see
    `_trie_branches`).
    """
    joined = "\0".join(keys)  # a key inside another occurs twice here
    inner = {key for key in keys if "\0" in key or joined.count(key) > 1}
    outer = [key for key in keys if key not in inner]
    firsts = Counter(key[0] for key in outer)
    recurs = Counter(key[0] for key in outer if key[0] in key[1:])  # minus the key itself below
    deep: set[str] = set()
    scans = [re.compile(b).findall for b in _trie_branches([k for k in outer if firsts[k[0]] > 1], deep)]
    rescan = [key for key in keys if key in inner or key in deep or firsts[key[0]] == 1
              or recurs[key[0]] > (key[0] in key[1:])]
    return lambda text: set().union(*[scan(text) for scan in scans], [key for key in rescan if key in text])


def _trie_branches(keys: list[str], deep: set[str], at: int = 0, depth: int = 0) -> list[str]:
    """One regex per character at index `at` of `keys`, which share what comes before it.

    Keys (none a prefix of another) that share a prefix share a branch, as
    in a trie. Past 16 nested branches, which no script of prompt lines
    reaches, the keys go to `deep` instead: that bounds the branches a scan
    tries at each position of a text.
    """
    if depth == 16:
        deep.update(keys)
        return []
    by_next: dict[str, list[str]] = {}
    for key in keys:
        by_next.setdefault(key[at], []).append(key)
    branches = []
    for group in by_next.values():
        head = os.path.commonprefix(group)  # the whole key when it is alone
        rest = _trie_branches(group, deep, len(head), depth + 1) if len(group) > 1 else []
        if len(group) == 1 or rest:
            branches.append(re.escape(head[at:]) + (f"(?:{'|'.join(rest)})" if rest else ""))
    return branches


def load_script(path: str | Path) -> list[ScriptStep]:
    """Read mock script steps from a JSONL file.

    Each line is an object with "response" (required) and "match" (a
    substring or list of substrings; omit to match anything) plus optional
    "once" (a JSON boolean). Blank lines and lines starting with # are
    skipped.
    """
    steps: list[ScriptStep] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = decode_json(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from None
        if not isinstance(obj, dict) or "response" not in obj:
            raise ValueError(f"{path}:{lineno}: each step needs a 'response' field")
        match, response, once = obj.get("match", ""), obj["response"], obj.get("once", False)
        if not isinstance(match, (str, list)) or not all(isinstance(m, str) for m in match):
            raise ValueError(f"{path}:{lineno}: 'match' must be a string or list of strings")
        if not isinstance(response, str):
            raise ValueError(f"{path}:{lineno}: 'response' must be a string")
        if not isinstance(once, bool):
            raise ValueError(f"{path}:{lineno}: 'once' must be true or false")
        steps.append(ScriptStep(matcher=match, response=response, once=once))
    return steps


@dataclass
class HttpConfig:
    """Connection settings for an OpenAI-compatible HTTP server."""

    base_url: str
    api_key_env: str = "LLM_API_KEY"
    auth_header: str = "Authorization"
    auth_scheme: str = "Bearer"
    timeout_s: float = 60.0
    max_attempts: int = 5
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    extra_headers: dict[str, str] = field(default_factory=dict)


_RETRYABLE_STATUS = {500, 502, 503, 504}


class HttpBackend(Backend):
    """Talks to /v1/chat/completions with retry/backoff.

    Transient failures (connection errors, 5xx) retry with exponential
    backoff up to max_attempts. 429 responses honor Retry-After through a
    cooldown shared by all threads using this backend instance. Each retry
    and each cooldown is logged at DEBUG.
    """

    def __init__(
        self,
        config: HttpConfig,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        import requests  # only a live endpoint needs it; the import is slow

        self.config = config
        self.session = session or requests.Session()
        self._sleep = sleep
        self._clock = clock
        self._cooldown_until = 0.0
        self._cooldown_lock = threading.Lock()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        headers.update(self.config.extra_headers)
        key = os.environ.get(self.config.api_key_env, "")
        if key:
            scheme = self.config.auth_scheme
            headers[self.config.auth_header] = f"{scheme} {key}".strip() if scheme else key
        return headers

    def _wait_for_cooldown(self) -> None:
        while True:
            with self._cooldown_lock:
                remaining = self._cooldown_until - self._clock()
            if remaining <= 0:
                return
            self._sleep(min(remaining, 1.0))

    def _enter_cooldown(self, seconds: float) -> None:
        with self._cooldown_lock:
            self._cooldown_until = max(self._cooldown_until, self._clock() + seconds)

    @staticmethod
    def _parse_response(data: dict) -> LlmResponse:
        try:
            choice = data["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from None
        if text is not None and not isinstance(text, str):
            raise BackendError(f"malformed completion payload: content is {type(text).__name__}")
        raw_reason = str(choice.get("finish_reason", "stop")).lower()
        if raw_reason in ("stop", "end_turn", "stop_sequence"):
            reason = FinishReason.STOP
        elif raw_reason in ("length", "max_tokens"):
            reason = FinishReason.LENGTH
        else:
            reason = FinishReason.ERROR
        usage = None
        if isinstance(data.get("usage"), dict):
            u = data["usage"]
            try:  # counts that int() cannot read mean no usage, not a failed call
                usage = Usage(
                    prompt_tokens=int(u.get("prompt_tokens", 0)),
                    completion_tokens=int(u.get("completion_tokens", 0)),
                )
            except (TypeError, ValueError):
                pass
        return LlmResponse(text=text or "", finish_reason=reason, usage=usage)

    def complete(self, request: LlmRequest) -> LlmResponse:
        import requests

        url = f"{self.config.base_url.rstrip('/')}/v1/chat/completions"
        payload = {
            "model": request.model_id,
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        }
        last_error: Exception | None = None
        for attempt in range(self.config.max_attempts):
            self._wait_for_cooldown()
            if attempt:
                delay = min(self.config.backoff_base_s * 2 ** (attempt - 1), self.config.backoff_cap_s)
                _log.debug("attempt %d of %d in %.3g s, after: %s", attempt + 1, self.config.max_attempts,
                           delay, last_error)
                self._sleep(delay)
            started = self._clock()
            try:
                resp = self.session.post(
                    url, json=payload, headers=self._headers(), timeout=self.config.timeout_s
                )
            except requests.RequestException as exc:
                last_error = BackendError(f"request failed: {exc}")
                continue
            elapsed_ms = (self._clock() - started) * 1000.0
            if resp.status_code == 429:
                retry_after = _parse_retry_after(resp.headers.get("Retry-After"))
                cooldown = retry_after if retry_after is not None else min(
                    self.config.backoff_base_s * 2**attempt, self.config.backoff_cap_s
                )
                self._enter_cooldown(cooldown)
                _log.debug("rate limited (429): cooling down for %.3g s", cooldown)
                last_error = RateLimited("rate limited (429)", retry_after=retry_after)
                continue
            if resp.status_code in _RETRYABLE_STATUS:
                last_error = BackendError(f"server error {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise BackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                data = decode_json(resp.text)
            except ValueError as exc:
                raise BackendError(f"invalid JSON from server: {exc}") from None
            return replace(self._parse_response(data), latency_ms=elapsed_ms)
        raise last_error if last_error else BackendError("no attempts made")


def _parse_retry_after(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


_STORE_HEADER_LEN = 32 + 8 + 4  # digest + timestamp + text length


def _read_records(data: bytes) -> tuple[dict[str, tuple[int, str]], int, str | None]:
    """The (timestamp, text) of a store file's whole records, by key, first record winning.

    Also the offset where the whole records end, and what is wrong with
    the bytes from there (None when nothing follows them).
    """
    index: dict[str, tuple[int, str]] = {}
    offset = 0
    while offset < len(data):
        if offset + _STORE_HEADER_LEN > len(data):
            return index, offset, "truncated record header"
        timestamp, text_len = struct.unpack(">QI", data[offset + 32 : offset + 44])
        end = offset + _STORE_HEADER_LEN + text_len
        if end > len(data):
            return index, offset, "truncated record body"
        try:
            text = data[offset + _STORE_HEADER_LEN : end].decode("utf-8")
        except UnicodeDecodeError:
            return index, offset, "undecodable text"
        index.setdefault(data[offset : offset + 32].hex(), (timestamp, text))
        offset = end
    return index, offset, None


@contextmanager
def _writer_lock(path: str | Path, flags: int) -> Iterator[int]:
    """A descriptor of the store file, open with `flags`, under the writers' exclusive `flock`."""
    import fcntl  # POSIX only, and only the store needs it

    fd = os.open(path, flags)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield fd
    finally:
        os.close(fd)


class ResponseStore:
    """Append-only binary store of (cache key -> response text).

    Record layout, repeated to end of file:
      32 bytes  sha256 digest of the request (the cache key, raw bytes)
       8 bytes  big-endian unsigned seconds since the epoch
       4 bytes  big-endian unsigned UTF-8 byte length of the text
       N bytes  the response text, UTF-8

    The file is read once on open, under a shared `flock`, and every text
    is kept in memory with its timestamp, so lookups never touch the file;
    a truncated or structurally invalid tail raises StoreCorrupt, and
    `repair` cuts the file back to its last whole record. Writes are
    at-most-once per key and thread-safe, and each record goes to the file
    in one append under an exclusive `flock`, so several processes can
    record into the same file and one opening it waits for an append in
    flight.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.RLock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.touch()
        import fcntl  # POSIX only, and only the store needs it

        with open(self.path, "rb") as f:
            fcntl.flock(f, fcntl.LOCK_SH)
            self._index, end, problem = _read_records(f.read())
        if problem:
            raise StoreCorrupt(self.path, f"{problem} at byte {end}")

    @staticmethod
    def repair(path: str | Path) -> tuple[int, int]:
        """Truncate a store file after its last whole record.

        Returns the bytes and the records dropped; a partial record counts
        as one. Holds the writers' lock while it works.
        """
        with _writer_lock(path, os.O_RDWR) as fd:
            data = Path(path).read_bytes()
            _, end, _ = _read_records(data)
            dropped, offset = 0, end
            while offset < len(data):
                dropped += 1
                offset += _STORE_HEADER_LEN + int.from_bytes(data[offset + 40 : offset + 44], "big")
            os.ftruncate(fd, end)
        return len(data) - end, dropped

    @staticmethod
    def _check_key(key: str) -> bytes:
        try:
            digest = bytes.fromhex(key)
        except ValueError:
            raise ValueError(f"cache key must be hex, got {key!r}") from None
        if len(digest) != 32:
            raise ValueError(f"cache key must be 32 bytes of hex, got {len(digest)}")
        return digest

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._index)

    def get(self, key: str) -> str | None:
        self._check_key(key)
        with self._lock:
            record = self._index.get(key)
        return None if record is None else record[1]

    def put(self, key: str, text: str, timestamp: int | None = None) -> bool:
        """Store text under key; returns False if the key already exists."""
        digest = self._check_key(key)
        payload = text.encode("utf-8")
        ts = int(time.time()) if timestamp is None else int(timestamp)
        with self._lock:
            if key in self._index:
                return False
            record = memoryview(digest + struct.pack(">QI", ts, len(payload)) + payload)
            with _writer_lock(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT) as fd:
                while record:
                    record = record[os.write(fd, record) :]
            self._index[key] = (ts, text)
            return True

    def purge(self) -> int:
        """Delete every record; returns how many were removed.

        Holds the writers' lock while it truncates, so an append in flight
        ends before the file is cut rather than after, at offset 0.
        """
        with self._lock:
            removed = len(self._index)
            with _writer_lock(self.path, os.O_WRONLY | os.O_CREAT) as fd:
                os.ftruncate(fd, 0)
            self._index = {}
            return removed

    def merge_from(self, other_path: str | Path) -> int:
        """Copy records absent here, with their timestamps, from another store file read as on open.

        Returns the count added. Copying a store into an empty one gives
        the same bytes, less any record whose key an earlier one holds.
        """
        other = ResponseStore(other_path)
        return sum(self.put(key, text, ts) for key, (ts, text) in other._index.items())

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._index), "bytes": self.path.stat().st_size}


class CachingBackend(Backend):
    """Serves from the store when possible, else calls inner and records.

    Each key is written at most once; cache hits report from_cache=True and
    zero latency so replayed timings never leak into fresh runs. With no
    inner model a miss raises ReplayMiss.
    """

    def __init__(self, inner: Backend | None, store: ResponseStore):
        self.inner = inner
        self.store = store

    def complete(self, request: LlmRequest) -> LlmResponse:
        key = cache_key(request)
        cached = self.store.get(key)
        if cached is not None:
            return LlmResponse(text=cached, finish_reason=FinishReason.STOP, latency_ms=0.0, from_cache=True)
        if self.inner is None:
            raise ReplayMiss(
                f"no recorded response for key {key[:12]}... "
                f"(request starts {request.text[:80]!r})"
            )
        response = self.inner.complete(request)
        self.store.put(key, response.text)
        return response


class ReplayBackend(CachingBackend):
    """The caching backend with no model: it answers only from the store."""

    def __init__(self, store: ResponseStore):
        super().__init__(None, store)
