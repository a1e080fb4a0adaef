"""Chat-completion client abstraction: HTTP backend, scriptable mock, retries.

One client shape serves both the generation model and the discrimination
model; they differ only in their `BackendConfig`. The mock backend replays a
finite script and keeps no request history.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from .errors import (
    BackendError,
    BackendTimeoutError,
    ConfigError,
    ProtocolError,
    RateLimitedError,
    ScriptedMissError,
    ServerBackendError,
)

log = logging.getLogger(__name__)

T = TypeVar("T")

RETRYABLE_CLASSES = ("rate_limited", "server_error", "timeout")

ROLES = ("system", "user", "assistant")


@dataclass
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")


@dataclass
class ChatRequest:
    """One chat-completion call: messages plus sampling parameters."""

    messages: list[ChatMessage]
    temperature: float = 0.0
    max_output: int = 2048
    model_name: str = ""

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.messages[-1].role != "user":
            raise ValueError("last message must have role 'user'")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @property
    def user_text(self) -> str:
        """Content of the final user message (what mock predicates match on)."""
        return self.messages[-1].content


@dataclass
class ChatReply:
    content: str
    usage: dict[str, int] = field(default_factory=dict)
    model_name: str = ""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: attempt i sleeps base_delay * multiplier**(i-1),
    scaled by a uniform jitter of +/- jitter_fraction."""

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    jitter_fraction: float = 0.0
    retry_on: tuple[str, ...] = RETRYABLE_CLASSES

    def __post_init__(self) -> None:
        for name in ("max_attempts", "base_delay", "multiplier", "jitter_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not (0.0 <= self.jitter_fraction <= 1.0):
            raise ValueError("jitter_fraction must be in [0, 1]")
        unknown = set(self.retry_on) - set(RETRYABLE_CLASSES)
        if unknown:
            raise ValueError(f"unknown retry classes: {sorted(unknown)}")

    def delay_for_attempt(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based)."""
        base = self.base_delay * self.multiplier ** (attempt - 1)
        if self.jitter_fraction and rng is not None:
            base *= 1.0 + self.jitter_fraction * rng.uniform(-1.0, 1.0)
        elif self.jitter_fraction:
            base *= 1.0 + self.jitter_fraction * random.uniform(-1.0, 1.0)
        return max(base, 0.0)


#: the policy of a backend that carries no config (built once, not per call)
DEFAULT_RETRY = RetryPolicy()


@dataclass
class BackendConfig:
    """Where and how to reach one chat model.

    ``kind`` selects the implementation: "http" talks the common
    chat-completions JSON shape; "mock" builds a self-driving test backend
    (see `hermetic`). The credential is read from the env var named by
    ``api_key_env`` and sent as a bearer token.
    """

    kind: str = "http"
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = ""
    timeout: float = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict, name: str = "backend") -> "BackendConfig":
        """Build from a config object; a bad value raises `ConfigError`
        naming its key under ``name``."""
        retry = d.get("retry", {})
        if not isinstance(retry, dict):
            raise ConfigError(f"{name}.retry must be an object")
        try:
            retry = RetryPolicy(**retry)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}.retry: {exc}") from exc
        try:
            timeout = float(d.get("timeout", 60.0))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{name}.timeout must be a number, got {d['timeout']!r}") from exc
        kind = d.get("kind", "http")
        if kind not in ("http", "mock"):
            raise ConfigError(f"{name}.kind must be 'http' or 'mock', got {kind!r}")
        if not isinstance(d.get("extra", {}), dict):
            raise ConfigError(f"{name}.extra must be an object")
        known = {"kind", "endpoint", "model_name", "api_key_env", "timeout"}
        # unknown top-level keys and the contents of an explicit "extra"
        # object both land flat in extra
        extra = {k: v for k, v in d.items() if k not in known | {"retry", "extra"}}
        extra.update(d.get("extra", {}))
        for key in ("bad_modulus", "no_information_modulus"):
            value = extra.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"{name}.extra.{key} must be an integer, got {value!r}")
        return cls(kind=kind, endpoint=d.get("endpoint", ""),
                   model_name=d.get("model_name", ""),
                   api_key_env=d.get("api_key_env", ""),
                   timeout=timeout, retry=retry, extra=extra)


def post_json(endpoint: str, body: dict, *, api_key_env: str = "",
              timeout: float = 60.0) -> object:
    """POST ``body`` as JSON and return the decoded JSON reply.

    The credential is read from the env var named by ``api_key_env`` and
    sent as a bearer token. Transport failures and non-200 statuses map onto
    the backend error classes the retry policy keys on. ``requests`` is
    imported here, on the first send, so runs without an HTTP backend never
    load it.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key_env:
        key = os.environ.get(api_key_env, "")
        if not key:
            raise BackendError(f"credential env var {api_key_env} is not set")
        headers["Authorization"] = f"Bearer {key}"
    try:
        resp = requests.post(endpoint, headers=headers, data=json.dumps(body),
                             timeout=timeout)
    except requests.Timeout as exc:
        raise BackendTimeoutError(f"request to {endpoint} timed out: {exc}") from exc
    except requests.RequestException as exc:
        raise ServerBackendError(f"request to {endpoint} failed: {exc}") from exc
    if resp.status_code == 429:
        raise RateLimitedError(f"rate limited by {endpoint}")
    if resp.status_code >= 500:
        raise ServerBackendError(f"server error {resp.status_code}")
    if resp.status_code != 200:
        raise BackendError(f"unexpected status {resp.status_code}: {resp.text[:200]}")
    try:
        return resp.json()
    except ValueError as exc:
        raise ProtocolError(f"response body is not JSON: {exc}") from exc


def with_retry(call: Callable[[], T], policy: RetryPolicy,
               sleep: Callable[[float], None] = time.sleep) -> T:
    """Return ``call()``, retrying the error classes in ``policy.retry_on``
    with backoff. The last error is re-raised once attempts run out."""
    attempt = 1
    while True:
        try:
            return call()
        except BackendError as exc:
            if exc.error_class not in policy.retry_on or attempt >= policy.max_attempts:
                raise
            delay = policy.delay_for_attempt(attempt)
            log.debug("attempt %d failed (%s); retrying in %.2fs",
                      attempt, exc.error_class, delay)
            if delay > 0:
                sleep(delay)
        attempt += 1


class HttpChatBackend:
    """POSTs the common chat-completions JSON shape and takes the first choice."""

    def __init__(self, config: BackendConfig):
        self.config = config
        self.model_name = config.model_name

    def send(self, request: ChatRequest) -> ChatReply:
        body = {
            "model": request.model_name or self.config.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_output,
        }
        obj = post_json(self.config.endpoint, body,
                        api_key_env=self.config.api_key_env,
                        timeout=self.config.timeout)
        try:
            content = obj["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat response body: {exc}") from exc
        usage = obj.get("usage", {}) if isinstance(obj.get("usage"), dict) else {}
        return ChatReply(content=str(content), usage=usage,
                         model_name=str(obj.get("model", self.model_name)))


#: a script entry predicate; None matches any request
Predicate = Callable[[str], bool] | str | None
#: a script entry reply: literal text, an error to raise, or a function of the request
Reply = str | Exception | Callable[[ChatRequest], str]


@dataclass
class ScriptEntry:
    """One (predicate, reply) pair. ``times=None`` never exhausts."""

    predicate: Predicate
    reply: Reply
    times: int | None = 1

    def matches(self, text: str) -> bool:
        if self.predicate is None:
            return True
        if isinstance(self.predicate, str):
            return self.predicate in text
        return bool(self.predicate(text))


class MockChatBackend:
    """Deterministic scripted chat backend for hermetic tests.

    Replies are consumed in script order among entries whose predicate matches
    the request's final user message.
    """

    def __init__(self, script: Sequence[ScriptEntry | tuple], model_name: str = "mock-chat"):
        self.script: list[ScriptEntry] = [
            entry if isinstance(entry, ScriptEntry) else ScriptEntry(*entry)
            for entry in script
        ]
        self.model_name = model_name
        self._lock = threading.Lock()

    def send(self, request: ChatRequest) -> ChatReply:
        with self._lock:
            text = request.user_text
            for entry in self.script:
                if entry.times is not None and entry.times <= 0:
                    continue
                if not entry.matches(text):
                    continue
                if entry.times is not None:
                    entry.times -= 1
                reply = entry.reply
                break
            else:
                raise ScriptedMissError(
                    f"no script entry matches request: {text[:120]!r}")
        if isinstance(reply, Exception):
            raise reply
        content = reply(request) if callable(reply) else reply
        usage = {"prompt_tokens": sum(len(m.content) for m in request.messages) // 4,
                 "completion_tokens": len(content) // 4}
        return ChatReply(content=content, usage=usage, model_name=self.model_name)


ChatBackend = HttpChatBackend | MockChatBackend


def make_chat_backend(config: BackendConfig) -> ChatBackend:
    """Build a backend instance from config. `kind: mock` builds the canned
    self-driving backend from `hermetic` (testing and demos)."""
    if config.kind == "http":
        return HttpChatBackend(config)
    if config.kind == "mock":
        from . import hermetic
        role = config.extra.get("role", "generation")
        if role == "discrimination":
            return hermetic.canned_discrimination_backend(
                bad_modulus=config.extra.get("bad_modulus", 0),
                model_name=config.model_name or "mock-disc")
        return hermetic.canned_generation_backend(
            model_name=config.model_name or "mock-gen",
            no_information_modulus=config.extra.get("no_information_modulus", 3))
    raise ValueError(f"unknown backend kind {config.kind!r}")


def complete(request: ChatRequest, backend: ChatBackend,
             policy: RetryPolicy | None = None,
             sleep: Callable[[float], None] = time.sleep) -> ChatReply:
    """Send one chat request with retry/backoff on transient failures.

    ``policy`` defaults to the backend's config's retry policy, or
    `DEFAULT_RETRY` for a backend without a config. Terminal failures
    re-raise the last backend error.
    """
    if policy is None:
        config = getattr(backend, "config", None)
        policy = config.retry if config is not None else DEFAULT_RETRY
    return with_retry(lambda: backend.send(request), policy, sleep)
