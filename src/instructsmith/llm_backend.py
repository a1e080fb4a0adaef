"""Chat-completion client abstraction: HTTP backend, function mock, and
`ask`, the one loop that asks a model again when its reply does not parse.

One client shape serves both the generation model and the discrimination
model; they differ only in their `BackendConfig`. The mock backend answers
with a function of the request and keeps no state.
"""

from __future__ import annotations

import json
import logging
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, TypedDict, TypeVar

from .errors import (
    BackendError,
    BackendTimeoutError,
    ParseError,
    ProtocolError,
    RateLimitedError,
    ServerBackendError,
    UnparseableReplyError,
)
from .ioutil import LONE_SURROGATE, is_text

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
        """Content of the final user message (the prompt a mock reply reads)."""
        return self.messages[-1].content


@dataclass
class ChatReply:
    """One reply. ``content`` is what the backend sent, text or not: `ask`
    does not parse a reply whose content is not text."""

    content: object
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
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not (0.0 <= self.jitter_fraction <= 1.0):
            raise ValueError("jitter_fraction must be in [0, 1]")
        unknown = set(self.retry_on) - set(RETRYABLE_CLASSES)
        if unknown:
            raise ValueError(f"retry_on has unknown classes {sorted(unknown)}")

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


class BackendExtra(TypedDict, total=False):
    """The ``extra`` keys of a backend. Both kinds take ``role``, the slot
    the backend serves ("generation" or "discrimination"); only a mock takes
    the other two, which tune its canned replies (see `hermetic`)."""

    role: str
    bad_modulus: int
    no_information_modulus: int


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
    extra: BackendExtra = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ValueError(f"kind must be 'http' or 'mock', got {self.kind!r}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout!r}")
        if self.kind == "http" and set(self.extra) - {"role"}:
            raise ValueError(f"extra of an http backend takes only 'role', "
                             f"got {sorted(self.extra)}")
        role = self.extra.get("role", "generation")
        if role not in ("generation", "discrimination"):
            raise ValueError(f"extra.role must be 'generation' or "
                             f"'discrimination', got {role!r}")


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
        usage, model = obj.get("usage"), obj.get("model")
        usage = ({k: v for k, v in usage.items() if type(v) is int and is_text(k)}
                 if isinstance(usage, dict) else {})
        if not (isinstance(model, str) and is_text(model)):
            model = self.model_name
        return ChatReply(content=content, usage=usage, model_name=model)


class MockChatBackend:
    """A chat backend whose reply is a function of the request; it holds no
    script and keeps no state. ``usage`` estimates four characters a token."""

    def __init__(self, reply: Callable[[ChatRequest], str],
                 model_name: str = "mock-chat"):
        self.reply = reply
        self.model_name = model_name

    def send(self, request: ChatRequest) -> ChatReply:
        content = self.reply(request)
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


def ask(send: Callable[[int], ChatReply], parse: Callable[[ChatReply, int], T],
        retries: int, stage: str, subject: str) -> T:
    """Return ``parse(send(attempt), attempt)`` for the first of attempts
    1 .. ``retries`` + 1 whose reply parses: a `ParseError` asks again, a
    backend error propagates, and when no reply parses the conversation
    ends in `UnparseableReplyError`. A reply whose content is not UTF-8
    text (it is not a string, or it holds a lone surrogate) does not parse:
    it could be neither hashed nor written."""
    if retries < 0:
        raise ValueError("retries must be >= 0")
    for attempt in range(1, retries + 2):
        reply = send(attempt)
        content = reply.content
        try:
            if not isinstance(content, str):
                raise ParseError(f"not text: content of type {type(content).__name__}")
            if not is_text(content):
                raise ParseError(LONE_SURROGATE)
            return parse(reply, attempt)
        except ParseError as exc:
            error = exc
    raise UnparseableReplyError(
        f"no parseable {subject} in {attempt} attempts: {error}",
        stage=stage, attempts=attempt, last_reply=content)
