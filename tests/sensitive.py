"""Test-only chat backends for the determinism and scheduler tests.

``exemplar_sensitive_backend`` answers like the canned generation backend,
but tags each instruction with a hash of the prompt's few-shot section, so
the dataset bytes change whenever a record sees different exemplars, as they
would with a real model. ``Jitter`` delays every request by a seeded amount
and counts the requests in flight across the backends it wraps.
``Recorder`` keeps every request sent through the backend it wraps, for the
tests that assert on the prompts the program builds.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
import time

from instructsmith.hermetic import canned_generation_reply
from instructsmith.llm_backend import MockChatBackend, ScriptEntry

_FIRST_EXEMPLAR_RE = re.compile(r"^(GOOD|BAD) EXAMPLE:$", re.MULTILINE)
_RAW_CODE = "Raw code:\n```"


def few_shot_section(prompt_text: str) -> str:
    """The prompt's exemplar blocks: from the first example banner up to the
    raw code; empty when the prompt has no exemplars."""
    m = _FIRST_EXEMPLAR_RE.search(prompt_text)
    if m is None:
        return ""
    return prompt_text[m.start():prompt_text.rindex(_RAW_CODE)]


def few_shot_tag(prompt_text: str) -> str:
    return hashlib.sha256(few_shot_section(prompt_text).encode("utf-8")).hexdigest()[:8]


def exemplar_sensitive_reply(prompt_text: str) -> str:
    reply = canned_generation_reply(prompt_text)
    return reply.replace("\ninformation:",
                         f" Few-shot tag {few_shot_tag(prompt_text)}.\ninformation:", 1)


def exemplar_sensitive_backend() -> MockChatBackend:
    return MockChatBackend(
        [ScriptEntry(None, lambda req: exemplar_sensitive_reply(req.user_text),
                     times=None)], model_name="mock-gen-sensitive")


class Jitter:
    """Seeded per-request delays of up to ``max_delay_s``, keyed on the seed
    and the request text, shared by every backend ``wrap`` returns."""

    def __init__(self, seed: int, max_delay_s: float = 0.002):
        self.seed = seed
        self.max_delay_s = max_delay_s
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()

    def delay(self, text: str) -> float:
        return random.Random(f"{self.seed}\0{text}").random() * self.max_delay_s

    def wrap(self, inner) -> "_Delayed":
        return _Delayed(self, inner)


class _Delayed:
    def __init__(self, jitter: Jitter, inner):
        self.jitter = jitter
        self.inner = inner
        self.model_name = inner.model_name

    def send(self, request):
        jitter = self.jitter
        with jitter._lock:
            jitter.in_flight += 1
            jitter.peak_in_flight = max(jitter.peak_in_flight, jitter.in_flight)
        try:
            time.sleep(jitter.delay(request.user_text))
            return self.inner.send(request)
        finally:
            with jitter._lock:
                jitter.in_flight -= 1


class Recorder:
    """Forwards each request to ``inner`` and keeps it, in send order, in
    ``transcript``."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.transcript = []
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.transcript.append(request)
        return self.inner.send(request)
