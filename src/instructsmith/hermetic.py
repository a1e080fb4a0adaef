"""Canned chat backends: pure-function replies for offline runs and tests.

Each reply is computed only from the request text (via a content hash), so a
pipeline wired to these backends needs no network, no credentials, and no
stored fixtures — and produces byte-identical artifacts on every run. The
generation backend answers any generation prompt with a well-formed labeled
reply derived from the raw code block; the discrimination backend echoes the
rules it finds in the prompt with deterministic verdicts.
"""

from __future__ import annotations

import functools
import hashlib
import re

from .errors import BackendError
from .llm_backend import MockChatBackend

DEFAULT_NO_INFORMATION_MODULUS = 3

#: the most rule blocks, and replies built from them, the canned judge
#: remembers (a run sends one rule block per task kind)
RULE_BLOCK_MEMO = 32

_RAW_CODE_OPEN = "Raw code:\n```\n"
_RAW_CODE_CLOSE = "\n```"
_RULE_LINE_RE = re.compile(r"^\s*\d+\.\s*\[([A-Za-z0-9_]+)\]\s*(.+?)\s*$",
                           re.MULTILINE)
_INSTANCE_SOLUTION_RE = re.compile(r"solution:\n(.*?)\n\n- Step ", re.DOTALL)
# the blank line and step banner that open a discrimination prompt's rules
_STEP_BREAK = "\n\n- Step "


def code_tag(code: str) -> str:
    """Short stable fingerprint of a code snippet."""
    return hashlib.sha1(code.encode("utf-8")).hexdigest()[:10]


def _digest(text: str) -> int:
    return int(hashlib.sha1(text.encode("utf-8")).hexdigest(), 16)


def _last_raw_block(prompt_text: str) -> str | None:
    """The body of the last fenced raw-code block, or None. Blocks are
    taken leftmost first and do not overlap: each runs from its opening
    fence to the first closing fence after it."""
    body = end = -1
    pos = 0
    while (start := prompt_text.find(_RAW_CODE_OPEN, pos)) >= 0:
        start += len(_RAW_CODE_OPEN)
        close = prompt_text.find(_RAW_CODE_CLOSE, start)
        if close < 0:
            break
        body, end = start, close
        pos = close + len(_RAW_CODE_CLOSE)
    return None if body < 0 else prompt_text[body:end]


def canned_generation_reply(prompt_text: str,
                            no_information_modulus: int = DEFAULT_NO_INFORMATION_MODULUS) -> str:
    """Labeled four-field reply derived from the prompt's raw code block.

    Distinct snippets get distinct instructions and solutions. When
    ``no_information_modulus`` is m > 0, roughly one in m snippets gets an
    empty information field (exercising the no-input prompt path downstream).
    """
    code = _last_raw_block(prompt_text)
    if code is None:
        raise BackendError("generation prompt has no raw-code block")
    tag = code_tag(code)
    n = int(tag, 16)
    if no_information_modulus and n % no_information_modulus == 0:
        information = ""
    else:
        information = (f"The reference snippet is tagged {tag}; the function "
                       f"must return the constant derived from that tag.")
    return (
        f"task_name: Canned Task {tag}\n"
        f"instruction: Write a Python function named f_{tag} that reproduces "
        f"the behavior of the snippet tagged {tag}.\n"
        f"information: {information}\n"
        f"solution:\ndef f_{tag}():\n    return {n % 100000}"
    )


def canned_generation_backend(model_name: str = "mock-gen",
                              no_information_modulus: int = DEFAULT_NO_INFORMATION_MODULUS) -> MockChatBackend:
    """A chat backend that answers every generation prompt deterministically."""
    def reply(request) -> str:
        return canned_generation_reply(request.user_text, no_information_modulus)

    return MockChatBackend(reply, model_name)


@functools.lru_cache(maxsize=RULE_BLOCK_MEMO)
def _block_rules(block: str) -> tuple[tuple[str, str], ...]:
    return tuple(_RULE_LINE_RE.findall(block))


def _rule_lines(prompt_text: str) -> tuple[tuple[str, str], ...]:
    """Every (rule id, text) line of the prompt, as ``findall`` gives them.

    The rule block, from the first step banner on, is the same in every
    prompt of a task, so its lines are memoized. When the text before it
    holds no "[", no line there matches and none runs on into the block;
    otherwise the whole prompt is scanned."""
    split = prompt_text.find(_STEP_BREAK) + 2
    if split == 1 or prompt_text.find("[", 0, split) >= 0:
        return tuple(_RULE_LINE_RE.findall(prompt_text))
    return _block_rules(prompt_text[split:])


@functools.lru_cache(maxsize=RULE_BLOCK_MEMO)
def _analysis(rules: tuple[tuple[str, str], ...], bad_index: int) -> str:
    """The reply for ``rules`` with rule ``bad_index`` failed (none when -1);
    memoized, as a task's rules and so its all-yes reply repeat."""
    lines = ["Analysis:"]
    for i, (rule_id, text) in enumerate(rules, start=1):
        if i - 1 == bad_index:
            lines.append(f"  {i}. {text} <answer: no, the instance does not "
                         f"satisfy rule {rule_id}>")
        else:
            lines.append(f"  {i}. {text} <answer: yes, the instance satisfies "
                         f"rule {rule_id}>")
    if bad_index >= 0:
        lines.append("- Overall answer: no")
        lines.append(f"- Reasons: Rule {rules[bad_index][0]} is not satisfied.")
    else:
        lines.append("- Overall answer: yes")
        lines.append("- Reasons: All the rules are satisfied.")
    return "\n".join(lines)


def canned_discrimination_reply(prompt_text: str, bad_modulus: int = 0) -> str:
    """Echo every bracketed rule with a verdict, then an overall answer.

    With ``bad_modulus`` k > 0, roughly one in k instances (keyed on a hash
    of the judged solution) gets a single "no" verdict and an overall "no";
    everything else is all-yes. k = 0 means always Good.
    """
    rules = _rule_lines(prompt_text)
    if not rules:
        raise BackendError("discrimination prompt has no rule lines")
    sol_m = _INSTANCE_SOLUTION_RE.search(prompt_text)
    n = _digest(sol_m.group(1) if sol_m else prompt_text)
    is_bad = bool(bad_modulus) and n % bad_modulus == 0
    return _analysis(rules, n % len(rules) if is_bad else -1)


def canned_discrimination_backend(bad_modulus: int = 0,
                                  model_name: str = "mock-disc") -> MockChatBackend:
    """A chat backend that judges every discrimination prompt deterministically."""
    def reply(request) -> str:
        return canned_discrimination_reply(request.user_text, bad_modulus)

    return MockChatBackend(reply, model_name)
