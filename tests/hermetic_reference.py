"""Reference canned replies: the regex versions that `instructsmith.hermetic`
replaced.

The generation reply takes the last raw-code block of a ``findall`` over the
whole prompt; the judge reply scans the whole prompt for rule lines and
finds the judged solution with a lazy regex. The differential tests in
`test_hermetic.py` require the shipped replies to be equal to these on every
prompt they generate, or both to raise `BackendError`.
"""

from __future__ import annotations

import hashlib
import re

from instructsmith.errors import BackendError
from instructsmith.hermetic import DEFAULT_NO_INFORMATION_MODULUS

_RAW_CODE_RE = re.compile(r"Raw code:\n```\n(.*?)\n```", re.DOTALL)
_RULE_LINE_RE = re.compile(r"^\s*\d+\.\s*\[([A-Za-z0-9_]+)\]\s*(.+?)\s*$",
                           re.MULTILINE)
_INSTANCE_SOLUTION_RE = re.compile(r"solution:\n(.*?)\n\n- Step ", re.DOTALL)


def reference_generation_reply(prompt_text: str,
                               no_information_modulus: int = DEFAULT_NO_INFORMATION_MODULUS
                               ) -> str:
    blocks = _RAW_CODE_RE.findall(prompt_text)
    if not blocks:
        raise BackendError("generation prompt has no raw-code block")
    tag = hashlib.sha1(blocks[-1].encode("utf-8")).hexdigest()[:10]
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


def reference_rule_lines(prompt_text: str) -> list[tuple[str, str]]:
    return _RULE_LINE_RE.findall(prompt_text)


def reference_discrimination_reply(prompt_text: str, bad_modulus: int = 0) -> str:
    rules = _RULE_LINE_RE.findall(prompt_text)
    if not rules:
        raise BackendError("discrimination prompt has no rule lines")
    sol_m = _INSTANCE_SOLUTION_RE.search(prompt_text)
    solution = sol_m.group(1) if sol_m else prompt_text
    n = int(hashlib.sha1(solution.encode("utf-8")).hexdigest(), 16)
    is_bad = bool(bad_modulus) and n % bad_modulus == 0
    bad_index = n % len(rules) if is_bad else -1

    lines = ["Analysis:"]
    for i, (rule_id, text) in enumerate(rules, start=1):
        if i - 1 == bad_index:
            lines.append(f"  {i}. {text} <answer: no, the instance does not "
                         f"satisfy rule {rule_id}>")
        else:
            lines.append(f"  {i}. {text} <answer: yes, the instance satisfies "
                         f"rule {rule_id}>")
    if is_bad:
        lines.append("- Overall answer: no")
        lines.append(f"- Reasons: Rule {rules[bad_index][0]} is not satisfied.")
    else:
        lines.append("- Overall answer: yes")
        lines.append("- Reasons: All the rules are satisfied.")
    return "\n".join(lines)
