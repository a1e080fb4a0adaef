"""Reference discrimination-reply parser: the regex-per-rule version that
`instructsmith.discriminator.parse_discrimination_output` replaced.

It scans the whole reply once for answer tokens, once more for answer spans,
and searches each rule's text from the last claimed span. The differential
test in `test_discriminator.py` requires the shipped parser to return the
same report, or raise the same error, on every reply it generates.

`render_discrimination_report` writes a report back out in the reply format
the parser accepts, for round-trip tests.
"""

from __future__ import annotations

import functools
import re

from instructsmith.discriminator import (
    ANSWERS,
    DiscriminationReport,
    RuleSet,
    RuleVerdict,
)
from instructsmith.errors import ParseError

_ANSWER_RE = re.compile(r"<answer:\s*(yes|no)\s*,\s*(.*?)>",
                        re.IGNORECASE | re.DOTALL)
_ANY_ANSWER_TOKEN_RE = re.compile(r"<answer:\s*([A-Za-z]+)", re.IGNORECASE)
_OVERALL_RE = re.compile(r"Overall answer:\s*(yes|no)", re.IGNORECASE)
_REASONS_RE = re.compile(r"Reasons:\s*(.*)\s*$", re.IGNORECASE | re.DOTALL)


@functools.lru_cache(maxsize=256)
def _rule_anchor(rule_text: str) -> re.Pattern:
    """The rule text as a case-insensitive, whitespace-flexible pattern."""
    return re.compile(r"\s+".join(re.escape(tok) for tok in rule_text.split()),
                      re.IGNORECASE)


def reference_parse(text: str, ruleset: RuleSet, *,
                    instance_ref: str = "") -> DiscriminationReport:
    """Extract one verdict per rule, the overall answer, and the reasons.

    Each rule's answer span is anchored to the nearest following occurrence
    of its rule text (whitespace-flexible); rules whose text is absent fall
    back to the next unclaimed span in order. Extra spans (from rules not in
    this set) are ignored, which keeps reduced rule sets parseable.
    """
    bad_tokens = [m.group(1) for m in _ANY_ANSWER_TOKEN_RE.finditer(text)
                  if m.group(1).lower() not in ANSWERS]
    if bad_tokens:
        raise ParseError(f"unrecognized answer tokens: {', '.join(bad_tokens)}")
    answers = list(_ANSWER_RE.finditer(text))
    used = [False] * len(answers)
    verdicts: list[RuleVerdict] = []
    absent: list[str] = []
    cursor = 0
    for rule in ruleset.all_rules():
        m = _rule_anchor(rule.text).search(text, cursor)
        chosen = None
        if m is not None:
            for j, am in enumerate(answers):
                if not used[j] and am.start() >= m.end():
                    chosen = (j, am)
                    break
        if chosen is None:
            for j, am in enumerate(answers):
                if not used[j]:
                    chosen = (j, am)
                    break
        if chosen is None:
            absent.append(rule.rule_id)
            continue
        j, am = chosen
        used[j] = True
        reason = am.group(2).strip()
        if not reason:
            absent.append(rule.rule_id)
            continue
        verdicts.append(RuleVerdict(rule_id=rule.rule_id,
                                    answer=am.group(1).lower(), reason=reason))
        cursor = am.end()
    if absent:
        raise ParseError(
            f"no verdict found for rules: {', '.join(absent)}", missing=absent)
    overall_m = _OVERALL_RE.search(text, cursor) or _OVERALL_RE.search(text)
    if overall_m is None:
        raise ParseError("missing overall answer", missing=["overall"])
    reasons_m = _REASONS_RE.search(text, overall_m.end())
    overall_reasons = reasons_m.group(1).strip() if reasons_m else ""
    return DiscriminationReport(
        instance_ref=instance_ref,
        verdicts=verdicts,
        overall=overall_m.group(1).lower(),
        overall_reasons=overall_reasons,
    )


def render_discrimination_report(report: DiscriminationReport,
                                 ruleset: RuleSet) -> str:
    """Render a report in the reply format the parser accepts (round-trip)."""
    by_id = {v.rule_id: v for v in report.verdicts}
    wanted = {r.rule_id for r in ruleset.all_rules()}
    if wanted - set(by_id):
        raise ValueError(
            f"report lacks verdicts for rules: {sorted(wanted - set(by_id))}")
    lines = ["Analysis:"]
    for si, step in enumerate(ruleset.steps, start=1):
        lines.append(f"- Step {si}: {step.name}:")
        for ri, rule in enumerate(step.rules, start=1):
            verdict = by_id[rule.rule_id]
            lines.append(f"  {ri}. {rule.text} "
                         f"<answer: {verdict.answer}, {verdict.reason}>")
    lines.append(f"- Overall answer: {report.overall}")
    lines.append(f"- Reasons: {report.overall_reasons}")
    return "\n".join(lines)
