"""Discrimination side of the loop: rule-decomposed judging of instances.

A rule set is an ordered list of named steps, each holding rules with stable
ids. The prompt asks for one "<answer: yes/no, reason>" span per rule plus a
final overall verdict; the parser anchors each span to its rule text, so a
reply stays parseable when rules are added or removed from the set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

from .errors import ConfigError, ParseError
from .generator import InstructionInstance, render_generator_output
from .llm_backend import ChatMessage, ChatRequest, ask, complete

ANSWERS = ("yes", "no")

DISCRIMINATION_SYSTEM_TEXT = (
    "You are a strict discriminator for code instruction data. Check the "
    "instance against every rule, step by step, and answer each rule "
    "explicitly before giving an overall verdict.")

DISCRIMINATION_TEMPERATURE = 0.0

_SYSTEM_MESSAGE = ChatMessage("system", DISCRIMINATION_SYSTEM_TEXT)
_PROMPT_HEAD = ("Judge the following instruction instance against the rules, "
                "step by step.\n\nInstance:\n")
_ANSWER_FORMAT = (
    "For every rule above, repeat the rule text and append your verdict "
    "as \"<answer: yes, reason>\" or \"<answer: no, reason>\". After all "
    "rules, write a line \"Overall answer: yes\" or \"Overall answer: "
    "no\", then \"Reasons:\" followed by a short justification.")

# Each "<answer:" token, and, when the token opens a whole span
# "<answer: token, reason>", the reason. The span is read by a lookahead, so
# the scan goes on right after the token and also finds the tokens written
# inside a reason. A span ends at its first ">".
_ANSWER_RE = re.compile(r"<answer:\s*([A-Za-z]+)(?:(?=\s*,\s*([^>]*)>))?",
                        re.IGNORECASE)
_OVERALL_RE = re.compile(r"Overall answer:\s*(yes|no)", re.IGNORECASE)
_REASONS_RE = re.compile(r"Reasons:\s*(.*)\s*$", re.IGNORECASE | re.DOTALL)


@dataclass
class Rule:
    rule_id: str = field(metadata={"json": "id"})
    text: str

    def __post_init__(self) -> None:
        if not self.rule_id or not self.text.strip():
            raise ConfigError("id and text must be non-empty")


@dataclass
class RuleStep:
    name: str
    rules: list[Rule]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ConfigError("rules must be non-empty")


@dataclass
class RuleSet:
    id: str
    steps: list[RuleStep]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigError("steps must be non-empty")
        ids = [r.rule_id for r in self.all_rules()]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"ruleset {self.id!r} has duplicate rule ids")

    def all_rules(self) -> list[Rule]:
        return [rule for step in self.steps for rule in step.rules]

    @cached_property
    def prompt_rules(self) -> str:
        """The numbered rules of every step and the answer-format directive:
        the fixed tail of each discrimination prompt for this set."""
        blocks = []
        for si, step in enumerate(self.steps, start=1):
            lines = [f"- Step {si}: {step.name}:"]
            for ri, rule in enumerate(step.rules, start=1):
                lines.append(f"  {ri}. [{rule.rule_id}] {rule.text}")
            blocks.append("\n".join(lines))
        blocks.append(_ANSWER_FORMAT)
        return "\n\n".join(blocks)

    @cached_property
    def anchors(self) -> list[tuple[str, re.Pattern]]:
        """Each rule's id and its text as a case-insensitive pattern with
        any run of whitespace between words, in rule order."""
        return [(rule.rule_id,
                 re.compile(r"\s+".join(map(re.escape, rule.text.split())),
                            re.IGNORECASE))
                for rule in self.all_rules()]

    @cached_property
    def lowered_anchors(self) -> list[tuple[str, re.Pattern]]:
        """`anchors` for the lower-cased text of an ASCII reply. There an
        ASCII rule's lower-cased text, matched case-sensitively, finds what
        the case-insensitive pattern finds, and faster; other rules keep
        the case-insensitive pattern."""
        return [(rule.rule_id,
                 re.compile(r"\s+".join(map(re.escape, rule.text.lower().split())))
                 if rule.text.isascii() else anchor)
                for rule, (_, anchor) in zip(self.all_rules(), self.anchors)]


@dataclass
class RuleVerdict:
    rule_id: str
    answer: str
    reason: str

    def __post_init__(self) -> None:
        if self.answer not in ANSWERS:
            raise ValueError(f"answer must be yes or no, got {self.answer!r}")
        if not self.reason.strip():
            raise ValueError("reason must be non-empty")


def compute_label(overall: str, verdicts: list[RuleVerdict]) -> str:
    """Good iff the overall answer is yes and every rule verdict is yes."""
    if overall == "yes" and all(v.answer == "yes" for v in verdicts):
        return "Good"
    return "Bad"


@dataclass
class DiscriminationReport:
    """One judged instance: per-rule verdicts, overall answer, and label."""

    instance_ref: str
    verdicts: list[RuleVerdict]
    overall: str
    overall_reasons: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if self.overall not in ANSWERS:
            raise ValueError(f"overall must be yes or no, got {self.overall!r}")
        expected = compute_label(self.overall, self.verdicts)
        if not self.label:
            self.label = expected
        elif self.label != expected:
            raise ValueError(
                f"label {self.label!r} contradicts verdicts (expected {expected})")


def default_ruleset_path(rule_set_id: str) -> Path:
    return Path(str(resources.files("instructsmith") / "data" / "rulesets"
                    / f"{rule_set_id}.json"))


def load_ruleset(source: str | Path) -> RuleSet:
    """Load a ruleset from a JSON file path or a shipped rule-set id."""
    from .schema import load
    path = Path(source)
    if not path.suffix and not path.is_file():
        path = default_ruleset_path(str(source))
    if not path.is_file():
        raise ConfigError(f"ruleset not found: {str(source)!r}")
    return load(RuleSet, path, ConfigError)


def build_discrimination_prompt(instance: InstructionInstance,
                                ruleset: RuleSet) -> str:
    """Render the instance and every rule, with per-rule answer instructions."""
    return (f"{_PROMPT_HEAD}{render_generator_output(instance)}\n\n"
            f"{ruleset.prompt_rules}")


def parse_discrimination_output(text: str, ruleset: RuleSet, *,
                                instance_ref: str = "") -> DiscriminationReport:
    """Extract one verdict per rule, the overall answer, and the reasons.

    Each rule's answer span is anchored to the nearest following occurrence
    of its rule text (whitespace-flexible); rules whose text is absent fall
    back to the next unclaimed span in order. Extra spans (from rules not in
    this set) are ignored, which keeps reduced rule sets parseable.
    """
    # One scan: a token other than yes/no fails the reply; a yes/no span
    # that starts past the last span taken is the next span.
    bad_tokens: list[str] = []
    spans: list[tuple[int, int, str, str]] = []  # start, end, answer, reason
    span_end = 0
    for m in _ANSWER_RE.finditer(text):
        token, reason = m.group(1, 2)
        answer = token.lower()
        if answer not in ANSWERS:
            bad_tokens.append(token)
        elif reason is not None and (start := m.start()) >= span_end:
            span_end = m.end(2) + 1
            spans.append((start, span_end, answer, reason))
    if bad_tokens:
        raise ParseError(f"unrecognized answer tokens: {', '.join(bad_tokens)}")
    if text.isascii():
        scanned, anchors = text.lower(), ruleset.lowered_anchors
    else:
        scanned, anchors = text, ruleset.anchors
    verdicts: list[RuleVerdict] = []
    absent: list[str] = []
    cursor = 0
    for rule_id, anchor in anchors:
        if not spans:  # every span is claimed
            absent.append(rule_id)
            continue
        # the first unclaimed span after the rule text, else the first
        # unclaimed span
        i = 0
        m = anchor.search(scanned, cursor)
        if m is not None and spans[0][0] < (anchor_end := m.end()):
            i = next((j for j, span in enumerate(spans) if span[0] >= anchor_end), 0)
        _, end, answer, reason = spans.pop(i)
        reason = reason.strip()
        if not reason:
            absent.append(rule_id)
            continue
        verdicts.append(RuleVerdict(rule_id, answer, reason))
        cursor = end
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


def discriminate(instance: InstructionInstance, ruleset: RuleSet, backend,
                 retries: int = 2) -> DiscriminationReport:
    """Judge one instance in one `ask` conversation; each attempt sends the
    same request."""
    request = ChatRequest(
        messages=[_SYSTEM_MESSAGE,
                  ChatMessage("user", build_discrimination_prompt(instance, ruleset))],
        temperature=DISCRIMINATION_TEMPERATURE)
    return ask(lambda attempt: complete(request, backend),
               lambda reply, attempt: parse_discrimination_output(
                   reply.content, ruleset, instance_ref=instance.source_record_id),
               retries, "discrimination",
               f"analysis for {instance.source_record_id or instance.task_name!r}")
