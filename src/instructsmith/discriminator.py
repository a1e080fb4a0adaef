"""Discrimination side of the loop: rule-decomposed judging of instances.

A rule set is an ordered list of named steps, each holding rules with stable
ids. The prompt asks for one "<answer: yes/no, reason>" span per rule plus a
final overall verdict; the parser anchors each span to its rule text, so a
reply stays parseable when rules are added or removed from the set.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigError, DiscriminationFailedError, ParseError
from .generator import InstructionInstance, render_generator_output
from .llm_backend import ChatMessage, ChatRequest, complete

ANSWERS = ("yes", "no")
LABELS = ("Good", "Bad")

DISCRIMINATION_SYSTEM_TEXT = (
    "You are a strict discriminator for code instruction data. Check the "
    "instance against every rule, step by step, and answer each rule "
    "explicitly before giving an overall verdict.")

DEFAULT_DISCRIMINATION_TEMPERATURE = 0.0

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


@dataclass
class Rule:
    rule_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.rule_id or not self.text.strip():
            raise ConfigError("rules need a non-empty id and text")


@dataclass
class RuleStep:
    name: str
    rules: list[Rule]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ConfigError(f"step {self.name!r} has no rules")


@dataclass
class RuleSet:
    id: str
    steps: list[RuleStep]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigError(f"ruleset {self.id!r} has no steps")
        ids = [r.rule_id for r in self.all_rules()]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"ruleset {self.id!r} has duplicate rule ids")

    def all_rules(self) -> list[Rule]:
        return [rule for step in self.steps for rule in step.rules]

    @classmethod
    def from_dict(cls, d: dict) -> "RuleSet":
        try:
            steps = [RuleStep(name=str(s["name"]),
                              rules=[Rule(rule_id=str(r["id"]), text=str(r["text"]))
                                     for r in s["rules"]])
                     for s in d["steps"]]
            return cls(id=str(d["id"]), steps=steps)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad ruleset schema: {exc}") from exc

    def without_rule(self, rule_id: str) -> "RuleSet":
        """Copy with one rule removed (empty steps dropped)."""
        steps = []
        for step in self.steps:
            rules = [r for r in step.rules if r.rule_id != rule_id]
            if rules:
                steps.append(RuleStep(name=step.name, rules=rules))
        return RuleSet(id=self.id, steps=steps)


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

    def to_dict(self) -> dict:
        return {
            "instance_ref": self.instance_ref,
            "verdicts": [{"rule_id": v.rule_id, "answer": v.answer,
                          "reason": v.reason} for v in self.verdicts],
            "overall": self.overall,
            "overall_reasons": self.overall_reasons,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiscriminationReport":
        return cls(
            instance_ref=str(d.get("instance_ref", "")),
            verdicts=[RuleVerdict(rule_id=str(v["rule_id"]),
                                  answer=str(v["answer"]),
                                  reason=str(v["reason"]))
                      for v in d.get("verdicts", [])],
            overall=str(d["overall"]),
            overall_reasons=str(d.get("overall_reasons", "")),
            label=str(d.get("label", "")),
        )


def default_ruleset_path(rule_set_id: str) -> Path:
    return Path(str(resources.files("instructsmith") / "data" / "rulesets"
                    / f"{rule_set_id}.json"))


def load_ruleset(source: str | Path) -> RuleSet:
    """Load a ruleset from a JSON file path or a shipped rule-set id."""
    from .ioutil import read_json
    path = Path(source)
    if not path.suffix and not path.exists():
        path = default_ruleset_path(str(source))
    if not path.exists():
        raise ConfigError(f"ruleset not found: {source}")
    return RuleSet.from_dict(read_json(path))


def build_discrimination_prompt(instance: InstructionInstance,
                                ruleset: RuleSet) -> str:
    """Render the instance and every rule, with per-rule answer instructions."""
    parts = [
        "Judge the following instruction instance against the rules, step by step.",
        f"Instance:\n{render_generator_output(instance)}",
    ]
    for si, step in enumerate(ruleset.steps, start=1):
        lines = [f"- Step {si}: {step.name}:"]
        for ri, rule in enumerate(step.rules, start=1):
            lines.append(f"  {ri}. [{rule.rule_id}] {rule.text}")
        parts.append("\n".join(lines))
    parts.append(
        "For every rule above, repeat the rule text and append your verdict "
        "as \"<answer: yes, reason>\" or \"<answer: no, reason>\". After all "
        "rules, write a line \"Overall answer: yes\" or \"Overall answer: "
        "no\", then \"Reasons:\" followed by a short justification.")
    return "\n\n".join(parts)


def parse_discrimination_output(text: str, ruleset: RuleSet, *,
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


def discriminate(instance: InstructionInstance, ruleset: RuleSet, backend,
                 retries: int = 2, *,
                 temperature: float = DEFAULT_DISCRIMINATION_TEMPERATURE,
                 max_output: int = 2048) -> DiscriminationReport:
    """Judge one instance, retrying when the reply does not parse."""
    if retries < 0:
        raise ValueError("retries must be >= 0")
    prompt = build_discrimination_prompt(instance, ruleset)
    attempts = retries + 1
    last_reply = ""
    last_error: ParseError | None = None
    for attempt in range(1, attempts + 1):
        request = ChatRequest(
            messages=[ChatMessage("system", DISCRIMINATION_SYSTEM_TEXT),
                      ChatMessage("user", prompt)],
            temperature=temperature, max_output=max_output)
        reply = complete(request, backend)
        last_reply = reply.content
        try:
            report = parse_discrimination_output(reply.content, ruleset)
        except ParseError as exc:
            last_error = exc
            continue
        return dataclasses.replace(report,
                                   instance_ref=instance.source_record_id)
    raise DiscriminationFailedError(
        f"no parseable analysis for {instance.source_record_id or instance.task_name!r} "
        f"in {attempts} attempts: {last_error}",
        last_reply=last_reply, attempts=attempts)
