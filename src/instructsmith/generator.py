"""Generation side of the loop: prompt assembly and 4-key reply parsing.

A generation prompt stacks the task definition, its numbered requirements,
sampled good/bad exemplars, and the raw code, then asks for a reply in four
labeled fields: task_name, instruction, information, solution. The parser
accepts exactly that shape; a malformed reply triggers a retry with a fresh
exemplar sample.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import GenerationFailedError, ParseError
from .llm_backend import ChatMessage, ChatRequest, complete

REQUIRED_KEYS = ("task_name", "instruction", "solution")

GENERATION_SYSTEM_TEXT = (
    "You are a data generator for code instruction tuning. Produce one "
    "instruction instance grounded in the raw code you are given, following "
    "the task definition and every requirement exactly.")

_SYSTEM_MESSAGE = ChatMessage("system", GENERATION_SYSTEM_TEXT)
_OUTPUT_FORMAT = (
    "Now produce one new instruction instance for the raw code above. "
    "Reply with exactly four labeled fields in this order: task_name:, "
    "instruction:, information:, solution:. The information value may be "
    "empty. Put the solution value on the lines after \"solution:\".")

_KEY_RE = re.compile(
    r"^[ \t]*(task_name|instruction|information|solution)[ \t]*:",
    re.IGNORECASE | re.MULTILINE)

DEFAULT_GENERATION_TEMPERATURE = 0.7


@dataclass
class InstructionInstance:
    """One generated instance: the four reply fields plus provenance."""

    task_name: str
    instruction: str
    information: str
    solution: str
    source_record_id: str = ""
    task_kind: str = ""
    generation_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in REQUIRED_KEYS:
            if not getattr(self, name).strip():
                raise ValueError(f"{name} must be non-empty")

    def to_dict(self) -> dict:
        return {
            "task_name": self.task_name,
            "instruction": self.instruction,
            "information": self.information,
            "solution": self.solution,
            "source_record_id": self.source_record_id,
            "task_kind": self.task_kind,
            "generation_meta": dict(self.generation_meta),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InstructionInstance":
        return cls(
            task_name=str(d["task_name"]),
            instruction=str(d["instruction"]),
            information=str(d.get("information", "")),
            solution=str(d["solution"]),
            source_record_id=str(d.get("source_record_id", "")),
            task_kind=str(d.get("task_kind", "")),
            generation_meta=dict(d.get("generation_meta", {}) or {}),
        )


@dataclass
class GenerationPrompt:
    """One generation prompt's user text (the system text is a constant)."""

    user_text: str
    exemplar_ids: list[str] = field(default_factory=list)


def _strip_fence(text: str) -> str:
    """Remove one surrounding triple-backtick fence, preserving the body."""
    s = text.strip()
    if not (s.startswith("```") and s.endswith("```") and len(s) > 6):
        return s
    first_nl = s.find("\n")
    if first_nl == -1:
        return s
    body = s[first_nl + 1:]
    last_nl = body.rfind("\n")
    closing = body[last_nl + 1:] if last_nl != -1 else body
    if closing.strip() != "```":
        return s
    return body[:last_nl] if last_nl != -1 else ""


def parse_generator_output(text: str, *, source_record_id: str = "",
                           task_kind: str = "",
                           generation_meta: dict | None = None
                           ) -> InstructionInstance:
    """Parse a model reply shaped as four labeled fields into an instance
    carrying the given provenance.

    Key labels match case-insensitively at line starts; each value runs to the
    next label. The solution value is de-fenced but otherwise byte-preserved.
    Missing or empty required keys and duplicated keys raise ParseError.
    """
    matches = list(_KEY_RE.finditer(text))
    values: dict[str, str] = {}
    duplicated: list[str] = []
    for i, m in enumerate(matches):
        key = m.group(1).lower()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        value = text[m.end():end]
        if key in values:
            if key not in duplicated:
                duplicated.append(key)
            continue
        values[key] = _strip_fence(value) if key == "solution" else value.strip()
    if duplicated:
        raise ParseError(f"duplicated keys: {', '.join(duplicated)}",
                         duplicated=duplicated)
    missing = [k for k in REQUIRED_KEYS if not values.get(k, "").strip()]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}", missing=missing)
    return InstructionInstance(
        task_name=values["task_name"],
        instruction=values["instruction"],
        information=values.get("information", ""),
        solution=values["solution"],
        source_record_id=source_record_id,
        task_kind=task_kind,
        generation_meta=generation_meta or {},
    )


def render_generator_output(instance: InstructionInstance) -> str:
    """Render an instance in the reply format the parser accepts."""
    return (f"task_name: {instance.task_name}\n"
            f"instruction: {instance.instruction}\n"
            f"information: {instance.information}\n"
            f"solution:\n{instance.solution}")


def render_exemplar(entry) -> str:
    """One exemplar block of an `ExemplarEntry`: label banner, the instance,
    and (for bad cases) the reasons the discriminator rejected it. The store
    renders it once per entry."""
    lines = [f"{entry.label.upper()} EXAMPLE:", render_generator_output(entry.instance)]
    if entry.label == "Bad":
        reasons = [f"- ({v.rule_id}) {v.reason}"
                   for v in entry.report.verdicts if v.answer == "no"]
        if not reasons and entry.report.overall_reasons:
            reasons = [f"- {entry.report.overall_reasons}"]
        if reasons:
            lines.append("This example was rejected for the following reasons:")
            lines.extend(reasons)
    return "\n".join(lines)


def build_generation_prompt(record, taskdef, exemplars: Sequence = ()) -> GenerationPrompt:
    """Assemble the full generation prompt for one raw-code record.

    ``exemplars`` are store rows (`ExemplarDB.sample`); each one's rendered
    block goes in as it is. Pure function of its arguments; section order is
    fixed: the task's prompt header (task, definition, requirements, target
    language), exemplars, raw code, output-format directive.
    """
    parts: list[str] = [taskdef.prompt_header]
    parts.extend(row.block for row in exemplars)
    if getattr(record, "comment", ""):
        parts.append(f"Comment on the raw code:\n{record.comment}")
    parts.append(f"Raw code:\n```\n{record.code}\n```")
    parts.append(_OUTPUT_FORMAT)
    return GenerationPrompt(
        user_text="\n\n".join(parts),
        exemplar_ids=[row.entry_id for row in exemplars],
    )


def exemplar_sample_seed(base_seed: int, record_id: str, attempt: int) -> int:
    """Stable per-(record, attempt) seed so retries see a fresh sample but
    reruns see the same one."""
    digest = hashlib.sha256(f"{base_seed}:{record_id}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def generate_instance(record, taskdef, db, backend, retries: int = 2, *,
                      sampling_policy=None, seed: int = 0,
                      before_seq: int | None = None,
                      temperature: float = DEFAULT_GENERATION_TEMPERATURE,
                      max_output: int = 2048) -> InstructionInstance:
    """Generate one instance for ``record``, retrying on parse failures.

    Each attempt resamples exemplars from ``db`` (seeded per attempt), so a
    reply the model cannot format is retried with different few-shot context.
    ``before_seq`` limits the exemplars to entries created before it (see
    ``ExemplarDB.sample``). Backend errors are not caught here;
    transport-level retries belong to the backend's own policy.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    attempts = retries + 1
    last_reply = ""
    last_error: ParseError | None = None
    for attempt in range(1, attempts + 1):
        exemplars = []
        if db is not None:
            exemplars = db.sample(taskdef.kind, sampling_policy,
                                  seed=exemplar_sample_seed(seed, record.id, attempt),
                                  before_seq=before_seq)
        prompt = build_generation_prompt(record, taskdef, exemplars)
        request = ChatRequest(
            messages=[_SYSTEM_MESSAGE, ChatMessage("user", prompt.user_text)],
            temperature=temperature, max_output=max_output)
        reply = complete(request, backend)
        last_reply = reply.content
        try:
            return parse_generator_output(
                reply.content, source_record_id=record.id, task_kind=taskdef.kind,
                generation_meta={"model": reply.model_name, "attempts": attempt,
                                 "exemplar_ids": prompt.exemplar_ids,
                                 "usage": dict(reply.usage)})
        except ParseError as exc:
            last_error = exc
    raise GenerationFailedError(
        f"no parseable reply for record {record.id} in {attempts} attempts: "
        f"{last_error}", last_reply=last_reply, attempts=attempts)
