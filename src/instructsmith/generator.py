"""Generation side of the loop: prompt assembly and 4-key reply parsing.

A generation prompt stacks the task definition, its numbered requirements,
sampled good/bad exemplars, and the raw code, then asks for a reply in four
labeled fields: task_name, instruction, information, solution. The parser
accepts exactly that shape.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ParseError
from .llm_backend import ChatMessage, ChatRequest, ask, complete

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

# A key label at a line start. The scan runs over the reply with a "\n" put
# in front, so every label, the first line's too, follows a literal "\n",
# which the regex engine finds faster than a "^" in MULTILINE mode.
_KEY_RE = re.compile(
    r"\n[ \t]*(task_name|instruction|information|solution)[ \t]*:",
    re.IGNORECASE)

GENERATION_TEMPERATURE = 0.7


@dataclass
class InstructionInstance:
    """One generated instance: the four reply fields plus provenance."""

    task_name: str
    instruction: str
    information: str
    solution: str
    source_record_id: str = ""
    task_kind: str = ""
    generation_meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in REQUIRED_KEYS:
            if not getattr(self, name).strip():
                raise ValueError(f"{name} must be non-empty")


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
    # [text before the first label, label, value, label, value, ...]
    parts = _KEY_RE.split("\n" + text)
    values: dict[str, str] = {}
    duplicated: list[str] = []
    for key, value in zip(parts[1::2], parts[2::2]):
        key = key.lower()
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


def render_exemplar(label: str, instance: InstructionInstance,
                    rejections: Iterable[tuple[str, str]],
                    overall_reasons: str) -> str:
    """One exemplar block: label banner, the instance, and for a Bad case
    the reasons the discriminator rejected it: the (rule id, reason) of each
    rule it failed, else its overall reasons. The store renders it once per
    entry."""
    block = f"{label.upper()} EXAMPLE:\n{render_generator_output(instance)}"
    if label != "Bad":
        return block
    reasons = [f"- ({rule_id}) {reason}" for rule_id, reason in rejections]
    if not reasons and overall_reasons:
        reasons = [f"- {overall_reasons}"]
    if reasons:
        block += ("\nThis example was rejected for the following reasons:\n"
                  + "\n".join(reasons))
    return block


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
                      before_seq: int | None = None) -> InstructionInstance:
    """Generate one instance for ``record`` in one `ask` conversation. Each
    attempt samples its own exemplars from ``db``, seeded per attempt, from
    the entries created before ``before_seq`` (see ``ExemplarDB.sample``)."""
    prompt: GenerationPrompt

    def send(attempt: int):
        nonlocal prompt
        exemplars = []
        if db is not None:
            exemplars = db.sample(taskdef.kind, sampling_policy,
                                  seed=exemplar_sample_seed(seed, record.id, attempt),
                                  before_seq=before_seq)
        prompt = build_generation_prompt(record, taskdef, exemplars)
        return complete(ChatRequest(
            messages=[_SYSTEM_MESSAGE, ChatMessage("user", prompt.user_text)],
            temperature=GENERATION_TEMPERATURE), backend)

    def parse(reply, attempt: int) -> InstructionInstance:
        return parse_generator_output(
            reply.content, source_record_id=record.id, task_kind=taskdef.kind,
            generation_meta={"model": reply.model_name, "attempts": attempt,
                             "exemplar_ids": prompt.exemplar_ids,
                             "usage": dict(reply.usage)})

    return ask(send, parse, retries, "generation", f"reply for record {record.id}")
