"""Map accepted instances to Alpaca-style examples and write the dataset.

The field mapping is fixed: instruction stays instruction, information
becomes input, solution becomes output; task_name is dropped. Prompt
rendering substitutes into stored templates byte-for-byte, so goldens stay
stable across runs and platforms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import ConsistencyError
from .generator import InstructionInstance
from .ioutil import atomic_write_jsonl, iter_jsonl
from .taskspec import TASK_KINDS

log = logging.getLogger(__name__)

WITH_INPUT_TEMPLATE = "prompt_with_input.txt"
WITHOUT_INPUT_TEMPLATE = "prompt_without_input.txt"
WITHOUT_INPUT_CLASSIC_TEMPLATE = "prompt_without_input_classic.txt"


@dataclass(frozen=True)
class TrainingExample:
    """One fine-tuning example; input may be empty, the rest may not."""

    instruction: str
    input: str
    output: str
    task_kind: str
    source_record_id: str

    def __post_init__(self) -> None:
        if not self.instruction.strip():
            raise ValueError("instruction must be non-empty")
        if not self.output.strip():
            raise ValueError("output must be non-empty")
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")

    def to_dict(self) -> dict:
        return {
            "instruction": self.instruction,
            "input": self.input,
            "output": self.output,
            "_task": self.task_kind,
            "_source_id": self.source_record_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingExample":
        return cls(
            instruction=str(d["instruction"]),
            input=str(d.get("input", "")),
            output=str(d["output"]),
            task_kind=str(d["_task"]),
            source_record_id=str(d.get("_source_id", "")),
        )


def to_training_example(instance: InstructionInstance) -> TrainingExample:
    """instruction -> instruction, information -> input, solution -> output."""
    return TrainingExample(
        instruction=instance.instruction,
        input=instance.information,
        output=instance.solution,
        task_kind=instance.task_kind,
        source_record_id=instance.source_record_id,
    )


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    path = resources.files("instructsmith") / "data" / "templates" / name
    return path.read_text(encoding="utf-8")


def render_prompt(example: TrainingExample, *,
                  alpaca_classic_no_input_preamble: bool = False) -> str:
    """Render the fine-tuning prompt for one example.

    Non-empty input uses the with-input template; empty input uses the
    without-input one. The default without-input preamble is kept verbatim
    (it still mentions an input); the classic flag switches to the
    conventional wording. Substitution is plain text replacement, so braces
    inside code survive untouched.
    """
    if example.input:
        text = _template(WITH_INPUT_TEMPLATE)
        return (text.replace("{instruction}", example.instruction)
                    .replace("{input}", example.input))
    name = (WITHOUT_INPUT_CLASSIC_TEMPLATE if alpaca_classic_no_input_preamble
            else WITHOUT_INPUT_TEMPLATE)
    return _template(name).replace("{instruction}", example.instruction)


def write_dataset(examples: Iterable[TrainingExample],
                  path: str | Path) -> dict:
    """Atomically write the dataset file, one example per line, consuming
    ``examples`` as it writes (a generator is never listed); returns
    {count, per_task_counts}."""
    per_task = {kind: 0 for kind in TASK_KINDS}

    def rows():
        for example in examples:
            per_task[example.task_kind] += 1
            yield example.to_dict()

    count = atomic_write_jsonl(path, rows())
    log.info("wrote %d examples to %s", count, path)
    return {"count": count, "per_task_counts": per_task}


def read_dataset(path: str | Path) -> list[TrainingExample]:
    """Read a dataset file back into examples (strict: no torn tails)."""
    examples = []
    for lineno, obj in iter_jsonl(path):
        try:
            examples.append(TrainingExample.from_dict(obj))
        except KeyError as exc:
            raise ConsistencyError(f"{path}:{lineno}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConsistencyError(
                f"{path}:{lineno}: bad dataset row: {exc}") from exc
    return examples
