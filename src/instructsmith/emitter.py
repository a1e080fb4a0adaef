"""Map accepted instances to Alpaca-style examples and write the dataset.

The field mapping is fixed: instruction stays instruction, information
becomes input, solution becomes output; task_name is dropped. Prompt
rendering substitutes into stored templates byte-for-byte, so goldens stay
stable across runs and platforms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConsistencyError
from .generator import InstructionInstance
from .ioutil import atomic_write_jsonl
from .schema import Id, read_rows
from .taskspec import TASK_KINDS

log = logging.getLogger(__name__)

WITH_INPUT_TEMPLATE = "prompt_with_input.txt"
WITHOUT_INPUT_TEMPLATE = "prompt_without_input.txt"


@dataclass(frozen=True, slots=True)
class TrainingExample:
    """One fine-tuning example; input may be empty, the rest may not."""

    instruction: str
    output: str
    task_kind: str = field(metadata={"json": "_task"})
    input: str = ""
    source_record_id: Id = field(default="", metadata={"json": "_source_id"})

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


def render_prompt(example: TrainingExample) -> str:
    """Render the fine-tuning prompt for one example.

    Non-empty input uses the with-input template; empty input uses the
    without-input one, whose preamble is kept verbatim (it still mentions
    an input). Substitution is plain text replacement, so braces inside
    code survive untouched.
    """
    if example.input:
        text = _template(WITH_INPUT_TEMPLATE)
        return (text.replace("{instruction}", example.instruction)
                    .replace("{input}", example.input))
    return _template(WITHOUT_INPUT_TEMPLATE).replace("{instruction}",
                                                     example.instruction)


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


def iter_dataset(path: str | Path, digest=None
                 ) -> Iterator[tuple[int, TrainingExample]]:
    """Yield ``(line_number, example)`` for each row of a dataset file, one
    line at a time, validating each (strict: no torn tails); a bad row is a
    `ConsistencyError` naming ``path:line``. ``digest`` is fed every line
    read, as `iter_jsonl` does."""
    return read_rows(TrainingExample, path, ConsistencyError,
                     "bad dataset row", digest=digest)
