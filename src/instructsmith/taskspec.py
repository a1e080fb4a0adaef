"""The four code tasks: definitions, generation prompts, the task mix, and
the exemplar sampling policy.

Task definitions ship as a versioned JSON data file rather than being
model-generated at runtime, so every run sees identical definitions. The mix
policy apportions records across tasks by exact quota, which keeps realized
proportions within a fraction of a percent at any corpus size and seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Sequence, TypedDict

from .errors import ConfigError

TASK_KINDS = ("CodeGeneration", "CodeSummarization", "CodeTranslation",
              "CodeRepair")

#: the discriminator's verdict on an instance
LABELS = ("Good", "Bad")

#: generation-phase proportions; renormalized because they sum to 0.999
RAW_MIX_PERCENTS = {
    "CodeGeneration": 57.1,
    "CodeSummarization": 15.8,
    "CodeRepair": 15.8,
    "CodeTranslation": 11.2,
}


def validate_kind(kind: str) -> str:
    if kind not in TASK_KINDS:
        raise ConfigError(f"{kind} is not a task kind; expected one of {TASK_KINDS}")
    return kind


class TaskExtra(TypedDict, total=False):
    """A task's ``extra`` map; `prompt_header` reads ``target_language``."""

    target_language: str
    target_languages: list[str]


@dataclass
class TaskDefinition:
    """One task's definition text, generation prompt, and requirements."""

    kind: str
    generation_prompt: str = field(metadata={"json": "prompt"})
    requirements: list[str]
    definition_text: str = field(default="", metadata={"json": "definition"})
    rule_set_id: str = field(default="", metadata={"json": "rule_set"})
    extra_params: TaskExtra = field(default_factory=dict,
                                    metadata={"json": "extra"})

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if not self.generation_prompt.strip():
            raise ConfigError("prompt must be non-empty")
        if not self.requirements or any(not r.strip() for r in self.requirements):
            raise ConfigError("requirements must be non-empty")

    @cached_property
    def prompt_header(self) -> str:
        """The sections that open every generation prompt for this task:
        task, definition, numbered requirements and, for translation, the
        target language."""
        parts = [f"Task: {self.generation_prompt}"]
        if self.definition_text:
            parts.append(f"Task definition:\n{self.definition_text}")
        numbered = "\n".join(f"{i}. {req}"
                             for i, req in enumerate(self.requirements, start=1))
        parts.append(f"Requirements:\n{numbered}")
        target = self.extra_params.get("target_language", "")
        if target:
            parts.append(f"Target language: {target}")
        return "\n\n".join(parts)


@dataclass
class TaskFile:
    """The task-definition file: one definition per task kind."""

    tasks: list[TaskDefinition]
    version: int = 1

    def __post_init__(self) -> None:
        kinds = [taskdef.kind for taskdef in self.tasks]
        for kind in TASK_KINDS:
            if kinds.count(kind) != 1:
                raise ConfigError(f"tasks must define {kind} once, "
                                  f"not {kinds.count(kind)} times")


@dataclass
class MixPolicy:
    """Per-task proportions of the generation phase."""

    weights: dict[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigError("mix weights must be non-empty")
        for kind, w in self.weights.items():
            validate_kind(kind)
            if w < 0:
                raise ConfigError(f"mix weight for {kind} must be >= 0")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mix weights must sum to 1, got {total}")

    @classmethod
    def from_raw(cls, raw: dict[str, float]) -> "MixPolicy":
        """Build a policy from unnormalized weights (renormalizes)."""
        total = sum(raw.values())
        if total <= 0:
            raise ConfigError("mix weights must have positive sum")
        return cls({kind: w / total for kind, w in raw.items()})


@dataclass
class SamplingPolicy:
    """How many good/bad exemplars to draw for one generation prompt."""

    n_good: int = 1
    n_bad: int = 1
    same_task_only: bool = True

    def __post_init__(self) -> None:
        if self.n_good < 0 or self.n_bad < 0:
            raise ValueError("n_good and n_bad must be >= 0")


def default_mix() -> MixPolicy:
    """The reported generation-phase mix, renormalized to sum exactly 1."""
    return MixPolicy.from_raw(RAW_MIX_PERCENTS)


def largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` into integer quotas proportional to ``weights``.

    Uses the largest-remainder method: floor each exact quota, then hand the
    leftover units to the buckets with the largest fractional parts, ties
    broken by lowest index. The result always sums to ``total`` exactly.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    weight_sum = float(sum(weights))
    if weight_sum <= 0:
        raise ValueError("weights must not all be zero")
    exact = [total * w / weight_sum for w in weights]
    quotas = [math.floor(q) for q in exact]
    leftover = total - sum(quotas)
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (-(exact[i] - quotas[i]), i))
    for i in by_remainder[:leftover]:
        quotas[i] += 1
    return quotas


def assign_tasks(record_ids: Sequence[str], policy: MixPolicy,
                 seed: int = 0) -> dict[str, str]:
    """Deterministically assign each record id a task kind.

    Quota apportionment (largest remainder) fixes the per-task counts
    exactly, then a seeded shuffle decides which record gets which slot.
    """
    if not record_ids:
        return {}
    kinds = [k for k in TASK_KINDS if k in policy.weights]
    quotas = largest_remainder(len(record_ids),
                               [policy.weights[k] for k in kinds])
    slots: list[str] = []
    for kind, quota in zip(kinds, quotas):
        slots.extend([kind] * quota)
    random.Random(seed).shuffle(slots)
    return dict(zip(record_ids, slots))


def mix_counts(assignment: dict[str, str]) -> dict[str, int]:
    counts = {kind: 0 for kind in TASK_KINDS}
    for kind in assignment.values():
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def default_task_file_path() -> Path:
    """Path of the shipped task-definition data file."""
    return Path(str(resources.files("instructsmith") / "data" / "task_definitions.json"))


def load_task_definitions(path: str | Path | None = None) -> dict[str, TaskDefinition]:
    """Load the task file; exactly one definition per task kind required."""
    from .schema import load
    path = Path(path) if path is not None else default_task_file_path()
    return {taskdef.kind: taskdef
            for taskdef in load(TaskFile, path, ConfigError).tasks}
