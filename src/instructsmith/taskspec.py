"""The four code tasks: definitions, generation prompts, and the task mix.

Task definitions ship as a versioned JSON data file rather than being
model-generated at runtime, so every run sees identical definitions. The mix
policy apportions records across tasks by exact quota, which keeps realized
proportions within a fraction of a percent at any corpus size and seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

from .apportion import largest_remainder
from .errors import ConfigError
from .ioutil import read_json

TASK_KINDS = ("CodeGeneration", "CodeSummarization", "CodeTranslation",
              "CodeRepair")

#: generation-phase proportions; renormalized because they sum to 0.999
RAW_MIX_PERCENTS = {
    "CodeGeneration": 57.1,
    "CodeSummarization": 15.8,
    "CodeRepair": 15.8,
    "CodeTranslation": 11.2,
}


def validate_kind(kind: str) -> str:
    if kind not in TASK_KINDS:
        raise ConfigError(f"unknown task kind {kind!r}; expected one of {TASK_KINDS}")
    return kind


@dataclass
class TaskDefinition:
    """One task's definition text, generation prompt, and requirements."""

    kind: str
    definition_text: str
    generation_prompt: str
    requirements: list[str]
    rule_set_id: str
    extra_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_kind(self.kind)
        if not self.generation_prompt.strip():
            raise ConfigError(f"{self.kind}: generation_prompt must be non-empty")
        if not self.requirements or any(not r.strip() for r in self.requirements):
            raise ConfigError(f"{self.kind}: requirements must be non-empty")

    @classmethod
    def from_dict(cls, d: dict) -> "TaskDefinition":
        try:
            return cls(
                kind=str(d["kind"]),
                definition_text=str(d.get("definition", "")),
                generation_prompt=str(d["prompt"]),
                requirements=[str(r) for r in d["requirements"]],
                rule_set_id=str(d.get("rule_set", "")),
                extra_params=dict(d.get("extra", {}) or {}),
            )
        except KeyError as exc:
            raise ConfigError(f"task entry missing key {exc}") from exc


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


def default_mix() -> MixPolicy:
    """The reported generation-phase mix, renormalized to sum exactly 1."""
    return MixPolicy.from_raw(RAW_MIX_PERCENTS)


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
    path = Path(path) if path is not None else default_task_file_path()
    obj = read_json(path)
    entries = obj.get("tasks") if isinstance(obj, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: expected top-level 'tasks' list")
    defs: dict[str, TaskDefinition] = {}
    for entry in entries:
        taskdef = TaskDefinition.from_dict(entry)
        if taskdef.kind in defs:
            raise ConfigError(f"{path}: duplicate definition for {taskdef.kind}")
        defs[taskdef.kind] = taskdef
    missing = [k for k in TASK_KINDS if k not in defs]
    if missing:
        raise ConfigError(f"{path}: missing definitions for {', '.join(missing)}")
    return defs
