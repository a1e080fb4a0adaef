"""Shared fixtures: golden files and the circle-area reference instance."""

from pathlib import Path

import pytest

from instructsmith.discriminator import RuleSet, RuleStep
from instructsmith.generator import InstructionInstance

GOLDEN_DIR = Path(__file__).parent / "golden"

CIRCLE_FIELDS = {
    "task_name": "Calculate Circle Area",
    "instruction": ("Write a Python function that calculates the area of a "
                    "circle given its radius."),
    "information": ("The formula to calculate the area of a circle is "
                    "A = pi * r^2, where A is the area and r is the radius."),
    "solution": ("import math\n"
                 "\n"
                 "def area_of_circle(radius):\n"
                 "    return math.pi * radius ** 2"),
}


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def reduced_ruleset(ruleset: RuleSet, *rule_ids: str) -> RuleSet:
    """``ruleset`` without the named rules; a step left empty is dropped."""
    kept = [(step.name, [r for r in step.rules if r.rule_id not in rule_ids])
            for step in ruleset.steps]
    return RuleSet(id=ruleset.id,
                   steps=[RuleStep(name, rules) for name, rules in kept if rules])


@pytest.fixture
def golden():
    return golden_text


@pytest.fixture
def circle_instance() -> InstructionInstance:
    return InstructionInstance(**CIRCLE_FIELDS, source_record_id="rec-circle",
                               task_kind="CodeGeneration")
