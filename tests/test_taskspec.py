"""Tests for task definitions, the task mix, and task assignment."""

import json

import pytest

from instructsmith.errors import ConfigError
from instructsmith.taskspec import (
    TASK_KINDS,
    MixPolicy,
    TaskDefinition,
    assign_tasks,
    default_mix,
    default_task_file_path,
    load_task_definitions,
    mix_counts,
)

REPORTED_PERCENTS = {"CodeGeneration": 57.1, "CodeSummarization": 15.8,
                     "CodeRepair": 15.8, "CodeTranslation": 11.2}
REPORTED_COUNTS = {"CodeGeneration": 11370, "CodeSummarization": 3165,
                   "CodeRepair": 3144, "CodeTranslation": 2236}
REPORTED_PROMPTS = {
    "CodeGeneration":
        "Implementing functions that perform specific operations given input.",
    "CodeSummarization":
        "Write clear and concise documentation for the given code.",
    "CodeRepair":
        "Identify and fix errors in the given code.",
    "CodeTranslation":
        "Rewrite the given code from one programming language to another.",
}


class TestDefaultMix:
    def test_weights_match_reported_percentages(self):
        mix = default_mix()
        assert mix.weights["CodeGeneration"] == pytest.approx(0.571, abs=1e-3)
        assert mix.weights["CodeSummarization"] == pytest.approx(0.158, abs=1e-3)
        assert mix.weights["CodeRepair"] == pytest.approx(0.158, abs=1e-3)
        assert mix.weights["CodeTranslation"] == pytest.approx(0.112, abs=1e-3)

    def test_weights_sum_to_one(self):
        assert sum(default_mix().weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_expected_counts_at_full_scale(self):
        # expectation weight * 19915 lands within rounding slack of the
        # reported per-task totals (the percentages are rounded to 0.1%)
        mix = default_mix()
        for kind, reported in REPORTED_COUNTS.items():
            expected = mix.weights[kind] * 19_915
            assert abs(expected - reported) < 20, (kind, expected, reported)

    def test_all_four_kinds_present(self):
        assert set(default_mix().weights) == set(TASK_KINDS)


class TestMixPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MixPolicy({})
        with pytest.raises(ConfigError):
            MixPolicy({"CodeGeneration": 0.5, "CodeRepair": 0.4})
        with pytest.raises(ConfigError):
            MixPolicy({"CodeGeneration": 1.5, "CodeRepair": -0.5})
        with pytest.raises(ConfigError):
            MixPolicy({"Juggling": 1.0})

    def test_from_raw_renormalizes(self):
        mix = MixPolicy.from_raw({"CodeGeneration": 3.0, "CodeRepair": 1.0})
        assert mix.weights == {"CodeGeneration": 0.75, "CodeRepair": 0.25}


class TestAssignTasks:
    def test_degenerate_policy_assigns_everything_one_kind(self):
        policy = MixPolicy({"CodeRepair": 1.0})
        ids = [f"r{i}" for i in range(25)]
        assignment = assign_tasks(ids, policy, seed=3)
        assert set(assignment) == set(ids)
        assert set(assignment.values()) == {"CodeRepair"}

    def test_empty_ids(self):
        assert assign_tasks([], default_mix(), seed=0) == {}

    def test_determinism(self):
        ids = [f"r{i}" for i in range(500)]
        a = assign_tasks(ids, default_mix(), seed=11)
        b = assign_tasks(ids, default_mix(), seed=11)
        assert a == b
        c = assign_tasks(ids, default_mix(), seed=12)
        assert c != a

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 99_991])
    def test_full_scale_counts_within_band(self, seed):
        ids = [f"r{i}" for i in range(19_915)]
        counts = mix_counts(assign_tasks(ids, default_mix(), seed=seed))
        assert sum(counts.values()) == 19_915
        for kind, pct in REPORTED_PERCENTS.items():
            realized = 100.0 * counts[kind] / 19_915
            assert abs(realized - pct) <= 1.5, (kind, realized, pct)

    def test_proportions_converge_at_scale(self):
        ids = [f"r{i}" for i in range(100_000)]
        counts = mix_counts(assign_tasks(ids, default_mix(), seed=5))
        for kind, weight in default_mix().weights.items():
            assert abs(counts[kind] / 100_000 - weight) <= 0.01

    def test_every_id_assigned_exactly_once(self):
        ids = [f"r{i}" for i in range(137)]
        assignment = assign_tasks(ids, default_mix(), seed=2)
        assert sorted(assignment) == sorted(ids)


def shipped_entries():
    """The task entries of the shipped definitions file, as parsed JSON."""
    return json.loads(default_task_file_path().read_text(encoding="utf-8"))["tasks"]


class TestTaskFile:
    def test_shipped_file_has_reported_prompts_verbatim(self):
        defs = load_task_definitions()
        assert set(defs) == set(TASK_KINDS)
        for kind, prompt in REPORTED_PROMPTS.items():
            assert defs[kind].generation_prompt == prompt

    def test_shipped_requirements_non_empty(self):
        for taskdef in load_task_definitions().values():
            assert taskdef.requirements
            assert taskdef.rule_set_id

    def test_translation_has_target_languages(self):
        defs = load_task_definitions()
        assert defs["CodeTranslation"].extra_params["target_languages"]

    def test_missing_kind_rejected(self, tmp_path):
        entries = shipped_entries()
        p = tmp_path / "tasks.json"
        p.write_text(json.dumps({"tasks": [
            e for e in entries if e["kind"] != "CodeRepair"]}), encoding="utf-8")
        with pytest.raises(ConfigError, match="CodeRepair"):
            load_task_definitions(p)

    def test_duplicate_kind_rejected(self, tmp_path):
        entry = next(e for e in shipped_entries() if e["kind"] == "CodeGeneration")
        p = tmp_path / "tasks.json"
        p.write_text(json.dumps({"tasks": [entry, entry]}), encoding="utf-8")
        with pytest.raises(ConfigError, match="CodeGeneration"):
            load_task_definitions(p)

    def test_round_trip(self, tmp_path):
        # a copy of the shipped file, loaded by path, gives the defaults
        p = tmp_path / "tasks.json"
        p.write_text(json.dumps({"tasks": shipped_entries()}), encoding="utf-8")
        assert load_task_definitions(p) == load_task_definitions()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TaskDefinition(kind="CodeGolf", definition_text="d", generation_prompt="p",
                           requirements=["r"], rule_set_id="s")

    def test_empty_requirements_rejected(self):
        with pytest.raises(ConfigError):
            TaskDefinition(kind="CodeGeneration", definition_text="d",
                           generation_prompt="p", requirements=[], rule_set_id="s")
