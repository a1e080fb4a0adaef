"""Tests for example mapping, prompt rendering goldens, and dataset IO."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from instructsmith.emitter import (
    TrainingExample,
    render_prompt,
    to_training_example,
    write_dataset,
)
from instructsmith.generator import InstructionInstance

from conftest import CIRCLE_FIELDS
from entry_dicts import read_dataset


def example(instruction="Do it.", input_="", output="print(1)",
            task="CodeGeneration", source="rec-1"):
    return TrainingExample(instruction=instruction, input=input_,
                           output=output, task_kind=task,
                           source_record_id=source)


@pytest.fixture
def circle_example(circle_instance):
    return to_training_example(circle_instance)


class TestToTrainingExample:
    def test_circle_mapping(self, circle_example):
        assert circle_example.instruction == CIRCLE_FIELDS["instruction"]
        assert circle_example.input == CIRCLE_FIELDS["information"]
        assert circle_example.output == CIRCLE_FIELDS["solution"]
        assert circle_example.task_kind == "CodeGeneration"
        assert circle_example.source_record_id == "rec-circle"

    def test_empty_information_passes_through(self):
        instance = InstructionInstance(
            task_name="T", instruction="Do.", information="",
            solution="x = 1", source_record_id="r", task_kind="CodeRepair")
        assert to_training_example(instance).input == ""

    def test_task_name_not_emitted(self, circle_example):
        row = circle_example.to_dict()
        assert set(row) == {"instruction", "input", "output", "_task",
                            "_source_id"}
        assert CIRCLE_FIELDS["task_name"] not in json.dumps(row)

    def test_mapping_is_re_extractable(self, circle_instance):
        ex = to_training_example(circle_instance)
        assert (ex.instruction, ex.input, ex.output) == (
            circle_instance.instruction, circle_instance.information,
            circle_instance.solution)


class TestTrainingExampleValidation:
    def test_empty_instruction_rejected(self):
        with pytest.raises(ValueError):
            example(instruction="  ")

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            example(output="")

    def test_unknown_task_kind_rejected(self):
        with pytest.raises(ValueError):
            example(task="CodeGolf")

    def test_empty_input_allowed(self):
        assert example(input_="").input == ""


class TestRenderPrompt:
    def test_with_input_matches_golden(self, circle_example, golden):
        assert render_prompt(circle_example) == golden("prompt_with_input.txt")

    def test_without_input_matches_golden(self, circle_example, golden):
        no_input = example(instruction=circle_example.instruction,
                           output=circle_example.output)
        assert render_prompt(no_input) == golden("prompt_without_input.txt")

    def test_sections_in_order_with_input(self, circle_example):
        text = render_prompt(circle_example)
        i = text.index("### Instruction:")
        j = text.index("### Input:")
        k = text.index("### Response:")
        assert i < j < k
        assert text.endswith("### Response:")

    def test_no_input_section_when_empty(self):
        text = render_prompt(example())
        assert "### Input:" not in text
        assert text.endswith("### Response:")

    def test_verbatim_preamble_mentions_input_even_without_one(self):
        assert "paired with an input" in render_prompt(example())

    def test_braces_in_code_survive(self):
        ex = example(instruction="Format {x} nicely.",
                     input_="d = {'a': 1}", output="print(d)")
        text = render_prompt(ex)
        assert "Format {x} nicely." in text
        assert "d = {'a': 1}" in text

    def test_rendering_deterministic(self, circle_example):
        assert render_prompt(circle_example) == render_prompt(circle_example)

    @given(st.text(min_size=1).filter(lambda s: s.strip() and "###" not in s),
           st.text(min_size=1).filter(lambda s: s.strip() and "###" not in s))
    def test_injective_on_instruction_input(self, a, b):
        ex_a = example(instruction=a, input_=a)
        ex_b = example(instruction=b, input_=b)
        assert (render_prompt(ex_a) == render_prompt(ex_b)) == (a == b)


class TestWriteDataset:
    def test_summary_counts(self, tmp_path):
        examples = [example(source=f"r{i}") for i in range(3)]
        examples.append(example(task="CodeSummarization", source="r3"))
        summary = write_dataset(examples, tmp_path / "data.jsonl")
        assert summary["count"] == 4
        assert summary["per_task_counts"] == {
            "CodeGeneration": 3, "CodeSummarization": 1,
            "CodeTranslation": 0, "CodeRepair": 0}

    def test_generator_writes_what_a_list_does(self, tmp_path):
        examples = [example(source=f"r{i}", task=task)
                    for i, task in enumerate(["CodeRepair", "CodeGeneration"] * 3)]
        listed = write_dataset(examples, tmp_path / "a.jsonl")
        streamed = write_dataset(iter(examples), tmp_path / "b.jsonl")
        assert streamed == listed
        assert ((tmp_path / "b.jsonl").read_bytes()
                == (tmp_path / "a.jsonl").read_bytes())

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "data.jsonl"
        summary = write_dataset([], path)
        assert summary["count"] == 0
        assert path.read_text() == ""

    def test_round_trip(self, tmp_path, circle_example):
        path = tmp_path / "data.jsonl"
        examples = [circle_example, example(input_="ctx", task="CodeRepair")]
        write_dataset(examples, path)
        assert read_dataset(path) == examples

    def test_line_keys(self, tmp_path, circle_example):
        path = tmp_path / "data.jsonl"
        write_dataset([circle_example], path)
        row = json.loads(path.read_text().splitlines()[0])
        assert list(row) == ["instruction", "input", "output", "_task",
                             "_source_id"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        target = blocker / "data.jsonl"
        with pytest.raises(OSError):
            write_dataset([example()], target)
        assert not target.exists()

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_dataset([example(source=f"r{i}") for i in range(5)], path)
        write_dataset([example(source="only")], path)
        rows = read_dataset(path)
        assert [r.source_record_id for r in rows] == ["only"]
