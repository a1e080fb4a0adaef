"""Tests for generation prompt assembly and 4-key reply parsing."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CIRCLE_FIELDS, golden_text
from entry_dicts import instance_dict
from generation_reference import reference_parse
from instructsmith.corpus import RawCodeRecord
from instructsmith.discriminator import (
    DiscriminationReport,
    RuleVerdict,
)
from instructsmith.errors import (
    ParseError,
    ProtocolError,
    UnparseableReplyError,
)
from instructsmith.exemplar_db import Exemplar, ExemplarEntry
from instructsmith.hermetic import canned_generation_reply
from instructsmith.generator import (
    InstructionInstance,
    build_generation_prompt,
    generate_instance,
    parse_generator_output,
    render_generator_output,
)
from instructsmith.taskspec import load_task_definitions
from sensitive import ScriptedChatBackend, ScriptEntry

RECORD = RawCodeRecord(
    id="rec-7",
    code="def add(a, b):\n    return a + b",
    comment="Adds two numbers.",
    language="Python",
)


def good_entry(entry_id="ex-good"):
    instance = InstructionInstance(
        task_name="Sum Two Numbers",
        instruction="Write a Python function that adds two numbers.",
        information="",
        solution="def total(x, y):\n    return x + y",
        source_record_id="rec-1", task_kind="CodeGeneration")
    report = DiscriminationReport(
        instance_ref="rec-1",
        verdicts=[RuleVerdict("instruction_language", "yes", "Python is named.")],
        overall="yes")
    return Exemplar.of(ExemplarEntry(
        entry_id=entry_id, instance=instance, report=report, label="Good",
        task_kind="CodeGeneration"))


def bad_entry(entry_id="ex-bad"):
    instance = InstructionInstance(
        task_name="Parse Date",
        instruction="Write a function that parses a date string.",
        information="",
        solution="print(parse(s))",
        source_record_id="rec-2", task_kind="CodeGeneration")
    report = DiscriminationReport(
        instance_ref="rec-2",
        verdicts=[
            RuleVerdict("instruction_language", "no",
                        "No programming language is specified."),
            RuleVerdict("solution_imports", "no",
                        "The parse function is used without an import."),
        ],
        overall="no",
        overall_reasons="The instance violates two rules.")
    return Exemplar.of(ExemplarEntry(
        entry_id=entry_id, instance=instance, report=report, label="Bad",
        task_kind="CodeGeneration"))


class TestParse:
    def test_reference_output_parses_exactly(self):
        instance = parse_generator_output(golden_text("generator_output.txt"))
        assert instance.task_name == CIRCLE_FIELDS["task_name"]
        assert instance.instruction == CIRCLE_FIELDS["instruction"]
        assert instance.information == CIRCLE_FIELDS["information"]
        assert instance.solution == CIRCLE_FIELDS["solution"]

    def test_missing_solution_key(self):
        with pytest.raises(ParseError) as excinfo:
            parse_generator_output("task_name: T\ninstruction: I\ninformation: X")
        assert excinfo.value.missing == ["solution"]

    def test_multiple_missing_keys_listed(self):
        with pytest.raises(ParseError) as excinfo:
            parse_generator_output("information: context only")
        assert excinfo.value.missing == ["task_name", "instruction", "solution"]

    def test_present_but_empty_required_key_counts_missing(self):
        with pytest.raises(ParseError) as excinfo:
            parse_generator_output(
                "task_name: T\ninstruction:\ninformation: x\nsolution:\ncode")
        assert excinfo.value.missing == ["instruction"]

    def test_duplicated_key(self):
        text = ("task_name: A\ntask_name: B\ninstruction: I\n"
                "information:\nsolution:\ncode here")
        with pytest.raises(ParseError) as excinfo:
            parse_generator_output(text)
        assert excinfo.value.duplicated == ["task_name"]

    def test_fenced_solution_unwrapped_byte_exact(self):
        body = "import os\n\nprint(os.sep)  # separator"
        text = (f"task_name: T\ninstruction: I\ninformation:\n"
                f"solution:\n```python\n{body}\n```")
        assert parse_generator_output(text).solution == body

    def test_unterminated_fence_left_alone(self):
        text = "task_name: T\ninstruction: I\nsolution:\n```python\nx = 1"
        assert parse_generator_output(text).solution == "```python\nx = 1"

    def test_empty_information_accepted(self):
        text = "task_name: T\ninstruction: I\ninformation:\nsolution:\nx = 1"
        assert parse_generator_output(text).information == ""

    def test_absent_information_defaults_empty(self):
        text = "task_name: T\ninstruction: I\nsolution:\nx = 1"
        assert parse_generator_output(text).information == ""

    def test_keys_match_case_insensitively(self):
        text = "Task_Name: T\nINSTRUCTION: I\nInformation: ctx\nSolution:\nx = 1"
        instance = parse_generator_output(text)
        assert instance.task_name == "T"
        assert instance.information == "ctx"

    def test_provenance_kwargs(self):
        text = "task_name: T\ninstruction: I\nsolution:\nx = 1"
        instance = parse_generator_output(text, source_record_id="r9",
                                          task_kind="CodeRepair")
        assert instance.source_record_id == "r9"
        assert instance.task_kind == "CodeRepair"


SINGLE_LINE = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                           exclude_characters=":"),
    min_size=1, max_size=60).filter(lambda s: s.strip())

CODE_LINES = st.lists(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=40),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(task_name=SINGLE_LINE, instruction=SINGLE_LINE,
       information=st.one_of(st.just(""), SINGLE_LINE), lines=CODE_LINES)
def test_render_parse_round_trip(task_name, instruction, information, lines):
    solution = "\n".join(lines)
    assume(solution.strip())
    # the labeled-line grammar cannot represent values that themselves start
    # a new key line, nor a solution the fence-stripper would rewrite
    from generation_reference import _KEY_RE
    rendered_guess = solution.strip()
    assume(not rendered_guess.startswith("```"))
    instance = InstructionInstance(
        task_name=task_name.strip(), instruction=instruction.strip(),
        information=information.strip(), solution=rendered_guess)
    text = render_generator_output(instance)
    assume(len(_KEY_RE.findall(text)) == 4)
    parsed = parse_generator_output(text)
    assert parsed.task_name == instance.task_name
    assert parsed.instruction == instance.instruction
    assert parsed.information == instance.information
    assert parsed.solution == instance.solution


def test_parse_never_fabricates_fields():
    text = golden_text("generator_output.txt")
    instance = parse_generator_output(text)
    for value in (instance.task_name, instance.instruction,
                  instance.information, instance.solution):
        assert value in text


# -- differential test against the reference parser --------------------------

KEYS = ("task_name", "instruction", "information", "solution")
# (usual, unusual) choices for each part of a labeled line
LABEL_CASES = (["same", "same", "upper", "title"], ["swapcase", "fold"])
INDENTS = (["", "", " ", "\t"], [" \t ", "\t\t", "x "])
COLONS = ([":", ":", " :", "\t:"], [" ", "::", " - :"])
VALUES = ([" Compute the area", " Python 3.", "", " two\n  lines",
           " solution: inline", "\n```python\nprint(1)\n```",
           "\ndef f():\n    return 1"],
          ["   ", " naïve — ünïcode ✓", "\n```\n```", " ``````",
           "\n```\ncode\n``` trailing", "\n```py\nunterminated",
           " <answer: yes, stray>"])
NEWLINES = (["\n", "\n", "\r\n"], ["\r", "\n\n"])


def _label(draw, key: str, odd: int) -> str:
    how = _pick(draw, LABEL_CASES, odd)
    if how == "same":
        return key
    if how == "title":
        return key.title()
    if how == "fold":
        return key.replace("s", "\u017f").replace("k", "\u212a")
    return getattr(key, how)()


def _pick(draw, choices, odd: int):
    """A usual choice, or with odd/10 chance an unusual one."""
    usual, unusual = choices
    if draw(st.integers(0, 9)) < odd:
        return draw(st.sampled_from(unusual))
    return draw(st.sampled_from(usual))


@st.composite
def generator_replies(draw):
    """A reply loosely shaped like four labeled fields: labels in any case,
    indented, mid-line, duplicated, missing or reordered; values empty,
    multi-line or fenced; LF, CRLF or CR line ends."""
    odd = draw(st.sampled_from([0, 0, 1, 3]))
    keys = list(KEYS)
    mode = draw(st.sampled_from(["in order"] * 3 + ["shuffled", "any"]))
    if mode == "shuffled":
        keys = draw(st.permutations(keys))
    elif mode == "any":
        keys = draw(st.lists(st.sampled_from(KEYS), max_size=6))
    lines = [draw(st.sampled_from(["", "Here is the instance.", "Sure:"]))]
    for key in keys:
        value = _pick(draw, VALUES, odd)
        if draw(st.integers(0, 9)) < odd:
            value = draw(st.text(max_size=12))
        line = (f"{_pick(draw, INDENTS, odd)}{_label(draw, key, odd)}"
                f"{_pick(draw, COLONS, odd)}{value}")
        if draw(st.integers(0, 9)) < odd:  # the label moved mid-line
            line = f"see {line}"
        lines.append(line)
    text = _pick(draw, NEWLINES, odd).join(lines)
    return text.replace("\n", _pick(draw, NEWLINES, odd))


def _generated(parse, text):
    try:
        return ("instance", instance_dict(parse(text, source_record_id="rec",
                                                task_kind="CodeGeneration",
                                                generation_meta={"attempts": 1})))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.missing, exc.duplicated)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestReferenceEquivalence:
    @settings(max_examples=500, deadline=None)
    @given(text=generator_replies())
    def test_same_outcome_as_reference(self, text):
        assert (_generated(parse_generator_output, text)
                == _generated(reference_parse, text))

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet="tasknmeiorfulS_: \t\r\n`x", max_size=60))
    def test_same_outcome_on_label_soup(self, text):
        assert (_generated(parse_generator_output, text)
                == _generated(reference_parse, text))

    def test_canned_replies_agree(self):
        for modulus in (0, 1):
            text = canned_generation_reply(f"Raw code:\n```\n{RECORD.code}\n```",
                                           modulus)
            expected = _generated(reference_parse, text)
            assert expected[0] == "instance"
            assert _generated(parse_generator_output, text) == expected


class TestBuildPrompt:
    def setup_method(self):
        self.defs = load_task_definitions()
        self.taskdef = self.defs["CodeGeneration"]

    def test_cold_start_without_exemplars(self):
        prompt = build_generation_prompt(RECORD, self.taskdef, [])
        assert "EXAMPLE:" not in prompt.user_text
        assert prompt.exemplar_ids == []
        assert self.taskdef.generation_prompt in prompt.user_text
        assert "1. " + self.taskdef.requirements[0] in prompt.user_text

    def test_raw_code_verbatim(self):
        prompt = build_generation_prompt(RECORD, self.taskdef, [])
        assert RECORD.code in prompt.user_text

    def test_section_order(self):
        prompt = build_generation_prompt(RECORD, self.taskdef,
                                         [good_entry(), bad_entry()])
        text = prompt.user_text
        positions = [
            text.index(self.taskdef.generation_prompt),
            text.index("Requirements:"),
            text.index("GOOD EXAMPLE:"),
            text.index("BAD EXAMPLE:"),
            text.index(RECORD.code),
            text.index("task_name:", text.index(RECORD.code)),
        ]
        assert positions == sorted(positions)

    def test_bad_exemplar_includes_failure_reasons(self):
        prompt = build_generation_prompt(RECORD, self.taskdef, [bad_entry()])
        assert "BAD EXAMPLE:" in prompt.user_text
        assert "No programming language is specified." in prompt.user_text
        assert "(instruction_language)" in prompt.user_text

    def test_exemplar_ids_recorded(self):
        prompt = build_generation_prompt(
            RECORD, self.taskdef, [good_entry("g1"), bad_entry("b1")])
        assert prompt.exemplar_ids == ["g1", "b1"]

    def test_target_language_rendered_for_translation(self):
        import dataclasses
        taskdef = self.defs["CodeTranslation"]
        with_target = dataclasses.replace(
            taskdef, extra_params={**taskdef.extra_params, "target_language": "Go"})
        prompt = build_generation_prompt(RECORD, with_target, [])
        assert "Target language: Go" in prompt.user_text
        bare = build_generation_prompt(RECORD, self.taskdef, [])
        assert "Target language:" not in bare.user_text

    def test_output_directive_names_all_keys(self):
        prompt = build_generation_prompt(RECORD, self.taskdef, [])
        tail = prompt.user_text[prompt.user_text.rindex("Raw code:"):]
        for key in ("task_name:", "instruction:", "information:", "solution:"):
            assert key in tail

    def test_pure_function(self):
        a = build_generation_prompt(RECORD, self.taskdef, [good_entry()])
        b = build_generation_prompt(RECORD, self.taskdef, [good_entry()])
        assert a == b


class FakeDB:
    def __init__(self, entries=()):
        self.entries = list(entries)
        self.sample_seeds = []

    def sample(self, task, policy, seed=0, before_seq=None):
        self.sample_seeds.append(seed)
        return self.entries


class TestGenerateInstance:
    def setup_method(self):
        self.taskdef = load_task_definitions()["CodeGeneration"]

    def test_reference_reply_first_attempt(self):
        backend = ScriptedChatBackend(
            [ScriptEntry(None, golden_text("generator_output.txt"))])
        instance = generate_instance(RECORD, self.taskdef, FakeDB(), backend)
        assert instance.task_name == CIRCLE_FIELDS["task_name"]
        assert instance.solution == CIRCLE_FIELDS["solution"]
        assert instance.source_record_id == RECORD.id
        assert instance.task_kind == "CodeGeneration"
        assert instance.generation_meta["attempts"] == 1

    def test_retry_after_malformed_reply(self):
        backend = ScriptedChatBackend([
            ScriptEntry(None, "keys? what keys?"),
            ScriptEntry(None, golden_text("generator_output.txt")),
        ])
        db = FakeDB()
        instance = generate_instance(RECORD, self.taskdef, db, backend, retries=1)
        assert instance.generation_meta["attempts"] == 2
        assert len(db.sample_seeds) == 2
        assert db.sample_seeds[0] != db.sample_seeds[1]

    def test_exhaustion_raises_with_last_reply(self):
        backend = ScriptedChatBackend(
            [ScriptEntry(None, "still not parseable", times=None)])
        with pytest.raises(UnparseableReplyError) as excinfo:
            generate_instance(RECORD, self.taskdef, FakeDB(), backend, retries=0)
        assert excinfo.value.last_reply == "still not parseable"
        assert excinfo.value.attempts == 1

    def test_backend_error_propagates(self):
        backend = ScriptedChatBackend([ScriptEntry(None, ProtocolError("bad"))])
        with pytest.raises(ProtocolError):
            generate_instance(RECORD, self.taskdef, FakeDB(), backend)

    def test_reruns_are_deterministic_in_sampling(self):
        backend = ScriptedChatBackend(
            [ScriptEntry(None, golden_text("generator_output.txt"), times=None)])
        db1, db2 = FakeDB(), FakeDB()
        generate_instance(RECORD, self.taskdef, db1, backend, seed=5)
        generate_instance(RECORD, self.taskdef, db2, backend, seed=5)
        assert db1.sample_seeds == db2.sample_seeds


def test_instance_validation():
    with pytest.raises(ValueError):
        InstructionInstance(task_name="", instruction="i", information="",
                            solution="s")
    with pytest.raises(ValueError):
        InstructionInstance(task_name="t", instruction="i", information="",
                            solution="  ")
