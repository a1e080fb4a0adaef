"""Tests for the canned backends driving offline end-to-end runs."""

import pytest

from conftest import reduced_ruleset
from instructsmith.corpus import RawCodeRecord
from instructsmith.discriminator import (
    discriminate,
    load_ruleset,
    parse_discrimination_output,
)
from instructsmith.errors import ScriptedMissError
from instructsmith.generator import generate_instance, parse_generator_output
from instructsmith.hermetic import (
    canned_discrimination_backend,
    canned_discrimination_reply,
    canned_generation_backend,
    canned_generation_reply,
    code_tag,
)
from instructsmith.llm_backend import BackendConfig, make_chat_backend
from instructsmith.taskspec import load_task_definitions
from sensitive import Recorder


def record(i=0):
    return RawCodeRecord(id=f"rec-{i}", code=f"def snippet_{i}(n):\n    return n * {i + 2}",
                         language="Python")


def gen_prompt(code):
    return f"Task: do it\n\nRaw code:\n```\n{code}\n```\n\nNow produce output."


TASKDEFS = load_task_definitions()
RULESET = load_ruleset("code_generation")


class TestCannedGeneration:
    def test_reply_parses(self):
        reply = canned_generation_reply(gen_prompt("x = 1"))
        instance = parse_generator_output(reply)
        tag = code_tag("x = 1")
        assert tag in instance.task_name
        assert f"f_{tag}" in instance.solution

    def test_reply_stable(self):
        p = gen_prompt("y = 2")
        assert canned_generation_reply(p) == canned_generation_reply(p)

    def test_distinct_codes_distinct_replies(self):
        replies = {canned_generation_reply(gen_prompt(f"z = {i}"))
                   for i in range(20)}
        assert len(replies) == 20

    def test_no_information_modulus_one_always_empty(self):
        for i in range(10):
            reply = canned_generation_reply(gen_prompt(f"a = {i}"),
                                            no_information_modulus=1)
            assert parse_generator_output(reply).information == ""

    def test_modulus_zero_never_empty(self):
        for i in range(10):
            reply = canned_generation_reply(gen_prompt(f"b = {i}"),
                                            no_information_modulus=0)
            assert parse_generator_output(reply).information != ""

    def test_default_modulus_mixes(self):
        infos = [parse_generator_output(
            canned_generation_reply(gen_prompt(f"c = {i}"))).information
            for i in range(30)]
        assert any(info == "" for info in infos)
        assert any(info != "" for info in infos)

    def test_missing_code_block_raises(self):
        with pytest.raises(ScriptedMissError):
            canned_generation_reply("no code here")

    def test_last_code_block_wins(self):
        text = gen_prompt("first = 1") + "\n\n" + gen_prompt("second = 2")
        reply = canned_generation_reply(text)
        assert code_tag("second = 2") in reply


class TestCannedDiscrimination:
    def judged_prompt(self, solution="def ok():\n    return 1"):
        instance_block = (f"Instance:\ntask_name: T\ninstruction: Do.\n"
                         f"information: \nsolution:\n{solution}")
        rules = ("- Step 1: Check:\n"
                 "  1. [rule_a] The instruction must be clear.\n"
                 "  2. [rule_b] The solution must be code only.")
        return f"Judge this.\n\n{instance_block}\n\n{rules}\n\nAnswer each rule."

    def test_all_yes_by_default(self):
        reply = canned_discrimination_reply(self.judged_prompt())
        assert "Overall answer: yes" in reply
        assert "<answer: no" not in reply

    def test_echoes_every_rule(self):
        reply = canned_discrimination_reply(self.judged_prompt())
        assert "The instruction must be clear." in reply
        assert "The solution must be code only." in reply
        assert reply.count("<answer:") == 2

    def test_bad_modulus_one_always_bad(self):
        reply = canned_discrimination_reply(self.judged_prompt(), bad_modulus=1)
        assert "Overall answer: no" in reply
        assert reply.count("<answer: no") == 1

    def test_bad_keyed_on_solution(self):
        a = canned_discrimination_reply(self.judged_prompt("s = 1"), bad_modulus=2)
        b = canned_discrimination_reply(self.judged_prompt("s = 1"), bad_modulus=2)
        assert a == b

    def test_no_rules_raises(self):
        with pytest.raises(ScriptedMissError):
            canned_discrimination_reply("just text, no rules")


class TestEndToEndLoop:
    def test_generate_then_discriminate_good(self):
        gen = canned_generation_backend()
        instance = generate_instance(record(1), TASKDEFS["CodeGeneration"],
                                     None, gen)
        assert instance.source_record_id == "rec-1"
        disc = canned_discrimination_backend()
        report = discriminate(instance, RULESET, disc)
        assert report.label == "Good"
        assert len(report.verdicts) == len(RULESET.all_rules())

    def test_generate_then_discriminate_bad(self):
        gen = canned_generation_backend()
        instance = generate_instance(record(2), TASKDEFS["CodeGeneration"],
                                     None, gen)
        disc = canned_discrimination_backend(bad_modulus=1)
        report = discriminate(instance, RULESET, disc)
        assert report.label == "Bad"
        assert sum(1 for v in report.verdicts if v.answer == "no") == 1

    def test_reduced_ruleset_still_parses(self):
        gen = canned_generation_backend()
        instance = generate_instance(record(3), TASKDEFS["CodeGeneration"],
                                     None, gen)
        reduced = reduced_ruleset(RULESET, "solution_imports")
        report = discriminate(instance, reduced, canned_discrimination_backend())
        assert len(report.verdicts) == len(RULESET.all_rules()) - 1

    def test_runs_deterministic(self):
        first = generate_instance(record(4), TASKDEFS["CodeGeneration"],
                                  None, canned_generation_backend())
        second = generate_instance(record(4), TASKDEFS["CodeGeneration"],
                                   None, canned_generation_backend())
        assert first.task_name == second.task_name
        assert first.solution == second.solution

    def test_transcripts_recorded(self):
        gen = Recorder(canned_generation_backend())
        generate_instance(record(5), TASKDEFS["CodeGeneration"], None, gen)
        assert len(gen.transcript) == 1
        assert "Raw code:" in gen.transcript[0].user_text


class TestFactoryWiring:
    def test_mock_kind_defaults_to_generation(self):
        backend = make_chat_backend(BackendConfig(kind="mock"))
        instance = generate_instance(record(6), TASKDEFS["CodeGeneration"],
                                     None, backend)
        assert instance.task_kind == "CodeGeneration"

    def test_mock_kind_discrimination_role(self):
        config = BackendConfig(kind="mock",
                               extra={"role": "discrimination", "bad_modulus": 1})
        backend = make_chat_backend(config)
        gen = canned_generation_backend()
        instance = generate_instance(record(7), TASKDEFS["CodeGeneration"],
                                     None, gen)
        report = discriminate(instance, RULESET, backend)
        assert report.label == "Bad"
