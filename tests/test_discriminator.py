"""Tests for rule-based discrimination: prompts, parsing, and labeling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_text
from instructsmith.discriminator import (
    DiscriminationReport,
    Rule,
    RuleSet,
    RuleStep,
    RuleVerdict,
    build_discrimination_prompt,
    compute_label,
    discriminate,
    load_ruleset,
    parse_discrimination_output,
    render_discrimination_report,
)
from instructsmith.errors import (
    ConfigError,
    DiscriminationFailedError,
    ParseError,
)
from instructsmith.llm_backend import MockChatBackend, ScriptEntry
from sensitive import Recorder

RULE_IDS = ["instruction_language", "solution_relevance", "solution_code_only",
            "solution_readability", "solution_imports"]


@pytest.fixture
def ruleset():
    return load_ruleset("code_generation")


class TestRuleSets:
    def test_shipped_code_generation_rules(self, ruleset):
        assert ruleset.id == "code_generation"
        assert len(ruleset.steps) == 2
        assert [r.rule_id for r in ruleset.all_rules()] == RULE_IDS
        assert ruleset.all_rules()[0].text == (
            "The programming language should be specified in the instruction.")

    @pytest.mark.parametrize("name", ["code_generation", "code_summarization",
                                      "code_translation", "code_repair"])
    def test_all_shipped_rulesets_load(self, name):
        rs = load_ruleset(name)
        assert rs.id == name
        assert rs.all_rules()

    def test_missing_ruleset(self):
        with pytest.raises(ConfigError):
            load_ruleset("code_llamas")

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ConfigError):
            RuleSet(id="x", steps=[
                RuleStep("a", [Rule("r1", "text one")]),
                RuleStep("b", [Rule("r1", "text two")]),
            ])

    def test_empty_steps_rejected(self):
        with pytest.raises(ConfigError):
            RuleSet(id="x", steps=[])
        with pytest.raises(ConfigError):
            RuleStep("empty", [])

    def test_without_rule_drops_empty_step(self):
        rs = RuleSet(id="x", steps=[RuleStep("one", [Rule("a", "ta")]),
                                    RuleStep("two", [Rule("b", "tb")])])
        reduced = rs.without_rule("a")
        assert [s.name for s in reduced.steps] == ["two"]


class TestPrompt:
    def test_rule_ids_appear_exactly_once(self, circle_instance, ruleset):
        prompt = build_discrimination_prompt(circle_instance, ruleset)
        for rule_id in RULE_IDS:
            assert prompt.count(f"[{rule_id}]") == 1

    def test_solution_verbatim(self, circle_instance, ruleset):
        prompt = build_discrimination_prompt(circle_instance, ruleset)
        assert circle_instance.solution in prompt

    def test_step_names_and_rule_texts_present(self, circle_instance, ruleset):
        prompt = build_discrimination_prompt(circle_instance, ruleset)
        assert "Step 1: Check the Instruction" in prompt
        assert "Step 2: Check the Solution" in prompt
        for rule in ruleset.all_rules():
            assert rule.text in prompt

    def test_answer_format_instructions(self, circle_instance, ruleset):
        prompt = build_discrimination_prompt(circle_instance, ruleset)
        assert "<answer: yes, reason>" in prompt
        assert "Overall answer:" in prompt


class TestParse:
    def test_reference_analysis(self, ruleset):
        report = parse_discrimination_output(
            golden_text("discrimination_analysis.txt"), ruleset)
        assert len(report.verdicts) == 5
        assert [v.rule_id for v in report.verdicts] == RULE_IDS
        assert all(v.answer == "yes" for v in report.verdicts)
        assert report.overall == "yes"
        assert report.label == "Good"
        assert report.overall_reasons.startswith(
            "All the requirements are met as per the given rules.")
        assert report.verdicts[0].reason.startswith(
            'The instruction mentions "Write a Python function,"')

    def test_one_no_with_overall_yes_is_bad(self, ruleset):
        text = golden_text("discrimination_analysis.txt").replace(
            "<answer: yes, The solution only contains the code",
            "<answer: no, The solution only contains the code")
        report = parse_discrimination_output(text, ruleset)
        assert report.overall == "yes"
        assert report.verdicts[2].answer == "no"
        assert report.label == "Bad"

    def test_missing_overall(self, ruleset):
        text = golden_text("discrimination_analysis.txt")
        text = text[:text.index("- Overall answer")]
        with pytest.raises(ParseError) as excinfo:
            parse_discrimination_output(text, ruleset)
        assert excinfo.value.missing == ["overall"]

    def test_missing_rule_answer_listed(self, ruleset):
        text = golden_text("discrimination_analysis.txt")
        start = text.index("  4. The code should import")
        end = text.index("- Overall answer")
        text = text[:start] + text[end:]
        with pytest.raises(ParseError) as excinfo:
            parse_discrimination_output(text, ruleset)
        assert excinfo.value.missing == ["solution_imports"]

    def test_unrecognized_answer_token(self, ruleset):
        text = golden_text("discrimination_analysis.txt").replace(
            "<answer: yes, The code imports", "<answer: maybe, The code imports")
        with pytest.raises(ParseError, match="maybe"):
            parse_discrimination_output(text, ruleset)

    def test_reduced_ruleset_keeps_only_retained_verdicts(self, ruleset):
        reduced = ruleset.without_rule("solution_code_only")
        report = parse_discrimination_output(
            golden_text("discrimination_analysis.txt"), reduced)
        assert [v.rule_id for v in report.verdicts] == [
            "instruction_language", "solution_relevance",
            "solution_readability", "solution_imports"]
        # each verdict still carries the reason written for its own rule
        assert report.verdicts[2].reason.startswith(
            "The code that contains algorithmic logic")

    def test_round_trip(self, ruleset):
        report = parse_discrimination_output(
            golden_text("discrimination_analysis.txt"), ruleset,
            instance_ref="rec-circle")
        rendered = render_discrimination_report(report, ruleset)
        back = parse_discrimination_output(rendered, ruleset,
                                           instance_ref="rec-circle")
        assert back == report

    def test_render_requires_full_verdicts(self, ruleset):
        partial = DiscriminationReport(
            instance_ref="x",
            verdicts=[RuleVerdict("instruction_language", "yes", "ok")],
            overall="yes")
        with pytest.raises(ValueError):
            render_discrimination_report(partial, ruleset)


class TestLabeling:
    def test_report_autolabel_and_contradiction(self):
        verdicts = [RuleVerdict("a", "yes", "fine")]
        report = DiscriminationReport(instance_ref="i", verdicts=verdicts,
                                      overall="yes")
        assert report.label == "Good"
        with pytest.raises(ValueError):
            DiscriminationReport(instance_ref="i", verdicts=verdicts,
                                 overall="yes", label="Bad")

    def test_verdict_validation(self):
        with pytest.raises(ValueError):
            RuleVerdict("a", "perhaps", "reason")
        with pytest.raises(ValueError):
            RuleVerdict("a", "yes", "   ")

    @settings(max_examples=300, deadline=None)
    @given(answers=st.lists(st.sampled_from(["yes", "no"]), min_size=0,
                            max_size=8),
           overall=st.sampled_from(["yes", "no"]))
    def test_conjunction_property(self, answers, overall):
        verdicts = [RuleVerdict(f"r{i}", a, f"reason {i}")
                    for i, a in enumerate(answers)]
        label = compute_label(overall, verdicts)
        expected_good = overall == "yes" and all(a == "yes" for a in answers)
        assert (label == "Good") == expected_good
        report = DiscriminationReport(instance_ref="x", verdicts=verdicts,
                                      overall=overall)
        assert report.label == label

    def test_adversarial_overall_yes_one_no(self):
        verdicts = [RuleVerdict("a", "yes", "fine"),
                    RuleVerdict("b", "no", "violates rule b")]
        assert compute_label("yes", verdicts) == "Bad"

    def test_dict_round_trip(self, ruleset):
        report = parse_discrimination_output(
            golden_text("discrimination_analysis.txt"), ruleset,
            instance_ref="rec")
        assert DiscriminationReport.from_dict(report.to_dict()) == report


class TestDiscriminate:
    def test_reference_reply(self, circle_instance, ruleset):
        backend = Recorder(MockChatBackend(
            [ScriptEntry(None, golden_text("discrimination_analysis.txt"))]))
        report = discriminate(circle_instance, ruleset, backend)
        assert report.label == "Good"
        assert report.instance_ref == "rec-circle"
        # the prompt sent carried the instance solution verbatim
        assert circle_instance.solution in backend.transcript[0].user_text

    def test_bad_verdict_reply(self, circle_instance, ruleset):
        text = golden_text("discrimination_analysis.txt").replace(
            "- Overall answer: yes", "- Overall answer: no")
        backend = MockChatBackend([ScriptEntry(None, text)])
        report = discriminate(circle_instance, ruleset, backend)
        assert report.label == "Bad"

    def test_retry_then_success(self, circle_instance, ruleset):
        backend = Recorder(MockChatBackend([
            ScriptEntry(None, "no analysis here"),
            ScriptEntry(None, golden_text("discrimination_analysis.txt")),
        ]))
        report = discriminate(circle_instance, ruleset, backend, retries=1)
        assert report.label == "Good"
        assert len(backend.transcript) == 2

    def test_exhaustion(self, circle_instance, ruleset):
        backend = MockChatBackend([ScriptEntry(None, "nope", times=None)])
        with pytest.raises(DiscriminationFailedError) as excinfo:
            discriminate(circle_instance, ruleset, backend, retries=1)
        assert excinfo.value.attempts == 2
        assert excinfo.value.last_reply == "nope"
