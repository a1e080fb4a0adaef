"""Tests for rule-based discrimination: prompts, parsing, and labeling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_text, reduced_ruleset
from discrimination_reference import reference_parse
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
from instructsmith.hermetic import canned_discrimination_reply
from instructsmith.llm_backend import MockChatBackend, ScriptEntry
from sensitive import Recorder

RULE_IDS = ["instruction_language", "solution_relevance", "solution_code_only",
            "solution_readability", "solution_imports"]
SHIPPED_RULESETS = ("code_generation", "code_summarization", "code_translation",
                    "code_repair")


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

    @pytest.mark.parametrize("name", SHIPPED_RULESETS)
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
        reduced = reduced_ruleset(rs, "a")
        assert [s.name for s in reduced.steps] == ["two"]
        # a reply written for the full set still parses under the reduced one
        report = parse_discrimination_output(
            "1. ta <answer: no, not a>\n1. tb <answer: yes, fine>\n"
            "Overall answer: yes", reduced)
        assert [(v.rule_id, v.answer) for v in report.verdicts] == [("b", "yes")]


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

    @pytest.mark.parametrize("name", SHIPPED_RULESETS)
    def test_golden_prompt(self, circle_instance, name):
        prompt = build_discrimination_prompt(circle_instance, load_ruleset(name))
        assert prompt == golden_text(f"discrimination_prompt_{name}.txt")

    def test_rebuilt_ruleset_renders_its_own_rules(self, circle_instance, ruleset):
        build_discrimination_prompt(circle_instance, ruleset)
        reduced = reduced_ruleset(ruleset, "solution_imports")
        prompt = build_discrimination_prompt(circle_instance, reduced)
        assert "[solution_imports]" not in prompt
        assert "[solution_readability]" in prompt


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
        reduced = reduced_ruleset(ruleset, "solution_code_only")
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


# -- differential test against the reference parser --------------------------

SHIPPED = {name: load_ruleset(name) for name in SHIPPED_RULESETS}
ALL_RULES = [rule for rs in SHIPPED.values() for rule in rs.all_rules()]
# (usual, unusual) choices for each part of a rule line or closing line
ANSWER_TOKENS = (["yes", "yes", "no", "Yes", "NO"], ["maybe", "yeſ", "n0"])
OPENERS = (["<answer: ", "<answer:", "<ANSWER:  ", "<Answer:\n"],
           ["<anſwer: ", "< answer: "])
SEPARATORS = ([", ", ",", " ,\t", ",\n"], [" ", ""])
REASONS = (["it holds", "the rule is met", "naïve — ünïcode ✓", "one\ntwo",
            "Overall answer: no", "Reasons: inner",
            "The code should import the required necessary libraries."],
           ["", "   ", "see <answer: no, nested", "a <answer: maybe"])
CLOSERS = ([">"], [""])
OVERALLS = (["- Overall answer: yes", "- Overall answer: no",
             "- overall ANSWER:\nNo", "Overall answer:yes"],
            ["- Overall answer: maybe", "- Overall answer: yeſ", ""])
RULE_TEXT_CHANGES = (["same", "same", "upper", "lower", "swapcase", "spaces"],
                     ["fold", "cut", "foreign"])


def _pick(draw, choices, odd: int):
    """A usual choice, or with odd/10 chance an unusual one."""
    usual, unusual = choices
    if draw(st.integers(0, 9)) < odd:
        return draw(st.sampled_from(unusual))
    return draw(st.sampled_from(usual))


def _varied(draw, text: str, odd: int) -> str:
    """``text`` with its case or whitespace changed, and with odd/10 chance
    case-folded, cut short or replaced by another ruleset's rule."""
    how = _pick(draw, RULE_TEXT_CHANGES, odd)
    if how == "same":
        return text
    if how == "fold":
        return text.replace("s", "ſ").replace("k", "\u212a")
    if how == "spaces":
        return text.replace(" ", draw(st.sampled_from(
            ["  ", "\n", " \t", "\u00a0", "\u2003 "])))
    if how == "cut":
        return text[:len(text) // 2]
    if how == "foreign":
        return draw(st.sampled_from(ALL_RULES)).text
    return getattr(text, how)()


@st.composite
def judge_replies(draw):
    """A ruleset and a reply loosely shaped like an analysis of it: rule
    lines reordered, dropped, duplicated or foreign, answer spans with odd
    tokens or reasons, with or without the overall and reasons lines, for
    the ruleset or for one with a rule removed."""
    ruleset = SHIPPED[draw(st.sampled_from(SHIPPED_RULESETS))]
    odd = draw(st.sampled_from([0, 0, 1, 3]))
    rules = ruleset.all_rules()
    mode = draw(st.sampled_from(["in order"] * 3 + ["shuffled", "any"]))
    if mode == "shuffled":
        rules = draw(st.permutations(rules))
    elif mode == "any":
        rules = draw(st.lists(st.sampled_from(ALL_RULES), max_size=8))
    lines = [draw(st.sampled_from(["Analysis:", "", "Here is my analysis."]))]
    for i, rule in enumerate(rules, start=1):
        for _ in range(draw(st.sampled_from([1] * 8 + [0, 2]))):
            reason = draw(st.sampled_from(REASONS[0]))
            if draw(st.integers(0, 9)) < odd:
                reason = draw(st.one_of(st.sampled_from(REASONS[1]),
                                        st.text(max_size=12)))
            lines.append(
                f"  {i}. {_varied(draw, rule.text, odd)} "
                f"{_pick(draw, OPENERS, odd)}{_pick(draw, ANSWER_TOKENS, odd)}"
                f"{_pick(draw, SEPARATORS, odd)}{reason}"
                f"{_pick(draw, CLOSERS, odd)}")
    if draw(st.integers(0, 5)):
        lines.append(_pick(draw, OVERALLS, odd))
    if draw(st.integers(0, 5)):
        lines.append(f"- Reasons: {draw(st.sampled_from(REASONS[0]))}")
    if draw(st.integers(0, 4)) == 0 and len(ruleset.all_rules()) > 1:
        dropped = draw(st.sampled_from(ruleset.all_rules())).rule_id
        ruleset = reduced_ruleset(ruleset, dropped)
    return ruleset, "\n".join(lines)


def _outcome(parse, text, ruleset):
    try:
        return ("report", parse(text, ruleset, instance_ref="rec").to_dict())
    except ParseError as exc:
        return ("ParseError", str(exc), exc.missing)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestReferenceEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(case=judge_replies())
    def test_same_outcome_as_reference(self, case):
        ruleset, text = case
        assert (_outcome(parse_discrimination_output, text, ruleset)
                == _outcome(reference_parse, text, ruleset))

    @pytest.mark.parametrize("name", SHIPPED_RULESETS)
    def test_canned_replies_agree(self, circle_instance, name):
        ruleset = SHIPPED[name]
        for bad_modulus in (0, 1):
            text = canned_discrimination_reply(
                build_discrimination_prompt(circle_instance, ruleset), bad_modulus)
            expected = _outcome(reference_parse, text, ruleset)
            assert expected[0] == "report"
            assert _outcome(parse_discrimination_output, text, ruleset) == expected
