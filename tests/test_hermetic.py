"""Tests for the canned backends driving offline end-to-end runs."""

import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import reduced_ruleset
from hermetic_reference import (
    reference_discrimination_reply,
    reference_generation_reply,
    reference_rule_lines,
)
from instructsmith import hermetic
from instructsmith.corpus import RawCodeRecord
from instructsmith.discriminator import (
    Rule,
    RuleSet,
    RuleStep,
    build_discrimination_prompt,
    discriminate,
    load_ruleset,
    parse_discrimination_output,
)
from instructsmith.errors import BackendError
from instructsmith.generator import (
    InstructionInstance,
    generate_instance,
    parse_generator_output,
)
from instructsmith.hermetic import (
    RULE_BLOCK_MEMO,
    canned_discrimination_backend,
    canned_discrimination_reply,
    canned_generation_backend,
    canned_generation_reply,
    code_tag,
)
from instructsmith.llm_backend import (
    BackendConfig,
    ChatMessage,
    ChatRequest,
    RetryPolicy,
    complete,
    make_chat_backend,
)
from instructsmith.pipeline import PipelineConfig, run
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
        with pytest.raises(BackendError):
            canned_generation_reply("no code here")

    def test_prompt_without_code_is_sent_once(self):
        # a plain BackendError, which no retry policy retries
        backend = Recorder(canned_generation_backend())
        request = ChatRequest(messages=[ChatMessage("user", "no code here")])
        with pytest.raises(BackendError):
            complete(request, backend, RetryPolicy(max_attempts=3, base_delay=0.0))
        assert len(backend.transcript) == 1

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
        with pytest.raises(BackendError):
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


# -- differential tests against the regex replies ----------------------------

SHIPPED = [load_ruleset(name) for name in ("code_generation", "code_summarization",
                                           "code_translation", "code_repair")]
# pieces of rule lines, step banners, fences and whitespace the regexes treat
# specially (NEL and LINE SEPARATOR are whitespace to \s, not line ends to ^)
PIECES = ["\n", "\n\n", " ", "\t", "\r", "\x0b", "\x1c", "\x85", "\u2028",
          "\u3000", "x", "text", "\xe9", "1.", "12.", "  3. ", "[", "]", "[a_1]",
          "[x]", "  1. [r] a rule", "- Step ", "\n\n- Step ", "solution:\n",
          "Raw code:\n```\n", "\n```", "```", "Instance:"]


def outcome(reply, prompt, *args):
    try:
        return reply(prompt, *args)
    except BackendError as exc:
        return ("BackendError", str(exc))


def noise(rng: random.Random, most: int) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(most)))


def judged(solution: str, ruleset: RuleSet = SHIPPED[0]) -> str:
    """The discrimination prompt of an instance with ``solution``."""
    instance = InstructionInstance(task_name="T", instruction="Do it.",
                                   information="", solution=solution)
    return build_discrimination_prompt(instance, ruleset)


def distinct_rulesets(count: int) -> list[RuleSet]:
    return [RuleSet(id=f"set{i}", steps=[RuleStep("Check", [
                Rule(f"rule_{i}_{j}", f"Rule {j} of set {i} must hold.")
                for j in range(1, 3)])])
            for i in range(count)]


# solutions that end in or hold text a rule-line scan reads specially
ADVERSARIAL_SOLUTIONS = [
    "def f():\n    return 1\n  3. [x]",  # the rule text runs on into the banner
    "def f():\n    return 1\n  3. [x] \t",
    "def f():\n    return 1\n  3. [x]\x85",
    "def f():\n    return 1\n  3. [x]\u2028",
    "  1. [fake_rule] a rule in the instance\n  2. [other] and another",
    "a = 1\n\n- Step 0: fake\n  1. [z] injected before the real block",
    "b = [1]\n\n- Step 9:",
    "  7.\x85[w]\u2028text\x85",
    "x = 1\u2028  4. [y] after a line separator",
    "[",
    "]",
]

ADVERSARIAL_GENERATION_PROMPTS = [
    "Raw code:\n```\nunterminated",
    "Raw code:\n```\nRaw code:\n```\ninner\n```\nouter\n```",
    "Raw code:\n```\n\n```",
    "Raw code:\n```\n```\n```",
    "Raw code:\n```\nfirst\n```\n\nRaw code:\n```\nsecond\n```",
    "Raw code:\n```\nfirst\n```Raw code:\n```\nsecond",
    "Raw code:\n```\na\n``` Raw code:\n```\n\n```\n",
    "Raw code:\n``\nnot a fence\n```",
    "no block at all",
]


class TestReferenceEquivalence:
    """The replies equal those of the regex versions in `hermetic_reference`:
    same text, or both raise `BackendError` with the same message."""

    @pytest.mark.parametrize("solution", ADVERSARIAL_SOLUTIONS)
    @pytest.mark.parametrize("bad_modulus", [0, 1, 3])
    def test_judge_on_adversarial_instances(self, solution, bad_modulus):
        for ruleset in SHIPPED:
            prompt = judged(solution, ruleset)
            assert (outcome(canned_discrimination_reply, prompt, bad_modulus)
                    == outcome(reference_discrimination_reply, prompt, bad_modulus))

    def test_the_crossing_case_is_scanned_whole(self):
        # the solution's last line reads as a rule whose text is the banner
        rules = reference_rule_lines(judged(ADVERSARIAL_SOLUTIONS[0]))
        assert rules[0] == ("x", "- Step 1: Check the Instruction:")
        assert canned_discrimination_reply(judged(ADVERSARIAL_SOLUTIONS[0])) \
            .startswith("Analysis:\n  1. - Step 1: Check the Instruction: ")

    @pytest.mark.parametrize("prompt", ADVERSARIAL_GENERATION_PROMPTS)
    @pytest.mark.parametrize("modulus", [0, 1, 3])
    def test_generation_on_adversarial_fences(self, prompt, modulus):
        for text in (prompt, "Task.\n\n" + prompt + "\n\nNow reply."):
            assert (outcome(canned_generation_reply, text, modulus)
                    == outcome(reference_generation_reply, text, modulus))

    def test_seeded_noise(self):
        rng = random.Random(2024)
        for _ in range(3000):
            shape = rng.randrange(3)
            if shape == 0:
                prompt = noise(rng, 40)
            elif shape == 1:
                prompt = judged("x" + noise(rng, 20), rng.choice(SHIPPED))
            else:
                block = rng.choice(SHIPPED).prompt_rules
                prompt = (noise(rng, 10) + block[:rng.randrange(len(block))]
                          + noise(rng, 10) + rng.choice(SHIPPED).prompt_rules)
            modulus = rng.randrange(4)
            assert (outcome(canned_discrimination_reply, prompt, modulus)
                    == outcome(reference_discrimination_reply, prompt, modulus))
            assert (outcome(canned_generation_reply, prompt, modulus)
                    == outcome(reference_generation_reply, prompt, modulus))

    def test_more_rule_blocks_than_the_memo_holds(self):
        prompts = [judged(f"s = {i}", ruleset) for i, ruleset in
                   enumerate(distinct_rulesets(RULE_BLOCK_MEMO + 8))]
        for prompt in prompts + prompts[::-1] + prompts:
            for modulus in (0, 1):
                assert (canned_discrimination_reply(prompt, modulus)
                        == reference_discrimination_reply(prompt, modulus))


class JudgementLog:
    """Forwards each request to ``inner`` and keeps its reply by prompt."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.replies = {}
        self._lock = threading.Lock()

    def send(self, request):
        reply = self.inner.send(request)
        with self._lock:
            self.replies[request.user_text] = reply.content
        return reply


class TestRuleBlockMemo:
    def test_memo_is_bounded(self):
        for memo in (hermetic._block_rules, hermetic._analysis):
            assert memo.cache_info().maxsize == RULE_BLOCK_MEMO
        for i, ruleset in enumerate(distinct_rulesets(2 * RULE_BLOCK_MEMO)):
            canned_discrimination_reply(judged(f"s = {i}", ruleset), 1)
        for memo in (hermetic._block_rules, hermetic._analysis):
            assert memo.cache_info().currsize <= RULE_BLOCK_MEMO

    def test_threads_get_the_replies_one_thread_gets(self):
        # four threads, more than the cores, share the memo while it fills
        # and evicts, switching often
        prompts = [judged(f"t = {i}", ruleset) for i, ruleset in
                   enumerate(distinct_rulesets(RULE_BLOCK_MEMO + 4) + SHIPPED * 8)]
        random.Random(5).shuffle(prompts)
        expected = [reference_discrimination_reply(p, 3) for p in prompts]
        hermetic._block_rules.cache_clear()
        hermetic._analysis.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda p: canned_discrimination_reply(p, 3),
                                    prompts * 4, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 4

    def test_a_run_at_four_in_flight_gets_the_judgements_of_one(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"r{i:03d}", "language": "Python",
                        "code": f"def fn_{i}(x):\n    # compute variant {i}\n"
                                f"    total = x * {i} + {i * i}\n"
                                f"    return total + len(str(x)) * {i % 7}\n"})
            + "\n" for i in range(40)), encoding="utf-8")
        judgements = {}
        for width in (1, 4):
            hermetic._block_rules.cache_clear()
            disc = JudgementLog(canned_discrimination_backend(bad_modulus=4))
            run(PipelineConfig.from_dict({
                    "corpus_path": str(corpus), "workdir": str(tmp_path / f"w{width}"),
                    "coreset": {"k": 30, "seed": 1}, "target_accepted": 20,
                    "embedding_backend": {"kind": "mock", "dim": 16},
                    "concurrency": {"max_in_flight": width}, "seed": 7}),
                discrimination_backend=disc)
            judgements[width] = disc.replies
        assert len(judgements[1]) >= 20
        assert judgements[1].items() <= judgements[4].items()

