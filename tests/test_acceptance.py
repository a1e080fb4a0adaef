"""Acceptance suite: the eight headline checks, one verdict line each.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line (visible
live with ``pytest -s``, or in captured output otherwise) and enforces its
stated tolerance and runtime budget. Everything here runs hermetically on
the deterministic mock backends — no network, no external services.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import CIRCLE_FIELDS, golden_text
from entry_dicts import read_dataset
from instructsmith import pipeline
from instructsmith.coreset import kcenter_greedy, kcenter_radius
from instructsmith.corpus import ingest_records, language_distribution
from instructsmith.decontam import (
    BenchmarkItem,
    audit,
    plan_removal,
)
from instructsmith.discriminator import (
    DiscriminationReport,
    RuleVerdict,
    compute_label,
    load_ruleset,
    parse_discrimination_output,
)
from instructsmith.embedding import EmbeddingBackendConfig
from instructsmith.emitter import render_prompt, to_training_example
from instructsmith.generator import (
    InstructionInstance,
    parse_generator_output,
    render_generator_output,
)
from discrimination_reference import render_discrimination_report
from kcenter_reference import kcenter_optimal_bruteforce


@contextlib.contextmanager
def criterion(num: int, name: str, budget_s: float):
    """Print one verdict line; fail on any assertion or a blown budget."""
    info = {"detail": ""}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        print(f"[criterion {num}] {name}: FAIL "
              f"({type(exc).__name__}: {exc}; {elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= budget_s
    verdict = "PASS" if ok else "FAIL"
    detail = f"{info['detail']}; " if info["detail"] else ""
    print(f"[criterion {num}] {name}: {verdict} "
          f"({detail}{elapsed:.1f}s of {budget_s:.0f}s budget)")
    assert ok, (f"criterion {num} ({name}) blew its runtime budget: "
                f"{elapsed:.1f}s > {budget_s}s")


def write_clean_corpus(path: Path, n: int) -> None:
    """A corpus that passes default filtering: ~150 chars, no blocked words."""
    langs = ["Python", "Java", "Go", "PHP", "JavaScript"]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            code = (f"def fn_{i}(x):\n"
                    f"    # variant {i} of the synthetic corpus\n"
                    f"    total = x * {i} + {i * i} - {i % 13}\n"
                    f"    return total + len(str(x)) * {i % 7}\n")
            fh.write(json.dumps({"id": f"c{i:05d}", "code": code,
                                 "language": langs[i % len(langs)]}) + "\n")


# -- 1. mix reproduction ----------------------------------------------------

TARGET_ACCEPTED = 19_915
EXPECTED_MIX = {"CodeGeneration": 57.1, "CodeSummarization": 15.8,
                "CodeRepair": 15.8, "CodeTranslation": 11.2}


def test_criterion_1_mix_reproduction(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_clean_corpus(corpus, 22_000)
    config = pipeline.PipelineConfig.from_dict({
        "corpus_path": str(corpus),
        "workdir": str(tmp_path / "work"),
        "coreset": {"k": 21_800, "seed": 11},
        "target_accepted": TARGET_ACCEPTED,
        "embedding_backend": {"kind": "mock", "dim": 16},
        "discrimination_backend": {"kind": "mock",
                                   "extra": {"role": "discrimination",
                                             "bad_modulus": 16}},
        "seed": 2024,
    })
    with criterion(1, "mix reproduction", budget_s=120.0) as info:
        summary = pipeline.run(config)
        examples = read_dataset(config.output_path)
        assert len(examples) == TARGET_ACCEPTED, (
            f"expected exactly {TARGET_ACCEPTED} examples, got {len(examples)}")
        assert summary.counts["emitted"] == TARGET_ACCEPTED
        assert summary.counts["good"] == TARGET_ACCEPTED
        per_task = {kind: 0 for kind in EXPECTED_MIX}
        for ex in examples:
            per_task[ex.task_kind] += 1
        offsets = {}
        for kind, expected_pct in EXPECTED_MIX.items():
            pct = 100.0 * per_task[kind] / len(examples)
            offsets[kind] = abs(pct - expected_pct)
            assert offsets[kind] <= 1.5, (
                f"{kind}: {pct:.2f}% is more than 1.5 points from "
                f"{expected_pct}%")
        info["detail"] = (f"emitted={len(examples)}, "
                          f"max mix offset={max(offsets.values()):.2f}pp")


# -- 2. language distribution -----------------------------------------------

LANGUAGE_COUNTS = [("Python", 2944), ("PHP", 2134), ("Go", 1968),
                   ("Java", 1853), ("JavaScript", 556),
                   ("Ruby", 200), ("C++", 180), ("Rust", 165)]
EXPECTED_DISTRIBUTION = {"Python": 29.44, "PHP": 21.34, "Go": 19.68,
                         "Java": 18.53, "JavaScript": 5.56, "Others": 5.45}


def test_criterion_2_language_distribution(tmp_path):
    fixture = tmp_path / "languages.jsonl"
    with open(fixture, "w", encoding="utf-8") as fh:
        i = 0
        for lang, count in LANGUAGE_COUNTS:
            for _ in range(count):
                fh.write(json.dumps({"id": f"x{i:05d}",
                                     "code": f"sample body {i}",
                                     "language": lang}) + "\n")
                i += 1
    with criterion(2, "language distribution", budget_s=1.0) as info:
        records = ingest_records(fixture)
        dist = language_distribution(
            records,
            keep_languages=["Python", "PHP", "Go", "Java", "JavaScript"])
        assert dist == EXPECTED_DISTRIBUTION, f"got {dist}"
        assert list(dist) == ["Python", "PHP", "Go", "Java", "JavaScript",
                              "Others"]
        info["detail"] = f"{len(records)} records, 6 buckets exact at 2dp"


# -- 3. golden prompts ------------------------------------------------------


def test_criterion_3_golden_prompts():
    with criterion(3, "golden prompts", budget_s=1.0) as info:
        instance = InstructionInstance(**CIRCLE_FIELDS,
                                       source_record_id="rec-circle",
                                       task_kind="CodeGeneration")
        with_input = to_training_example(instance)
        rendered = render_prompt(with_input)
        assert rendered == golden_text("prompt_with_input.txt"), (
            "with-input prompt drifted from its golden file")

        no_input = InstructionInstance(
            task_name=CIRCLE_FIELDS["task_name"],
            instruction=CIRCLE_FIELDS["instruction"],
            information="",
            solution=CIRCLE_FIELDS["solution"],
            source_record_id="rec-circle",
            task_kind="CodeGeneration")
        rendered = render_prompt(to_training_example(no_input))
        assert rendered == golden_text("prompt_without_input.txt"), (
            "without-input prompt drifted from its golden file")
        info["detail"] = "2 prompts byte-identical"


# -- 4. golden parse --------------------------------------------------------


def test_criterion_4_golden_parse():
    with criterion(4, "golden parse", budget_s=1.0) as info:
        instance = parse_generator_output(golden_text("generator_output.txt"))
        for field_name, expected in CIRCLE_FIELDS.items():
            assert getattr(instance, field_name) == expected, (
                f"generator field {field_name} parsed wrong")
        assert parse_generator_output(
            render_generator_output(instance)) == instance, (
            "generator render→parse round trip is lossy")

        ruleset = load_ruleset("code_generation")
        report = parse_discrimination_output(
            golden_text("discrimination_analysis.txt"), ruleset)
        assert len(report.verdicts) == 5
        assert all(v.answer == "yes" for v in report.verdicts)
        assert report.overall == "yes"
        assert report.label == "Good"
        reparsed = parse_discrimination_output(
            render_discrimination_report(report, ruleset), ruleset)
        assert reparsed == report, (
            "discrimination render→parse round trip is lossy")
        info["detail"] = "5 verdicts yes, overall yes, label Good; round trips"


# -- 5. coreset 2-approximation ---------------------------------------------


def test_criterion_5_coreset_two_approximation():
    rng = np.random.default_rng(505)
    instances = 0
    worst_ratio = 0.0
    with criterion(5, "coreset 2-approximation", budget_s=30.0) as info:
        while instances < 250:
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, min(3, n) + 1))
            dim = int(rng.integers(1, 5))
            points = rng.standard_normal((n, dim))
            seed = int(rng.integers(0, 1_000_000))

            selection = kcenter_greedy(points, k, seed=seed)
            greedy_radius = kcenter_radius(points, selection.selected_indices)
            _, optimal_radius = kcenter_optimal_bruteforce(points, k)
            assert greedy_radius <= 2.0 * optimal_radius + 1e-9, (
                f"2-approximation violated: greedy {greedy_radius} vs "
                f"optimal {optimal_radius} (n={n}, k={k}, dim={dim}, "
                f"seed={seed})")
            if optimal_radius > 0:
                worst_ratio = max(worst_ratio, greedy_radius / optimal_radius)

            trace = selection.radius_trace
            assert all(b <= a for a, b in zip(trace, trace[1:])), (
                "radius_trace increased")

            again = kcenter_greedy(points, k, seed=seed)
            assert again.selected_indices == selection.selected_indices
            assert again.radius_trace == selection.radius_trace, (
                "fixed-seed rerun was not bitwise identical")
            instances += 1
        info["detail"] = (f"{instances} instances, 0 violations, "
                          f"worst ratio {worst_ratio:.3f}")


# -- 6. decontamination recovery --------------------------------------------

DECONTAM_BACKEND = EmbeddingBackendConfig(kind="mock", model_name="mock-embed",
                                          dim=32)


def naive_neighbors(train, bench_texts, top_k):
    """Independent per-pair oracle: plain cosine loops, no matrix path."""
    from instructsmith.embedding import embed_batch

    train_vecs = list(embed_batch([t for _, t in train], DECONTAM_BACKEND))
    bench_vecs = list(embed_batch(bench_texts, DECONTAM_BACKEND))

    def cosine(a, b):
        num = sum(float(x) * float(y) for x, y in zip(a, b))
        da = math.sqrt(sum(float(x) * float(x) for x in a))
        db = math.sqrt(sum(float(y) * float(y) for y in b))
        return num / (da * db) if da > 0 and db > 0 else 0.0

    out = []
    for bvec in bench_vecs:
        sims = [(-cosine(tvec, bvec), idx, train[idx][0])
                for idx, tvec in enumerate(train_vecs)]
        sims.sort()
        out.append([(tid, -neg) for neg, _, tid in sims[:top_k]])
    return out


def test_criterion_6_decontamination_recovery():
    marker = random.Random(606)
    train = [(f"t{i:04d}",
              f"def solve_{i}(n):\n    return n * {i} + {marker.randrange(997)}\n")
             for i in range(1000)]
    bench = [BenchmarkItem(
                bench_id=f"b{j:02d}",
                canonical_solution=(f"def canonical_{j}(values):\n"
                                    f"    return sorted(values)[{j}:]\n"),
                benchmark_name="acceptance-fixture")
             for j in range(40)]
    planted_positions = sorted(random.Random(60).sample(range(1000), 5))
    planted_ids = []
    for j, pos in enumerate(planted_positions):
        train[pos] = (train[pos][0], bench[j].canonical_solution)
        planted_ids.append(train[pos][0])

    with criterion(6, "decontamination recovery", budget_s=30.0) as info:
        report = audit(train, bench, DECONTAM_BACKEND, top_k=3)

        for j in range(5):
            top = report.per_item[j].neighbors[0]
            assert top.train_id == planted_ids[j], (
                f"bench b{j:02d}: top-1 is {top.train_id}, expected the "
                f"planted copy {planted_ids[j]}")
            assert top.similarity >= 0.999, (
                f"bench b{j:02d}: planted copy similarity {top.similarity}")

        oracle = naive_neighbors(train, [b.canonical_solution for b in bench],
                                 top_k=3)
        for item, expected in zip(report.per_item, oracle):
            got = [(n.train_id, n.similarity) for n in item.neighbors]
            assert [tid for tid, _ in got] == [tid for tid, _ in expected], (
                f"{item.bench_id}: neighbor ranking differs from oracle")
            for (_, sim), (_, oracle_sim) in zip(got, expected):
                assert abs(sim - oracle_sim) <= 1e-9, (
                    f"{item.bench_id}: similarity differs from oracle by "
                    f"{abs(sim - oracle_sim)}")

        plan = plan_removal(report, n_per_item=3)
        missing = set(planted_ids) - plan.remove_train_ids
        assert not missing, f"plan failed to remove planted copies: {missing}"

        cleaned = [pair for pair in train
                   if pair[0] not in plan.remove_train_ids]
        re_report = audit(cleaned, bench, DECONTAM_BACKEND, top_k=3)
        leftovers = {n.train_id
                     for item in re_report.per_item for n in item.neighbors
                     } & set(planted_ids)
        assert not leftovers, (
            f"planted copies still in neighbor lists after removal: "
            f"{leftovers}")
        info["detail"] = (f"5/5 planted recovered at top-1 >= 0.999, "
                          f"oracle-exact, removed {len(plan.remove_train_ids)}")


# -- 7. conjunction labeling ------------------------------------------------


def test_criterion_7_conjunction_labeling():
    rng = random.Random(707)
    with criterion(7, "conjunction labeling", budget_s=1.0) as info:
        checked = 0
        for _ in range(500):
            n_rules = rng.randint(1, 6)
            verdicts = [RuleVerdict(rule_id=f"rule_{i}",
                                    answer=rng.choice(["yes", "no"]),
                                    reason="randomized")
                        for i in range(n_rules)]
            overall = rng.choice(["yes", "no"])
            expected = ("Good" if overall == "yes"
                        and all(v.answer == "yes" for v in verdicts)
                        else "Bad")
            assert compute_label(overall, verdicts) == expected
            report = DiscriminationReport(instance_ref="x", verdicts=verdicts,
                                          overall=overall)
            assert report.label == expected
            checked += 1

        # Adversarial: overall says yes while one rule says no — still Bad.
        verdicts = [RuleVerdict(rule_id="rule_0", answer="yes", reason="ok"),
                    RuleVerdict(rule_id="rule_1", answer="no", reason="bad")]
        assert compute_label("yes", verdicts) == "Bad"
        assert DiscriminationReport(instance_ref="x", verdicts=verdicts,
                                    overall="yes").label == "Bad"
        info["detail"] = f"{checked} random reports + adversarial case"


# -- 8. crash resumption ----------------------------------------------------


def _write_run_config(path: Path, corpus: Path, workdir: Path) -> None:
    path.write_text(json.dumps({
        "corpus_path": str(corpus),
        "workdir": str(workdir),
        "coreset": {"k": 420, "seed": 5},
        "target_accepted": 300,
        "embedding_backend": {"kind": "mock", "dim": 16},
        "discrimination_backend": {"kind": "mock",
                                   "extra": {"role": "discrimination",
                                             "bad_modulus": 6}},
        "seed": 31,
        "concurrency": {"max_in_flight": 4},
    }), encoding="utf-8")


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "instructsmith", *args],
                          capture_output=True, text=True, timeout=120)


def _line_count(path: Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def _run_until_killed(config: Path, workdir: Path, kill_at: int,
                      resume: bool) -> None:
    """Launch the CLI and SIGKILL it once the exemplar log reaches kill_at
    lines; fails if the run finishes before the threshold is reached."""
    args = [sys.executable, "-m", "instructsmith", "run", "--config",
            str(config)] + (["--resume"] if resume else [])
    exemplars = workdir / "exemplars.jsonl"
    proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if _line_count(exemplars) >= kill_at:
                proc.kill()
                proc.wait(timeout=30)
                assert not (workdir / "dataset.jsonl").exists(), (
                    "kill landed after emission; threshold too late")
                return
            if proc.poll() is not None:
                pytest.fail(f"run finished (rc={proc.returncode}) before "
                            f"reaching kill threshold {kill_at}")
            time.sleep(0.002)
        pytest.fail(f"timed out waiting for {kill_at} exemplar lines")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def test_criterion_8_crash_resumption(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_clean_corpus(corpus, 420)
    baseline_config = tmp_path / "baseline.json"
    baseline_workdir = tmp_path / "baseline"
    _write_run_config(baseline_config, corpus, baseline_workdir)
    interrupted_config = tmp_path / "interrupted.json"
    interrupted_workdir = tmp_path / "interrupted"
    _write_run_config(interrupted_config, corpus, interrupted_workdir)

    kill_points = sorted(random.Random(808).sample(range(30, 260), 3))

    with criterion(8, "crash resumption", budget_s=300.0) as info:
        completed = _run_cli(["run", "--config", str(baseline_config)])
        assert completed.returncode == 0, completed.stderr
        baseline = (baseline_workdir / "dataset.jsonl").read_bytes()

        for i, kill_at in enumerate(kill_points):
            _run_until_killed(interrupted_config, interrupted_workdir,
                              kill_at, resume=i > 0)
        final = _run_cli(["run", "--config", str(interrupted_config),
                          "--resume"])
        assert final.returncode == 0, final.stderr

        resumed = (interrupted_workdir / "dataset.jsonl").read_bytes()
        assert resumed == baseline, (
            "dataset after 3 kills + resume differs from the uninterrupted "
            "run")
        info["detail"] = (f"killed at {kill_points} exemplar lines; "
                          f"{len(baseline)} byte dataset identical")
