#!/usr/bin/env python3
"""Own CPU cost per record of the generate loop (not a pytest module).

    python tests/generate_cost.py [--seed 1] [--passes 5]

Builds the ``paper-serial`` benchmark inputs for the seed (see
``perfbench/workloads.py``: 2,000 records, k = 1,980, 1,810 accepted,
``bad_modulus`` 16, ``max_in_flight`` 1) in a temp dir and runs the pipeline
on them ``--passes`` times, untraced, with the canned mock backends, each
run in a fresh workdir. The fastest run's generate-stage seconds from
``summary.json`` over the records it attempted give the whole loop's cost
per record.

It then replays the last run's records, in order, through the loop's parts,
timing each call: the exemplar sample, the generation prompt, the canned
generation reply, the generator parse, the discrimination prompt, the canned
judge reply, the judge parse, the entry, the in-memory insert (row build and
index), the log line's encode (``ExemplarEntry.to_json``) and its flushed
write (``JsonlAppender.append``). Each replay must rebuild the run's
``exemplars.jsonl`` byte for byte; each part reports its fastest of
``--passes`` replays. Prints microseconds per record for each part, and for
the rest of the loop (requests, retries, the window) as the stage less the
parts. The program is imported from the ``src`` directory of the checkout
this script sits in, so running the script from two checkouts compares them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("sample", "generation prompt", "generation mock reply",
         "generation parse", "discrimination prompt",
         "discrimination mock reply", "discrimination parse", "entry",
         "insert (row and index)", "log line encode", "log line write")


def paper_serial_runs(directory: Path, seed: int, passes: int):
    """Run paper-serial ``passes`` times; returns the last run's config, the
    generate stage's records and assignment, the fastest run's generate
    seconds and the records each run attempted."""
    import workloads
    from instructsmith import pipeline

    inputs = workloads.make_inputs("paper-serial", seed, directory / "inputs")
    captured = {}
    generate_exemplars = pipeline.generate_exemplars

    def capture(config, records, assignment, *args):
        captured.update(records=list(records), assignment=dict(assignment))
        return generate_exemplars(config, records, assignment, *args)

    stage_s, attempted = float("inf"), set()
    pipeline.generate_exemplars = capture
    try:
        for i in range(passes):
            config = pipeline.PipelineConfig.from_dict(workloads.config_dict(
                "paper-serial", seed, inputs.corpus, directory / f"work{i}"))
            pipeline.run(config)
            summary = json.loads((config.workdir / "summary.json").read_text("utf-8"))
            stage_s = min(stage_s, summary["stage_seconds"]["generate"])
            attempted.add(summary["counts"]["generated"])
    finally:
        pipeline.generate_exemplars = generate_exemplars
    if len(attempted) != 1:
        sys.exit(f"the runs attempted different record counts: {sorted(attempted)}")
    return (config, captured["records"], captured["assignment"], stage_s,
            attempted.pop())


def replay(config, records, assignment, log_path: Path) -> tuple[dict, int]:
    """Each part's total nanoseconds over the replayed records, and the
    record count. Every record parses at its first attempt, as it does
    with the canned mocks."""
    from instructsmith.discriminator import (
        DISCRIMINATION_SYSTEM_TEXT, DISCRIMINATION_TEMPERATURE,
        build_discrimination_prompt, parse_discrimination_output)
    from instructsmith.exemplar_db import ExemplarDB, make_entry
    from instructsmith.generator import (
        GENERATION_SYSTEM_TEXT, GENERATION_TEMPERATURE, build_generation_prompt,
        exemplar_sample_seed, parse_generator_output)
    from instructsmith.ioutil import JsonlAppender
    from instructsmith.llm_backend import ChatMessage, ChatRequest, make_chat_backend
    from instructsmith.pipeline import load_task_bundle

    taskdefs, rulesets = load_task_bundle(config)
    gen = make_chat_backend(config.generation_backend)
    disc = make_chat_backend(config.discrimination_backend)
    db = ExemplarDB()
    ns = dict.fromkeys(PARTS, 0)
    clock = time.perf_counter_ns
    accepted = count = 0
    with JsonlAppender(log_path) as appender:
        for record in records:
            if accepted >= config.target_accepted:
                break
            kind = assignment[record.id]
            seed = exemplar_sample_seed(config.seed, record.id, 1)
            t0 = clock()
            exemplars = db.sample(kind, config.sampling, seed=seed,
                                  before_seq=len(db))
            t1 = clock()
            prompt = build_generation_prompt(record, taskdefs[kind], exemplars)
            t2 = clock()
            reply = gen.send(ChatRequest(
                [ChatMessage("system", GENERATION_SYSTEM_TEXT),
                 ChatMessage("user", prompt.user_text)],
                temperature=GENERATION_TEMPERATURE))
            t3 = clock()
            instance = parse_generator_output(
                reply.content, source_record_id=record.id, task_kind=kind,
                generation_meta={"model": reply.model_name, "attempts": 1,
                                 "exemplar_ids": prompt.exemplar_ids,
                                 "usage": dict(reply.usage)})
            t4 = clock()
            text = build_discrimination_prompt(instance, rulesets[kind])
            t5 = clock()
            verdict = disc.send(ChatRequest(
                [ChatMessage("system", DISCRIMINATION_SYSTEM_TEXT),
                 ChatMessage("user", text)],
                temperature=DISCRIMINATION_TEMPERATURE))
            t6 = clock()
            report = parse_discrimination_output(
                verdict.content, rulesets[kind], instance_ref=record.id)
            t7 = clock()
            entry = make_entry(instance, report)
            t8 = clock()
            db.insert(entry)
            t9 = clock()
            line = entry.to_json()
            t10 = clock()
            appender.append(line)
            t11 = clock()
            stamps = (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11)
            for part, start, end in zip(PARTS, stamps, stamps[1:]):
                ns[part] += end - start
            count += 1
            accepted += report.label == "Good"
    return ns, count


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--passes", type=int, default=5,
                        help="runs and replays; the stage and each part "
                             "report their fastest")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="generate-cost-") as tmp:
        directory = Path(tmp)
        config, records, assignment, stage_s, attempted = paper_serial_runs(
            directory, args.seed, args.passes)
        best = dict.fromkeys(PARTS, float("inf"))
        for i in range(args.passes):
            log_path = directory / f"replayed{i}.jsonl"
            ns, count = replay(config, records, assignment, log_path)
            if count != attempted:
                sys.exit(f"the replay attempted {count} records, the run {attempted}")
            if log_path.read_bytes() != config.exemplar_db.read_bytes():
                sys.exit("the replay wrote a different exemplar log")
            best = {part: min(best[part], ns[part]) for part in PARTS}
    stage_us = stage_s * 1e6 / attempted
    parts_us = {part: total / 1e3 / count for part, total in best.items()}
    print(f"source: {ROOT / 'src'}")
    print(f"records attempted: {attempted}")
    print(f"generate stage (fastest run): {stage_us:8.1f} us/record")
    for part, us in parts_us.items():
        print(f"  {part:<28} {us:8.2f}")
    print(f"  {'rest (requests, window)':<28} {stage_us - sum(parts_us.values()):8.2f}")


if __name__ == "__main__":
    main()
