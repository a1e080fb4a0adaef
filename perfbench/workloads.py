"""The two benchmark workloads: seeded inputs, configs and the timed calls.

Every input file is generated here from the workload seed; the program only
ever sees those files. Configs use README-documented keys and otherwise rely
on the defaults (``checkpoint_every`` is deliberately left unset).

- ``paper-serial``: the criterion-1 shape (about 99 % of the corpus
  selected, about 90 % accepted, ``bad_modulus`` 16, d=16) at
  ``max_in_flight`` 1, scaled down to PAPER_RECORDS records. The CPU-bound
  generate loop does most of the work.
- ``slow-backend``: SLOW_RECORDS records, about 10 % of them filtered out,
  whose every chat request sleeps a seeded lognormal delay
  (``latency.LatencyBackend``), at ``max_in_flight`` equal to the usable
  cores. It runs as ``stop_after="generating"`` followed by ``resume=True``.
  Waiting on the backend carries the time.

Every repetition ends with an audit of its dataset against BENCH_ITEMS
decoys plus PLANTED verbatim copies of dataset rows. Each workload is a
closed loop: one caller, or ``max_in_flight`` callers that each wait for
their reply.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from instructsmith.llm_backend import make_chat_backend
from instructsmith.pipeline import PipelineConfig, run

from latency import LatencyBackend

PAPER_RECORDS = 2_000
SLOW_RECORDS = 440
BENCH_ITEMS = 1_000
PLANTED = 5

LANGUAGES = ("Python", "Java", "Go", "PHP", "JavaScript")
WORKLOADS = ("paper-serial", "slow-backend")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Inputs:
    """Generated input files plus the sizes a result records."""

    corpus: Path
    decoys: Path
    bench: Path
    sizes: dict


def _clean_body(rng: random.Random, i: int) -> str:
    """A function of about 150 characters that passes the default filter."""
    a, b, c = rng.randrange(1, 10_000), rng.randrange(1, 10_000), rng.randrange(2, 97)
    return (f"def fn_{i}_{a}(x):\n"
            f"    # variant {i} of the synthetic corpus, key {b}\n"
            f"    total = x * {a} + {b} - {i % c}\n"
            f"    return total + len(str(x)) * {c}\n")


def _write_corpus(path: Path, rng: random.Random, n: int, *,
                  short_frac: float = 0.0, blacklisted_frac: float = 0.0) -> int:
    """Write ``n`` records; the given shares are too short or blacklisted."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            roll = rng.random()
            if roll < short_frac:
                code = f"def s_{i}(): return {rng.randrange(1000)}\n"
            else:
                code = _clean_body(rng, i)
                if roll < short_frac + blacklisted_frac:
                    code = code.replace("# variant", "# plot variant", 1)
            fh.write(json.dumps({"id": f"r{i:06d}", "code": code,
                                 "language": rng.choice(LANGUAGES)}) + "\n")
    return path.stat().st_size


def _write_decoys(path: Path, rng: random.Random, items: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(items):
            fh.write(json.dumps({
                "bench_id": f"B{j:05d}",
                "canonical_solution": (f"def canonical_{j}(values):\n    return "
                                       f"sum(v * {rng.randrange(997)} for v in values)"
                                       f" - {rng.randrange(10_000)}\n"),
                "benchmark": "perfbench"}) + "\n")


def plant_copies(inputs: "Inputs", dataset: Path, seed: int) -> list[str]:
    """Write the benchmark file: the decoys plus PLANTED verbatim copies of
    seeded rows of ``dataset``. Returns the planted texts.

    The copies are taken from the first synthesized dataset because which
    records reach the dataset depends on the k-center order.
    """
    rng = random.Random(f"plant:{seed}")
    with open(dataset, encoding="utf-8") as fh:
        outputs = [json.loads(line)["output"] for line in fh]
    planted = [outputs[i] for i in rng.sample(range(len(outputs)), PLANTED)]
    with open(inputs.decoys, encoding="utf-8") as fh:
        rows = fh.readlines()
    for j, text in enumerate(planted):
        rows.insert(rng.randrange(len(rows) + 1), json.dumps(
            {"bench_id": f"P{j:02d}", "canonical_solution": text,
             "benchmark": "perfbench-planted"}) + "\n")
    with open(inputs.bench, "w", encoding="utf-8") as fh:
        fh.writelines(rows)
    return planted


def make_inputs(name: str, seed: int, directory: Path) -> Inputs:
    """Generate the corpus and the benchmark decoys for ``name`` from ``seed``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    corpus = directory / "corpus.jsonl"
    if name == "paper-serial":
        n = PAPER_RECORDS
        corpus_bytes = _write_corpus(corpus, rng, n)
    elif name == "slow-backend":
        n = SLOW_RECORDS
        corpus_bytes = _write_corpus(corpus, rng, n, short_frac=0.05,
                                     blacklisted_frac=0.05)
    else:
        raise ValueError(f"unknown workload {name!r}")
    inputs = Inputs(corpus, directory / "bench_decoys.jsonl",
                    directory / "bench.jsonl",
                    {"corpus_records": n, "corpus_bytes": corpus_bytes,
                     "bench_items": BENCH_ITEMS + PLANTED})
    _write_decoys(inputs.decoys, rng, BENCH_ITEMS)
    return inputs


def config_dict(name: str, seed: int, corpus: Path, workdir: Path, *,
                reference: bool = False) -> dict:
    """The run config for ``name``. ``reference`` gives the configuration
    whose dataset bytes the measured one must reproduce: for
    ``slow-backend`` that is ``max_in_flight`` 1, run without a stop (the
    README's concurrency and resume claims)."""
    base = {"corpus_path": str(corpus), "workdir": str(workdir), "seed": seed,
            "discrimination_backend": {"kind": "mock",
                                       "extra": {"role": "discrimination",
                                                 "bad_modulus": 16}}}
    if name == "paper-serial":
        n = PAPER_RECORDS
        # criterion 1: 22k corpus, k=21,800, 19,915 accepted
        return {**base, "coreset": {"k": n * 99 // 100, "seed": seed},
                "target_accepted": n * 905 // 1000,
                "embedding_backend": {"kind": "mock", "dim": 16}}
    if name == "slow-backend":
        k = SLOW_RECORDS * 8 // 10
        return {**base, "coreset": {"k": k, "seed": seed},
                "target_accepted": k * 85 // 100,
                "embedding_backend": {"kind": "mock", "dim": 16},
                "concurrency": {"max_in_flight": 1 if reference else usable_cores()}}
    raise ValueError(f"unknown workload {name!r}")


def build_backends(name: str, config: PipelineConfig, seed: int, *,
                   reference: bool = False):
    """The chat backends a run of ``name`` injects into ``pipeline.run``."""
    gen = make_chat_backend(config.generation_backend)
    disc = make_chat_backend(config.discrimination_backend)
    if name == "slow-backend" and not reference:
        gen, disc = LatencyBackend(gen, seed), LatencyBackend(disc, seed)
    return gen, disc


def synthesize(name: str, config: PipelineConfig, gen, disc, *,
               clock, reference: bool = False) -> list[float]:
    """Run the pipeline for ``name``; returns what ``clock(fn)`` reports for
    each leg (the harness's timer).

    ``slow-backend`` runs as the CLI's ``generate`` then ``run --resume``;
    its reference is one uninterrupted run.
    """
    legs = [{}]
    if name == "slow-backend" and not reference:
        legs = [{"stop_after": "generating"}, {"resume": True}]
    seconds = []
    for kwargs in legs:
        seconds.append(clock(lambda: run(config, generation_backend=gen,
                                         discrimination_backend=disc, **kwargs)))
    return seconds
