#!/usr/bin/env python3
"""Peak memory of a paper-sized decontamination audit (not a pytest module).

    python tests/audit_memory.py [--seed 11]

Builds the criterion-1-shaped dataset with the mock backends in a temp dir
(22,000 corpus records, k = 21,800, 19,915 accepted, d = 16), writes a
benchmark file of 664 synthetic items (the size of HumanEval + MBPP) plus
planted verbatim copies of dataset rows, and runs ``audit_and_plan`` on them
twice, each time in a fresh interpreter: once untraced for the peak RSS
(``ru_maxrss``) and the wall time, once under ``tracemalloc`` for the traced
peak. Prints both peaks, the untraced audit's seconds and the sha256 of
``leakage_report.json``, ``decontam_plan.json`` and
``dataset.cleaned.jsonl``. Nothing is downloaded. The program is imported
from the ``src`` directory of the checkout this script sits in, so running
the script from two checkouts compares them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS_RECORDS, K, TARGET, DIM = 22_000, 21_800, 19_915, 16
BENCH_ITEMS, PLANTED = 664, 5
OUTPUTS = ("leakage_report.json", "decontam_plan.json", "dataset.cleaned.jsonl")


def write_corpus(path: Path, n: int) -> None:
    """Records that pass the default filter: ~150 chars, no blocked words."""
    langs = ["Python", "Java", "Go", "PHP", "JavaScript"]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            code = (f"def fn_{i}(x):\n"
                    f"    # variant {i} of the synthetic corpus\n"
                    f"    total = x * {i} + {i * i} - {i % 13}\n"
                    f"    return total + len(str(x)) * {i % 7}\n")
            fh.write(json.dumps({"id": f"c{i:05d}", "code": code,
                                 "language": langs[i % len(langs)]}) + "\n")


def write_bench(path: Path, dataset: Path, seed: int) -> None:
    """Synthetic items plus PLANTED copies of seeded dataset outputs, each
    inserted at a seeded position."""
    rng = random.Random(f"bench:{seed}")
    rows = [{"bench_id": f"B{j:04d}",
             "canonical_solution": (f"def canonical_{j}(values):\n    return "
                                    f"sum(v * {rng.randrange(997)} for v in values)"
                                    f" - {rng.randrange(10_000)}\n"),
             "benchmark": "synthetic"} for j in range(BENCH_ITEMS)]
    with open(dataset, encoding="utf-8") as fh:
        outputs = [json.loads(line)["output"] for line in fh]
    for j, i in enumerate(rng.sample(range(len(outputs)), PLANTED)):
        rows.insert(rng.randrange(len(rows) + 1),
                    {"bench_id": f"P{j:02d}", "canonical_solution": outputs[i],
                     "benchmark": "planted"})
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def build_inputs(directory: Path, seed: int) -> tuple[Path, Path]:
    from instructsmith.pipeline import PipelineConfig, run

    corpus = directory / "corpus.jsonl"
    write_corpus(corpus, CORPUS_RECORDS)
    config = PipelineConfig.from_dict({
        "corpus_path": str(corpus), "workdir": str(directory / "work"),
        "coreset": {"k": K, "seed": seed}, "target_accepted": TARGET,
        "embedding_backend": {"kind": "mock", "dim": DIM},
        "discrimination_backend": {"kind": "mock",
                                   "extra": {"role": "discrimination",
                                             "bad_modulus": 16}},
        "seed": 2024})
    run(config)
    bench = directory / "bench.jsonl"
    write_bench(bench, config.output_path, seed)
    return config.output_path, bench


def audit_once(dataset: str, bench: str, out_dir: str, traced: bool) -> None:
    """The child: one audit, then one JSON line with its peaks and seconds."""
    import resource
    import time
    import tracemalloc

    from instructsmith.pipeline import audit_and_plan

    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    audit_and_plan(dataset, bench, out_dir, top_k=3, n_per_item=3)
    result = {"seconds": time.perf_counter() - start,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if traced:
        result["traced_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    result["sha256"] = {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
                        for name in OUTPUTS}
    print(json.dumps(result))


def fresh_audit(dataset: Path, bench: Path, out_dir: Path, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(dataset), str(bench), str(out_dir),
         "1" if traced else "0"], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    sys.path.insert(0, str(SRC))
    if sys.argv[1:2] == ["--child"]:
        dataset, bench, out_dir, traced = sys.argv[2:]
        audit_once(dataset, bench, out_dir, traced == "1")
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=11, help="coreset and bench seed")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="audit-memory-") as tmp:
        directory = Path(tmp)
        dataset, bench = build_inputs(directory, args.seed)
        plain = fresh_audit(dataset, bench, directory / "plain", traced=False)
        traced = fresh_audit(dataset, bench, directory / "traced", traced=True)
    if plain["sha256"] != traced["sha256"]:
        sys.exit("the traced audit wrote different bytes")
    print(f"source:           {SRC}")
    print(f"peak RSS:         {plain['peak_rss_mib']:.1f} MiB")
    print(f"tracemalloc peak: {traced['traced_peak_mib']:.1f} MiB")
    print(f"untraced audit:   {plain['seconds']:.2f} s")
    for name, digest in plain["sha256"].items():
        print(f"sha256 {name}: {digest}")


if __name__ == "__main__":
    main()
