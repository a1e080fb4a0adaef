#!/usr/bin/env python3
"""Where a decontamination audit's time goes, part by part (not a pytest module).

    python tests/audit_cost.py [--seed 1] [--repeats 15]

Builds the ``paper-serial`` benchmark inputs for the seed (see
``perfbench/workloads.py``: 2,000 records, 1,810 accepted, 1,000 decoy
benchmark items plus 5 planted copies of dataset rows) in a temp dir, runs the
pipeline on them once, untraced, and then runs ``audit_and_plan`` on its
dataset ``--repeats`` times after one warm-up call. Each call's wall time is
cut into its parts at the calls the audit makes, wrapped at the names it
looks up:

- first-pass read: from the start to the benchmark read (the dataset's rows
  read and checked, and the (id, text) pairs built);
- bench read: ``decontam.read_benchmark_file``;
- embed: ``decontam.embed_batch`` (training texts and benchmark solutions);
- scan: the rest of ``decontam.audit`` (similarity blocks, top-k, neighbours);
- report: from the end of the scan to the plan (``leakage_report.json`` and
  the histogram CSV);
- plan: from ``plan_removal`` to the end of ``apply_plan`` (with
  ``decontam_plan.json``);
- cleaned write: from there to the end (``dataset.cleaned.jsonl``).

Prints the median milliseconds of each part and of the whole call. Every
call must write the same files as the first. The program is imported from
the ``src`` directory of the checkout this script sits in, so running the
script from two checkouts compares them.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("first-pass read", "bench read", "embed", "scan", "report", "plan",
         "cleaned write")
OUTPUTS = ("leakage_report.json", "leakage_histogram.csv", "decontam_plan.json",
           "dataset.cleaned.jsonl")


def paper_serial_inputs(directory: Path, seed: int) -> tuple[Path, Path]:
    """The dataset and benchmark file of one paper-serial repetition."""
    import workloads
    from instructsmith import pipeline

    inputs = workloads.make_inputs("paper-serial", seed, directory / "inputs")
    config = pipeline.PipelineConfig.from_dict(workloads.config_dict(
        "paper-serial", seed, inputs.corpus, directory / "work"))
    pipeline.run(config)
    workloads.plant_copies(inputs, config.output_path, seed)
    return config.output_path, inputs.bench


def stamp_calls(marks: list) -> None:
    """Wrap the audit's named calls so that each appends (name, start, end)."""
    from instructsmith import decontam, pipeline

    def wrap(module, name):
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append((name, start, time.perf_counter()))
        setattr(module, name, timed)

    for module, name in ((decontam, "read_benchmark_file"), (decontam, "embed_batch"),
                         (pipeline, "audit"), (pipeline, "plan_removal"),
                         (pipeline, "apply_plan")):
        wrap(module, name)


def parts_of(marks: list, start: float, end: float) -> dict:
    """Each part's seconds in one call, from its marks."""
    first = {name: (s, e) for name, s, e in reversed(marks)}
    embed = sum(e - s for name, s, e in marks if name == "embed_batch")
    bench, audit = first["read_benchmark_file"], first["audit"]
    plan, applied = first["plan_removal"], first["apply_plan"]
    return {"first-pass read": bench[0] - start,
            "bench read": bench[1] - bench[0],
            "embed": embed,
            "scan": audit[1] - audit[0] - embed,
            "report": plan[0] - audit[1],
            "plan": applied[1] - plan[0],
            "cleaned write": end - applied[1]}


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed audits after the warm-up")
    args = parser.parse_args()
    from instructsmith.pipeline import audit_and_plan

    with tempfile.TemporaryDirectory(prefix="audit-cost-") as tmp:
        directory = Path(tmp)
        dataset, bench = paper_serial_inputs(directory, args.seed)
        marks: list = []
        stamp_calls(marks)
        seconds = {part: [] for part in (*PARTS, "total")}
        expected = None
        for r in range(args.repeats + 1):
            out_dir = directory / f"audit{r}"
            marks.clear()
            gc.collect()
            start = time.perf_counter()
            audit_and_plan(dataset, bench, out_dir, top_k=3, n_per_item=3)
            end = time.perf_counter()
            written = [(out_dir / name).read_bytes() for name in OUTPUTS]
            if expected is None:
                expected = written
                continue  # the warm-up call pays one-time imports and caches
            if written != expected:
                sys.exit(f"audit {r} wrote different files")
            for part, s in parts_of(marks, start, end).items():
                seconds[part].append(s)
            seconds["total"].append(end - start)
    print(f"source: {ROOT / 'src'}")
    print(f"audits timed: {args.repeats} (median ms)")
    for part, values in seconds.items():
        print(f"  {part:<16} {statistics.median(values) * 1e3:8.2f}")


if __name__ == "__main__":
    main()
