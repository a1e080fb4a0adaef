#!/usr/bin/env python3
"""What reading one row costs, per row class (not a pytest module).

    python tests/reader_cost.py [--seed 1] [--rows 20000] [--repeats 5]

Builds the ``paper-serial`` benchmark inputs for the seed (see
``perfbench/workloads.py``) in a temp dir and runs the pipeline on them once,
untraced. Its files give the rows: corpus records, ``dataset.jsonl`` rows,
benchmark items (with HumanEval's extra keys added) and ``exemplars.jsonl``
lines. For each class the script writes a file of ``--rows`` rows, cycling
over the run's rows (with fresh ids where the reader refuses repeats), reads
it ``--repeats`` times with the program's reader of that file, and prints
the best time per row in µs:

- ``json``: ``json.loads`` of the line alone;
- ``read``: the whole read: ``ingest_records``, ``iter_dataset``,
  ``read_benchmark_file`` or ``ExemplarDB.read``, which decode each line and
  parse it into its row.

The program is imported from the ``src`` directory of the checkout this
script sits in, so running the script from two checkouts compares them.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HUMANEVAL_KEYS = {"prompt": "def f(x):\n", "test": "assert f(1) == 1\n",
                  "entry_point": "f"}


def workload_rows(directory: Path, seed: int) -> dict[str, list[dict]]:
    """Each row class's JSON objects, from one paper-serial run."""
    import workloads
    from instructsmith import pipeline

    inputs = workloads.make_inputs("paper-serial", seed, directory / "inputs")
    config = pipeline.PipelineConfig.from_dict(workloads.config_dict(
        "paper-serial", seed, inputs.corpus, directory / "work"))
    pipeline.run(config)
    workloads.plant_copies(inputs, config.output_path, seed)

    def objects(path: Path) -> list[dict]:
        return [json.loads(line) for line in path.read_bytes().splitlines()]

    return {"corpus record": objects(inputs.corpus),
            "dataset row": objects(config.output_path),
            "bench item": [{**item, **HUMANEVAL_KEYS}
                           for item in objects(inputs.bench)],
            "exemplar log line": objects(config.exemplar_db)}


def fresh(name: str, obj: dict, n: int) -> dict:
    """Row ``n`` of the file, made from ``obj``: ids the reader keeps apart."""
    if name == "corpus record":
        return {**obj, "id": f"{obj['id']}-{n}"}
    if name == "exemplar log line":
        return {**obj, "entry_id": f"{obj['entry_id']}-{n}", "created_seq": n}
    return obj


def file_readers() -> dict:
    from instructsmith.corpus import ingest_records
    from instructsmith.decontam import read_benchmark_file
    from instructsmith.emitter import iter_dataset
    from instructsmith.exemplar_db import ExemplarDB

    return {"corpus record": ingest_records,
            "dataset row": lambda path: list(iter_dataset(path)),
            "bench item": read_benchmark_file,
            "exemplar log line": ExemplarDB.read}


def best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    readers = file_readers()

    print(f"source: {ROOT / 'src'}")
    print(f"best of {args.repeats} reads of {args.rows} rows (µs a row)")
    print(f"  {'row class':<18} {'json':>7} {'read':>7}")
    with tempfile.TemporaryDirectory(prefix="reader-cost-") as tmp:
        for name, objs in workload_rows(Path(tmp), args.seed).items():
            cycled = itertools.islice(itertools.cycle(objs), args.rows)
            lines = [json.dumps(fresh(name, obj, n), ensure_ascii=False)
                     for n, obj in enumerate(cycled)]
            path = Path(tmp) / "rows.jsonl"
            path.write_text("".join(line + "\n" for line in lines),
                            encoding="utf-8")
            decode = best_seconds(lambda: [json.loads(line) for line in lines],
                                  args.repeats)
            read = best_seconds(lambda: readers[name](path), args.repeats)
            print(f"  {name:<18} {decode / args.rows * 1e6:>7.2f} "
                  f"{read / args.rows * 1e6:>7.2f}")


if __name__ == "__main__":
    main()
