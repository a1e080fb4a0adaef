"""
The full pipeline, end to end, with a checkpointed resume
=========================================================

Runs filter -> embed -> select -> assign -> generate/discriminate -> emit
over a synthetic corpus using the hermetic mock backends, prints the run
summary, then shows that a second invocation resumes instead of redoing
finished work.
"""

import json
import tempfile
from pathlib import Path

from instructsmith import PipelineConfig, run
from instructsmith.emitter import read_dataset
from instructsmith.exemplar_db import ExemplarDB

workdir = Path(tempfile.mkdtemp(prefix="demo-pipeline-"))
corpus_path = workdir / "corpus.jsonl"
with open(corpus_path, "w", encoding="utf-8") as fh:
    for i in range(120):
        code = (f"def transform_{i}(data):\n"
                f"    window = data[{i} % 5:][:{i % 9 + 2}]\n"
                f"    return [x + {i} for x in window]\n")
        fh.write(json.dumps({"id": f"rec-{i:03d}", "code": code,
                             "language": "Python" if i % 3 else "Go"}) + "\n")

# The same dict shape works from a JSON config file via the CLI:
#   python3 -m instructsmith run --config config.json
config = PipelineConfig.from_dict({
    "corpus_path": str(corpus_path),
    "workdir": str(workdir / "run"),
    "coreset": {"k": 90, "seed": 2},
    "target_accepted": 60,
    "embedding_backend": {"kind": "mock", "dim": 16},
    "discrimination_backend": {"kind": "mock",
                               "extra": {"role": "discrimination",
                                         "bad_modulus": 6}},
    "seed": 11,
})

summary = run(config)
print("counts:", summary.counts)
print("realized mix:")
for kind, entry in summary.realized_mix.items():
    print(f"  {kind:>18}: {entry['count']:3d}  ({entry['percent']:.2f}%)")

dataset = read_dataset(config.output_path)
first = dataset[0]
print(f"\nfirst training example ({first.task_kind}, "
      f"from {first.source_record_id}):")
print(f"  instruction: {first.instruction[:70]}...")
print(f"  output starts: {first.output.splitlines()[0]}")

# Every judged instance — kept or rejected — lands in the exemplar store.
db = ExemplarDB.load(config.exemplar_db)
by_label = {}
for entry in db.entries():
    by_label[entry.label] = by_label.get(entry.label, 0) + 1
db.close()
print(f"\nexemplar store: {by_label}")

# The workdir holds a checkpoint, so rerunning with resume=True finds the
# run already at its final stage and just reports the same summary.
again = run(config, resume=True)
print(f"resume redoes nothing: emitted {again.counts['emitted']} "
      f"(generate stage took {again.stage_seconds['generate']:.3f}s)")
