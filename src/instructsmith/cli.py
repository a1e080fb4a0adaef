"""Command-line interface: one subcommand per pipeline stage plus `run`.

A stage command is `run` stopped after its stage in the config's workdir:
it continues the workdir's checkpoint, runs the stages not yet done up to
its own and stops, so any prefix of the pipeline can be run, and an
artifact patched in the workdir between two commands is what the next
stage reads. Settings come only from ``--config``. Exit codes:
0 success, 1 operational failure, 2 usage or configuration error, 130
interrupted (Ctrl-C).

A stage's modules load when the stage runs, as in `pipeline`: ``--help``,
``stats`` and a config error load none of the coreset or decontamination
modules, and only ``stats`` of an unfinished run loads the exemplar log's
reader.
"""

from __future__ import annotations

import argparse
import json
import logging
import shlex
import sys
from collections import Counter
from pathlib import Path

from . import pipeline
from .corpus import ingest_records, write_records
from .embedding import EmbeddingBackendConfig
from .errors import ConfigError, ConsistencyError, InstructSmithError
from .schema import load, unparse
from .taskspec import LABELS, TASK_KINDS

log = logging.getLogger(__name__)

#: stage command -> (the stage `run` stops after, its help)
STAGE_COMMANDS = {
    "filter": ("filtered", "apply length and blacklist filters"),
    "embed": ("embedded", "embed record code into a binary .npy cache of "
                          "(id, float32 vector) rows"),
    "select": ("selected", "pick a diverse coreset from the embeddings"),
    "assign": ("assigned", "assign task kinds to the selected records"),
    "generate": ("generating", "run the generate/discriminate loop"),
}


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _setting(args, key: str, default):
    """Config key ``key`` of the ``--config`` given, else ``default()``."""
    if args.config is None:
        return default()
    return getattr(pipeline.load_pipeline_config(args.config), key)


def _embedding_config(args) -> EmbeddingBackendConfig:
    return _setting(args, "embedding_backend", EmbeddingBackendConfig)


def _exemplar_counts(path: Path) -> dict[str, int]:
    """"kind/label" entry counts of exemplar log ``path``, zero-filled, read
    as a resume reads it; a torn last line is skipped, not cut off."""
    from .exemplar_db import ExemplarDB
    counts = Counter((row.task_kind, row.label)
                     for row in ExemplarDB.read(path).entries())
    return {f"{kind}/{label}": counts[kind, label]
            for kind in sorted(TASK_KINDS) for label in sorted(LABELS)}


def cmd_ingest(args) -> int:
    records = ingest_records(args.input)
    count = write_records(records, args.output)
    _print({"records": count, "output": str(args.output)})
    return 0


def _checkpoint(workdir: Path) -> dict:
    """The checkpoint of ``workdir`` as its JSON object."""
    return unparse(load(pipeline.CheckpointState,
                        workdir / pipeline.CHECKPOINT_FILE, ConsistencyError))


def cmd_stage(args) -> int:
    config = pipeline.load_pipeline_config(args.config)
    pipeline.run(config, resume=True, stop_after=args.stage)
    _print(_checkpoint(config.workdir))
    return 0


def cmd_emit(args) -> int:
    from .exemplar_db import ExemplarDB
    target = _setting(args, "target_accepted", lambda: None)
    rows = ExemplarDB.read(args.exemplars).entries()
    _print(pipeline.emit_dataset(rows, target, args.output))
    return 0


def cmd_audit(args) -> int:
    from .decontam import write_histogram_csv, write_leakage_report
    *_, report = pipeline.audit_dataset(args.train, args.bench,
                                        _embedding_config(args), args.top_k,
                                        args.embed_field)
    write_leakage_report(args.report, report)
    write_histogram_csv(Path(args.report).with_suffix(".csv"), report)
    _print({"average_top1": report.average_top1,
            "bench_items": len(report.per_item),
            "report": str(args.report)})
    return 0


def cmd_decontaminate(args) -> int:
    backend = _embedding_config(args)
    result = pipeline.audit_and_plan(args.train, args.bench, args.out_dir,
                                     backend, top_k=args.top_k,
                                     n_per_item=args.n,
                                     embed_field=args.embed_field)
    _print(result)
    return 0


def cmd_stats(args) -> int:
    workdir = Path(args.workdir)
    summary_path = workdir / pipeline.SUMMARY_FILE
    if summary_path.exists():
        _print(unparse(load(pipeline.RunSummary, summary_path, ConsistencyError)))
        return 0
    db_path = workdir / pipeline.EXEMPLARS_FILE
    if db_path.exists():
        quarantine = pipeline.read_quarantine(workdir / pipeline.QUARANTINE_FILE)
        _print({"exemplars": _exemplar_counts(db_path),
                "quarantined": len(quarantine)})
        return 0
    dataset = workdir / pipeline.DATASET_FILE
    if dataset.exists():
        from .emitter import iter_dataset
        per_task = Counter(ex.task_kind for _, ex in iter_dataset(dataset))
        _print({"dataset_examples": sum(per_task.values()),
                "per_task": dict(per_task)})
        return 0
    if (workdir / pipeline.CHECKPOINT_FILE).exists():
        _print(_checkpoint(workdir))
        return 0
    print(f"no run artifacts found under {workdir}", file=sys.stderr)
    return 1


def cmd_run(args) -> int:
    config = pipeline.load_pipeline_config(args.config)
    summary = pipeline.run(config, resume=args.resume)
    _print(unparse(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instructsmith",
        description="Synthesize code instruction-tuning data: filter a raw "
                    "corpus, select a diverse coreset, generate and judge "
                    "instances with LLM backends, and emit an Alpaca-style "
                    "dataset.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize a corpus file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    for command, (stage, help) in STAGE_COMMANDS.items():
        p = sub.add_parser(command, help=f"{help} (`run` stopped after "
                                          f"this stage)")
        p.add_argument("--config", required=True)
        p.set_defaults(func=cmd_stage, stage=stage)

    p = sub.add_parser("emit", help="export the dataset of an exemplar log, "
                                    "which it only reads")
    p.add_argument("--exemplars", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", help="pipeline config whose target_accepted "
                                     "caps the examples (default: all)")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("audit", help="nearest-neighbor leakage report")
    p.add_argument("--train", required=True, help="dataset file to audit")
    p.add_argument("--bench", required=True, help="benchmark JSONL file")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--report", default="leakage_report.json")
    p.add_argument("--embed-field", default="output",
                   choices=["output", "instruction+output"])
    p.add_argument("--config", help="pipeline config supplying the backend")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("decontaminate",
                       help="audit, plan removal, and write a cleaned dataset")
    p.add_argument("--train", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--n", type=int, default=3,
                   help="neighbors removed per benchmark item")
    p.add_argument("--embed-field", default="output",
                   choices=["output", "instruction+output"])
    p.add_argument("--config", help="pipeline config supplying the backend")
    p.set_defaults(func=cmd_decontaminate)

    p = sub.add_parser("stats", help="show run statistics from a workdir")
    p.add_argument("--workdir", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="execute the full pipeline end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InstructSmithError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # the work so far is on disk; a resumable command picks it up
        hint = ""
        if args.command in ("run", *STAGE_COMMANDS):
            resume = ["instructsmith", args.command, "--config", args.config]
            if args.command == "run":
                resume.append("--resume")
            hint = f"; `{shlex.join(resume)}` continues it"
        print(f"interrupted{hint}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
