"""Command-line interface: one subcommand per pipeline stage plus `run`.

Every stage reads and writes the same files the orchestrated run uses, so
any prefix of the pipeline can be reproduced or patched by hand. A stage's
settings come only from the ``--config`` it is given, as `run` reads them;
flags name files, never a config value. Exit codes:
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
from .corpus import FilterConfig, ingest_records, write_records
from .embedding import EmbeddingBackendConfig, read_embedding_cache
from .errors import ConfigError, ConsistencyError, InstructSmithError
from .schema import load, unparse
from .taskspec import LABELS, TASK_KINDS, mix_counts

log = logging.getLogger(__name__)


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


def cmd_filter(args) -> int:
    _, report = pipeline.filter_corpus(
        args.input, _setting(args, "filter", FilterConfig), args.output,
        args.report)
    _print(unparse(report))
    return 0


def cmd_embed(args) -> int:
    backend = _embedding_config(args)
    records = ingest_records(args.input)
    if not records:
        raise ConfigError(f"{args.input}: no records to embed")
    vectors = pipeline.embed_records(records, backend, args.output)
    _print({"embedded": len(vectors), "dim": vectors.shape[1],
            "model": backend.model_name, "output": str(args.output)})
    return 0


def cmd_select(args) -> int:
    coreset = pipeline.load_pipeline_config(args.config).coreset
    try:
        ids, vectors = read_embedding_cache(args.embeddings)
    except ConsistencyError as exc:  # a bad input file, as for --bench
        raise ConfigError(str(exc)) from exc
    if not ids:
        raise ConfigError(f"{args.embeddings}: empty embedding cache")
    selection = pipeline.select_coreset(vectors, ids, coreset, args.output)
    _print({"selected": len(selection.selected_indices),
            "final_radius": selection.radius_trace[-1],
            "output": str(args.output)})
    return 0


def cmd_assign(args) -> int:
    config = pipeline.load_pipeline_config(args.config)
    from .coreset import SelectionFile
    selection = load(SelectionFile, Path(args.selection), ConsistencyError)
    assignment = pipeline.assign_selected(selection.selected_ids, config.mix,
                                          config.seed, args.output)
    _print({"assigned": len(assignment), "counts": mix_counts(assignment),
            "output": str(args.output)})
    return 0


def cmd_generate(args) -> int:
    config = pipeline.load_pipeline_config(args.config)
    pipeline.run(config, resume=args.resume, stop_after="generating")
    stats = _exemplar_counts(config.exemplar_db)
    _print({"exemplars": sum(stats.values()), "by_task_and_label": stats,
            "db": str(config.exemplar_db)})
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

    p = sub.add_parser("filter", help="apply length and blacklist filters")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--report", help="also write the filter report JSON here")
    p.add_argument("--config", help="pipeline config supplying the filter "
                                     "settings (default: the shipped defaults)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("embed", help="embed record code into a binary .npy "
                                     "cache of (id, float32 vector) rows")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", help="pipeline config supplying the backend")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("select", help="pick a diverse coreset from embeddings")
    p.add_argument("--embeddings", required=True,
                   help=".npy cache written by the embed stage")
    p.add_argument("--output", required=True)
    p.add_argument("--config", required=True,
                   help="pipeline config supplying k, seed and metric")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("assign", help="assign task kinds to selected records")
    p.add_argument("--selection", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config", required=True,
                   help="pipeline config supplying the mix and seed")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("generate",
                       help="run the generate/discriminate loop (no emission)")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("emit", help="write the dataset from judged exemplars")
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
        if hasattr(args, "resume"):
            resume = shlex.join(["instructsmith", args.command, "--config",
                                 args.config, "--resume"])
            hint = f"; `{resume}` continues it"
        print(f"interrupted{hint}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
