"""Command-line interface: one subcommand per pipeline stage plus `run`.

Every stage reads and writes the same files the orchestrated run uses, so
any prefix of the pipeline can be reproduced or patched by hand. Exit codes:
0 success, 1 operational failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline
from .corpus import FilterConfig, default_blacklist, ingest_records, write_records
from .coreset import METRICS, read_selection
from .decontam import (
    audit,
    read_benchmark_file,
    write_histogram_csv,
    write_leakage_report,
)
from .embedding import EmbeddingBackendConfig, read_embedding_cache
from .emitter import read_dataset
from .errors import ConfigError, ConsistencyError, InstructSmithError
from .exemplar_db import ExemplarDB
from .ioutil import read_json
from .taskspec import default_mix, mix_counts

log = logging.getLogger(__name__)


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _load_config(args) -> pipeline.PipelineConfig | None:
    if getattr(args, "config", None) is None:
        return None
    return pipeline.load_pipeline_config(args.config)


def _embedding_config(args) -> EmbeddingBackendConfig:
    config = _load_config(args)
    return config.embedding_backend if config else EmbeddingBackendConfig()


def cmd_ingest(args) -> int:
    records = ingest_records(args.input)
    count = write_records(records, args.output)
    _print({"records": count, "output": str(args.output)})
    return 0


def cmd_filter(args) -> int:
    config = _load_config(args)
    if config is not None:
        filter_config = config.filter
    else:
        kwargs = {"blacklist": default_blacklist()}
        if args.min_code_chars is not None:
            kwargs["min_code_chars"] = args.min_code_chars
        if args.max_code_chars is not None:
            kwargs["max_code_chars"] = args.max_code_chars
        try:
            filter_config = FilterConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    _, report = pipeline.filter_corpus(args.input, filter_config, args.output,
                                       args.report)
    _print(report.to_dict())
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
    coreset = pipeline.CoresetConfig(k=args.k, seed=args.seed, metric=args.metric,
                                     stratify_by_language=args.stratify_by_language)
    if coreset.stratify_by_language and not args.records:
        raise ConfigError("--stratify-by-language needs --records")
    try:
        ids, vectors = read_embedding_cache(args.embeddings)
    except ConsistencyError as exc:  # a bad input file, as for --bench
        raise ConfigError(str(exc)) from exc
    if not ids:
        raise ConfigError(f"{args.embeddings}: empty embedding cache")
    languages = None
    if coreset.stratify_by_language:
        language_of = {r.id: r.language for r in ingest_records(args.records)}
        languages = [language_of.get(rid, "") for rid in ids]
    selection = pipeline.select_coreset(vectors, ids, languages, coreset,
                                        args.output)
    _print({"selected": len(selection.selected_indices),
            "final_radius": selection.radius_trace[-1],
            "output": str(args.output)})
    return 0


def cmd_assign(args) -> int:
    config = _load_config(args)
    mix = config.mix if config else default_mix()
    selection = read_selection(args.selection)
    assignment = pipeline.assign_selected(selection.selected_ids, mix,
                                          args.seed, args.output)
    _print({"assigned": len(assignment), "counts": mix_counts(assignment),
            "output": str(args.output)})
    return 0


def cmd_generate(args) -> int:
    config = pipeline.load_pipeline_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    pipeline.run(config, resume=args.resume, stop_after="generating")
    db = ExemplarDB.load(config.exemplar_db)
    stats = {f"{kind}/{label}": count
             for (kind, label), count in sorted(db.stats().items())}
    _print({"exemplars": len(db), "by_task_and_label": stats,
            "db": str(config.exemplar_db)})
    db.close()
    return 0


def cmd_emit(args) -> int:
    path = Path(args.exemplars)
    if not path.is_file():
        # loading would create the log as an empty file
        raise FileNotFoundError(f"{path}: no such exemplar log")
    db = ExemplarDB.load(path)
    summary = pipeline.emit_dataset(db.entries(), args.target, args.output)
    db.close()
    _print(summary)
    return 0


def cmd_audit(args) -> int:
    backend = _embedding_config(args)
    examples = read_dataset(args.train)
    train = pipeline.dataset_as_train_pairs(examples, args.embed_field)
    bench = read_benchmark_file(args.bench)
    report = audit(train, bench, backend, top_k=args.top_k)
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
        _print(read_json(summary_path))
        return 0
    db_path = workdir / pipeline.EXEMPLARS_FILE
    if db_path.exists():
        db = ExemplarDB.load(db_path)
        stats = {f"{kind}/{label}": count
                 for (kind, label), count in sorted(db.stats().items())}
        db.close()
        quarantine = workdir / pipeline.QUARANTINE_FILE
        quarantined = (len(quarantine.read_text().splitlines())
                       if quarantine.exists() else 0)
        _print({"exemplars": stats, "quarantined": quarantined})
        return 0
    dataset = workdir / pipeline.DATASET_FILE
    if dataset.exists():
        examples = read_dataset(dataset)
        per_task: dict[str, int] = {}
        for ex in examples:
            per_task[ex.task_kind] = per_task.get(ex.task_kind, 0) + 1
        _print({"dataset_examples": len(examples), "per_task": per_task})
        return 0
    print(f"no run artifacts found under {workdir}", file=sys.stderr)
    return 1


def cmd_run(args) -> int:
    config = pipeline.load_pipeline_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    summary = pipeline.run(config, resume=args.resume)
    _print(summary.to_dict())
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
    p.add_argument("--config", help="pipeline config supplying filter settings")
    p.add_argument("--min-code-chars", type=int)
    p.add_argument("--max-code-chars", type=int)
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
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", default="euclidean", choices=METRICS)
    p.add_argument("--stratify-by-language", action="store_true")
    p.add_argument("--records", help="corpus file with languages (stratified)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("assign", help="assign task kinds to selected records")
    p.add_argument("--selection", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="pipeline config supplying the mix")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("generate",
                       help="run the generate/discriminate loop (no emission)")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("emit", help="write the dataset from judged exemplars")
    p.add_argument("--exemplars", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--target", type=int,
                   help="cap on accepted examples (default: all)")
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
    p.add_argument("--seed", type=int)
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


if __name__ == "__main__":
    sys.exit(main())
