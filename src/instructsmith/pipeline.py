"""End-to-end orchestration: filter, embed, select, assign, generate, emit.

Every stage writes its artifact to the work directory, after which an
atomic checkpoint records the stage and the config fingerprint, so an
interrupted run resumes from the last completed stage. Record-level
progress during generation is derived from the append-only exemplar and
quarantine files, never from the checkpoint, which makes the run safe to
kill at any point. The stage functions are shared with the stage
subcommands of the CLI.
"""

from __future__ import annotations

import hashlib
import json
import logging
import queue
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import (
    FilterConfig,
    FilterReport,
    RawCodeRecord,
    apply_filters,
    default_blacklist,
    ingest_records,
    write_records,
)
from .coreset import (
    METRICS,
    CoresetSelection,
    kcenter_greedy,
    read_selection,
    stratified_kcenter_greedy,
    write_selection,
)
from .decontam import (
    apply_plan,
    audit,
    plan_removal,
    read_benchmark_file,
    write_histogram_csv,
    write_leakage_report,
)
from .discriminator import RuleSet, discriminate, load_ruleset
from .embedding import (
    EmbeddingBackendConfig,
    embed_batch,
    read_embedding_cache,
    write_embedding_cache,
)
from .emitter import read_dataset, to_training_example, write_dataset
from .errors import (
    ConfigError,
    ConsistencyError,
    DiscriminationFailedError,
    GenerationFailedError,
)
from .exemplar_db import ExemplarDB, ExemplarEntry, SamplingPolicy, make_entry
from .generator import generate_instance
from .ioutil import (
    JsonlAppender,
    atomic_write_json,
    iter_jsonl,
    read_json,
    repair_torn_tail,
)
from .llm_backend import BackendConfig, make_chat_backend
from .taskspec import (
    MixPolicy,
    TASK_KINDS,
    assign_tasks,
    default_mix,
    load_task_definitions,
    mix_counts,
)

log = logging.getLogger(__name__)

STAGES = ("filtered", "embedded", "selected", "assigned", "generating", "done")

FILTERED_FILE = "filtered.jsonl"
FILTER_REPORT_FILE = "filter_report.json"
EMBEDDINGS_FILE = "embeddings.npy"
SELECTION_FILE = "selection.json"
ASSIGNMENTS_FILE = "assignments.json"
EXEMPLARS_FILE = "exemplars.jsonl"
QUARANTINE_FILE = "quarantine.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
SUMMARY_FILE = "summary.json"
DATASET_FILE = "dataset.jsonl"


@dataclass
class CoresetConfig:
    k: int
    seed: int = 0
    metric: str = "euclidean"
    stratify_by_language: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("coreset.k must be >= 1")
        if self.metric not in METRICS:
            raise ConfigError(f"coreset.metric must be one of {METRICS}")

    def to_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "metric": self.metric,
                "stratify_by_language": self.stratify_by_language}


@dataclass
class PipelineConfig:
    """Everything one run needs; mirrors the on-disk JSON config."""

    corpus_path: Path
    workdir: Path
    coreset: CoresetConfig
    target_accepted: int
    output_path: Path | None = None
    filter: FilterConfig = field(default_factory=FilterConfig)
    embedding_backend: EmbeddingBackendConfig = field(
        default_factory=EmbeddingBackendConfig)
    mix: MixPolicy = field(default_factory=default_mix)
    task_file: Path | None = None
    rulesets: dict[str, str] = field(default_factory=dict)
    generation_backend: BackendConfig = field(
        default_factory=lambda: BackendConfig(kind="mock"))
    discrimination_backend: BackendConfig = field(
        default_factory=lambda: BackendConfig(
            kind="mock", extra={"role": "discrimination"}))
    exemplar_db: Path | None = None
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy)
    max_in_flight: int = 1
    retries: dict[str, int] = field(
        default_factory=lambda: {"generation": 2, "discrimination": 2})
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_accepted < 1:
            raise ConfigError("target_accepted must be >= 1")
        if self.max_in_flight < 1:
            raise ConfigError("concurrency.max_in_flight must be >= 1")
        for key in ("generation", "discrimination"):
            if self.retries.get(key, 0) < 0:
                raise ConfigError(f"retries.{key} must be >= 0")
        self.corpus_path = Path(self.corpus_path)
        self.workdir = Path(self.workdir)
        if self.output_path is None:
            self.output_path = self.workdir / DATASET_FILE
        self.output_path = Path(self.output_path)
        if self.exemplar_db is None:
            self.exemplar_db = self.workdir / EXEMPLARS_FILE
        self.exemplar_db = Path(self.exemplar_db)
        if self.task_file is not None:
            self.task_file = Path(self.task_file)

    @classmethod
    def from_dict(cls, d: dict, base_dir: str | Path = ".") -> "PipelineConfig":
        """Build a config from parsed JSON; relative paths resolve against
        ``base_dir`` (the config file's directory)."""
        base = Path(base_dir)

        def path_of(key):
            value = d.get(key)
            if value is None:
                return None
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a path string, got {value!r}")
            p = Path(value)
            return p if p.is_absolute() else base / p

        def number(convert, value, key):
            try:
                return convert(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key} must be a number, got {value!r}") from exc

        def section(key, default=None):
            value = d.get(key, default or {})
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object")
            return value

        d = dict(d)
        known = {
            "corpus_path", "workdir", "output_path", "filter",
            "embedding_backend", "coreset", "mix", "task_file", "rulesets",
            "generation_backend", "discrimination_backend", "exemplar_db",
            "sampling", "target_accepted", "concurrency", "retries", "seed",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for req in ("corpus_path", "workdir", "coreset", "target_accepted"):
            if req not in d:
                raise ConfigError(f"config is missing required key {req!r}")

        filter_d = dict(section("filter"))
        blacklist = filter_d.setdefault("blacklist", default_blacklist())
        if (not isinstance(blacklist, list)
                or not all(isinstance(word, str) for word in blacklist)):
            raise ConfigError(
                f"filter.blacklist must be a list of strings, got {blacklist!r}")
        try:
            filter_config = FilterConfig(**filter_d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad filter config: {exc}") from exc

        for key, names in (("coreset", ("k", "seed")),
                           ("embedding_backend", ("batch_size", "dim",
                                                  "max_in_flight"))):
            for name in names:
                value = section(key).get(name, 1)
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(
                        f"{key}.{name} must be an integer, got {value!r}")

        try:
            coreset = CoresetConfig(**d["coreset"])
        except TypeError as exc:
            raise ConfigError(f"bad coreset config: {exc}") from exc

        mix = default_mix() if "mix" not in d else MixPolicy.from_raw(
            {str(k): number(float, v, f"mix.{k}")
             for k, v in section("mix").items()})

        try:
            sampling = SamplingPolicy(**d.get("sampling", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sampling config: {exc}") from exc

        gen_backend = BackendConfig.from_dict(
            section("generation_backend", {"kind": "mock"}), "generation_backend")
        disc_backend = BackendConfig.from_dict(
            section("discrimination_backend", {"kind": "mock"}),
            "discrimination_backend")
        disc_backend.extra.setdefault("role", "discrimination")

        retries = {"generation": 2, "discrimination": 2}
        retries.update({str(k): number(int, v, f"retries.{k}")
                        for k, v in section("retries").items()})

        try:
            embedding_backend = EmbeddingBackendConfig.from_dict(
                section("embedding_backend", {"kind": "mock"}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad embedding_backend config: {exc}") from exc

        return cls(
            corpus_path=path_of("corpus_path"),
            workdir=path_of("workdir"),
            output_path=path_of("output_path"),
            filter=filter_config,
            embedding_backend=embedding_backend,
            coreset=coreset,
            mix=mix,
            task_file=path_of("task_file"),
            rulesets={str(k): str(v) for k, v in section("rulesets").items()},
            generation_backend=gen_backend,
            discrimination_backend=disc_backend,
            exemplar_db=path_of("exemplar_db"),
            sampling=sampling,
            target_accepted=number(int, d["target_accepted"], "target_accepted"),
            max_in_flight=number(int, section("concurrency").get("max_in_flight", 1),
                                 "concurrency.max_in_flight"),
            retries=retries,
            seed=number(int, d.get("seed", 0), "seed"),
        )

    def to_dict(self) -> dict:
        return {
            "corpus_path": str(self.corpus_path),
            "workdir": str(self.workdir),
            "output_path": str(self.output_path),
            "filter": {
                "min_code_chars": self.filter.min_code_chars,
                "max_code_chars": self.filter.max_code_chars,
                "blacklist": list(self.filter.blacklist),
                "match_scope": self.filter.match_scope,
            },
            "embedding_backend": {
                "kind": self.embedding_backend.kind,
                "endpoint": self.embedding_backend.endpoint,
                "model_name": self.embedding_backend.model_name,
                "dim": self.embedding_backend.dim,
                "batch_size": self.embedding_backend.batch_size,
                "max_in_flight": self.embedding_backend.max_in_flight,
            },
            "coreset": self.coreset.to_dict(),
            "mix": dict(self.mix.weights),
            "task_file": str(self.task_file) if self.task_file else None,
            "rulesets": dict(self.rulesets),
            "generation_backend": {
                "kind": self.generation_backend.kind,
                "endpoint": self.generation_backend.endpoint,
                "model_name": self.generation_backend.model_name,
                "extra": dict(self.generation_backend.extra),
            },
            "discrimination_backend": {
                "kind": self.discrimination_backend.kind,
                "endpoint": self.discrimination_backend.endpoint,
                "model_name": self.discrimination_backend.model_name,
                "extra": dict(self.discrimination_backend.extra),
            },
            "exemplar_db": str(self.exemplar_db),
            "sampling": {
                "n_good": self.sampling.n_good,
                "n_bad": self.sampling.n_bad,
                "same_task_only": self.sampling.same_task_only,
            },
            "target_accepted": self.target_accepted,
            "concurrency": {"max_in_flight": self.max_in_flight},
            "retries": dict(self.retries),
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = read_json(path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return PipelineConfig.from_dict(obj, base_dir=path.parent)


@dataclass
class CheckpointState:
    """The last completed stage and the fingerprint of the config that
    reached it (the seed is part of the fingerprint)."""

    stage: str
    config_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConsistencyError(f"unknown stage {self.stage!r}")

    @property
    def stage_index(self) -> int:
        return STAGES.index(self.stage)

    def to_dict(self) -> dict:
        return {"stage": self.stage, "config_fingerprint": self.config_fingerprint}

    @classmethod
    def from_dict(cls, d: dict) -> "CheckpointState":
        return cls(stage=str(d["stage"]),
                   config_fingerprint=str(d.get("config_fingerprint", "")))


@dataclass
class RunSummary:
    """Funnel accounting for one run; emitted == good by construction."""

    counts: dict[str, int]
    realized_mix: dict[str, dict]
    stage_seconds: dict[str, float]
    dataset_path: str
    target_accepted: int

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "realized_mix": {k: dict(v) for k, v in self.realized_mix.items()},
            "stage_seconds": {k: round(v, 3)
                              for k, v in self.stage_seconds.items()},
            "dataset_path": self.dataset_path,
            "target_accepted": self.target_accepted,
        }


def _quarantine_entries(path: Path) -> list[dict]:
    repair_torn_tail(path)
    if not path.exists():
        return []
    return [obj for _, obj in iter_jsonl(path, tolerate_torn_tail=True)]


def _require_artifact(path: Path, stage: str) -> Path:
    if not path.exists():
        raise ConsistencyError(
            f"checkpoint says stage {stage!r} is done but {path} is missing")
    return path


# -- stages ------------------------------------------------------------------
# Each stage computes its artifact and writes it; `run` and the stage
# subcommands of the CLI both call these.


def filter_corpus(corpus_path: str | Path, filter_config: FilterConfig,
                  output_path: str | Path, report_path: str | Path | None = None
                  ) -> tuple[list[RawCodeRecord], FilterReport]:
    """Filter stage: write the corpus records that pass ``filter_config``,
    and the filter report when ``report_path`` is given."""
    kept, report = apply_filters(ingest_records(corpus_path), filter_config)
    write_records(kept, output_path)
    if report_path is not None:
        atomic_write_json(report_path, report.to_dict())
    return kept, report


def embed_records(records: Sequence[RawCodeRecord],
                  backend: EmbeddingBackendConfig,
                  cache_path: str | Path) -> np.ndarray:
    """Embed stage: embed each record's code into an (n, d) float32 matrix,
    written to the cache file by record id."""
    vectors = embed_batch([r.code for r in records], backend)
    write_embedding_cache(cache_path, [r.id for r in records], vectors)
    return vectors


def select_coreset(vectors: np.ndarray, ids: Sequence[str],
                   languages: Sequence[str] | None, coreset: CoresetConfig,
                   output_path: str | Path) -> CoresetSelection:
    """Select stage: greedy k-center over ``vectors``, per language when
    ``coreset.stratify_by_language``; the selection is written by id."""
    if coreset.stratify_by_language:
        selection = stratified_kcenter_greedy(vectors, languages, coreset.k,
                                              seed=coreset.seed,
                                              metric=coreset.metric)
    else:
        selection = kcenter_greedy(vectors, coreset.k, seed=coreset.seed,
                                   metric=coreset.metric)
    write_selection(output_path, selection, ids)
    return selection


def assign_selected(selected_ids: Sequence[str], mix: MixPolicy, seed: int,
                    output_path: str | Path) -> dict[str, str]:
    """Assign stage: apportion task kinds over the selected records."""
    assignment = assign_tasks(selected_ids, mix, seed=seed)
    atomic_write_json(output_path, {
        "seed": seed,
        "assignment": assignment,
        "counts": mix_counts(assignment),
    })
    return assignment


class _InlineExecutor(Executor):
    """Runs each submitted call on the calling thread and returns its future
    already completed: the executor of a window one record wide, where a pool
    thread would only add a handoff per record. An ``Exception`` is stored in
    the future, as a pool does; any other ``BaseException`` (for example
    ``KeyboardInterrupt``) propagates at once."""

    def submit(self, fn, /, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def generate_exemplars(config: PipelineConfig, records: Sequence[RawCodeRecord],
                       assignment: dict[str, str], db: ExemplarDB,
                       quarantined: list[dict], generation_backend,
                       discrimination_backend,
                       after_record: Callable[[str, str], None] | None = None
                       ) -> None:
    """Generate stage: draft and judge ``records`` in order until the store
    holds ``config.target_accepted`` Good instances.

    Records run on ``config.max_in_flight`` threads in a sliding window and
    commit in position order; at ``max_in_flight`` 1 each record runs on the
    calling thread, with no pool. The record at position p starts on a free
    thread once every position up to p - lag - 1 is committed, and samples
    its exemplars only from the entries of those positions and the entries
    that predate the run. The output therefore depends on the corpus and
    the config alone, not on thread timing or on where an earlier run was
    killed.

    Records already in ``db`` or in ``quarantined`` are skipped, so a killed
    run resumes from its logs. Judged instances go into ``db``; records whose
    conversation stays unparseable are appended to the quarantine log and
    to ``quarantined``.
    """
    entries = db.entries()
    seq_of = {e.instance.source_record_id: e.created_seq for e in entries}
    processed = set(seq_of)
    processed.update(str(q["record_id"]) for q in quarantined)
    accepted = sum(1 for e in entries if e.label == "Good")
    if all(r.id in processed for r in records):
        return
    taskdefs = load_task_definitions(config.task_file)
    rulesets: dict[str, RuleSet] = {
        kind: load_ruleset(config.rulesets.get(kind, taskdefs[kind].rule_set_id))
        for kind in TASK_KINDS}

    def process_one(record: RawCodeRecord, before_seq: int):
        kind = assignment[record.id]
        try:
            instance = generate_instance(
                record, taskdefs[kind], db, generation_backend,
                retries=config.retries["generation"],
                sampling_policy=config.sampling, seed=config.seed,
                before_seq=before_seq)
        except GenerationFailedError as exc:
            return ("quarantined", {"record_id": record.id, "task": kind,
                                    "stage": "generation", "error": str(exc),
                                    "attempts": exc.attempts})
        try:
            report = discriminate(
                instance, rulesets[kind], discrimination_backend,
                retries=config.retries["discrimination"])
        except DiscriminationFailedError as exc:
            return ("quarantined", {"record_id": record.id, "task": kind,
                                    "stage": "discrimination",
                                    "error": str(exc),
                                    "attempts": exc.attempts})
        return ("entry", make_entry(instance, report))

    width = config.max_in_flight
    # A slow record at the commit head stops new starts once the window is
    # full. With a lag of 2(W - 1) each of the other W - 1 threads can
    # finish a record and start one more while the head runs. Simulated
    # over 318 records of two lognormal 20 ms-median calls each (median of
    # 20 seeds), against waves of W records that each wait for their
    # slowest, a lag of W - 1 cut the makespan by only 9 % at W = 2
    # (8.77 -> 7.96 s), while 2(W - 1) came within 1.5 % of the bound with
    # no ordering at all: 8.77 -> 7.31 s (bound 7.28) at W = 2 and
    # 5.15 -> 3.70 s (bound 3.65) at W = 4. W = 1 gives a lag of 0: each
    # record sees every earlier one, as a serial run does.
    lag = 2 * (width - 1)
    # visible[p]: the created_seq bound once every position below p is
    # committed; record p samples below visible[max(p - lag, 0)]. Entries
    # from before the run (of no record in ``records``) are always visible.
    run_ids = {r.id for r in records}
    visible = [1 + max((seq for rid, seq in seq_of.items()
                        if rid not in run_ids), default=-1)]
    finished: queue.SimpleQueue = queue.SimpleQueue()
    results: dict[int, Future] = {}
    running = head = nxt = 0
    with JsonlAppender(config.workdir / QUARANTINE_FILE) as qlog, \
            (_InlineExecutor() if width == 1
             else ThreadPoolExecutor(max_workers=width)) as pool:
        while head < len(records) and accepted < config.target_accepted:
            record = records[head]
            if record.id in processed:  # committed by an earlier run
                visible.append(max(visible[head], seq_of.get(record.id, -1) + 1))
                head += 1
                continue
            while nxt < len(records) and nxt <= head + lag and running < width:
                if records[nxt].id not in processed:
                    future = pool.submit(process_one, records[nxt],
                                         visible[max(nxt - lag, 0)])
                    future.add_done_callback(
                        lambda f, p=nxt: finished.put((p, f)))
                    running += 1
                nxt += 1
            if head not in results:
                p, future = finished.get()
                results[p] = future
                running -= 1
                continue
            kind_of_outcome, payload = results.pop(head).result()
            seq = -1
            if kind_of_outcome == "quarantined":
                qlog.append(payload)
                quarantined.append(payload)
                outcome = "quarantined"
                log.warning("record %s: quarantined at %s", record.id,
                            payload["stage"])
            else:
                seq = db.insert(payload).created_seq
                outcome = "good" if payload.label == "Good" else "bad"
                if payload.label == "Good":
                    accepted += 1
                log.info("record %s: %s (%d/%d accepted)", record.id,
                         outcome, accepted, config.target_accepted)
            visible.append(max(visible[head], seq + 1))
            head += 1
            if after_record is not None:
                after_record(record.id, outcome)


def emit_dataset(entries: Iterable[ExemplarEntry], target: int | None,
                 output_path: str | Path) -> dict:
    """Emit stage: the first ``target`` Good entries (all when None) become
    the training dataset; returns its summary."""
    goods = [e for e in entries if e.label == "Good"][:target]
    return write_dataset([to_training_example(e.instance) for e in goods],
                         output_path)


def run(config: PipelineConfig, *, resume: bool = False,
        generation_backend=None, discrimination_backend=None,
        after_record: Callable[[str, str], None] | None = None,
        stop_after: str | None = None) -> RunSummary | None:
    """Execute the full pipeline; see module docstring for the stage list.

    ``resume`` continues a checkpointed run in the same workdir instead of
    refusing to touch it. Injected backends override the configured ones
    (tests use this to wrap or script them). ``after_record`` is invoked as
    ``after_record(record_id, outcome)`` once each record's outcome is
    durably committed; outcomes are "good", "bad", and "quarantined".
    ``stop_after="generating"`` skips emission (the stage CLI uses it) and
    returns None; a later resume finishes the run.
    """
    if stop_after not in (None, "generating"):
        raise ConfigError("stop_after must be None or 'generating'")
    t_start = time.perf_counter()
    workdir = config.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = workdir / CHECKPOINT_FILE
    fingerprint = config.fingerprint()
    state = (CheckpointState.from_dict(read_json(checkpoint_path))
             if checkpoint_path.exists() else None)
    if state is not None and not resume:
        raise ConfigError(
            f"{workdir} holds a checkpointed run (stage {state.stage}); "
            f"resume it or use a fresh workdir")
    if state is not None and state.config_fingerprint != fingerprint:
        raise ConsistencyError(
            "checkpoint was written by a different config; refusing to resume")
    done_index = state.stage_index if state is not None else -1
    stage_seconds: dict[str, float] = {}

    def done(stage: str) -> bool:
        return done_index >= STAGES.index(stage)

    def checkpoint(stage: str) -> None:
        atomic_write_json(checkpoint_path,
                          CheckpointState(stage, fingerprint).to_dict())

    @contextmanager
    def timed(name: str):
        t0 = time.perf_counter()
        yield
        stage_seconds[name] = time.perf_counter() - t0

    with timed("filter"):
        if done("filtered"):
            kept = ingest_records(_require_artifact(workdir / FILTERED_FILE,
                                                    "filtered"))
            filter_report = FilterReport(**read_json(
                _require_artifact(workdir / FILTER_REPORT_FILE, "filtered")))
        else:
            kept, filter_report = filter_corpus(
                config.corpus_path, config.filter, workdir / FILTERED_FILE,
                workdir / FILTER_REPORT_FILE)
            if not kept:
                raise ConsistencyError("no records survive filtering")
            checkpoint("filtered")
    log.info("filter: kept %d of %d records", filter_report.kept_count,
             filter_report.input_count)

    with timed("embed"):
        cache_path = workdir / EMBEDDINGS_FILE
        if done("embedded"):
            ids, vectors = read_embedding_cache(
                _require_artifact(cache_path, "embedded"))
            if ids != [r.id for r in kept]:
                raise ConsistencyError(
                    f"{cache_path} does not match the filtered corpus")
        else:
            vectors = embed_records(kept, config.embedding_backend, cache_path)
            checkpoint("embedded")

    with timed("select"):
        path = workdir / SELECTION_FILE
        if done("selected"):
            selected_ids = read_selection(
                _require_artifact(path, "selected")).selected_ids
        else:
            selection = select_coreset(vectors, [r.id for r in kept],
                                       [r.language for r in kept],
                                       config.coreset, path)
            selected_ids = [kept[i].id for i in selection.selected_indices]
            checkpoint("selected")
    log.info("select: %d of %d records chosen", len(selected_ids), len(kept))

    with timed("assign"):
        path = workdir / ASSIGNMENTS_FILE
        if done("assigned"):
            obj = read_json(_require_artifact(path, "assigned"))
            assignment = {str(k): str(v) for k, v in obj["assignment"].items()}
        else:
            assignment = assign_selected(selected_ids, config.mix, config.seed,
                                         path)
            checkpoint("assigned")

    db = ExemplarDB.load(config.exemplar_db)
    try:
        quarantined = _quarantine_entries(workdir / QUARANTINE_FILE)
        with timed("generate"):
            if not done("done"):
                records_by_id = {r.id: r for r in kept}
                generate_exemplars(
                    config, [records_by_id[rid] for rid in selected_ids],
                    assignment, db, quarantined,
                    generation_backend or make_chat_backend(
                        config.generation_backend),
                    discrimination_backend or make_chat_backend(
                        config.discrimination_backend),
                    after_record)
                checkpoint("generating")
        if stop_after == "generating":
            return None

        with timed("emit"):
            dataset_summary = emit_dataset(db.entries(), config.target_accepted,
                                           config.output_path)
    finally:
        db.close()

    good_count = sum(1 for e in db.entries() if e.label == "Good")
    bad_count = sum(1 for e in db.entries() if e.label == "Bad")
    emitted = dataset_summary["count"]
    realized_mix = {}
    for kind in TASK_KINDS:
        count = dataset_summary["per_task_counts"][kind]
        realized_mix[kind] = {
            "count": count,
            "percent": round(100.0 * count / emitted, 2) if emitted else 0.0,
        }
    summary = RunSummary(
        counts={
            "ingested": filter_report.input_count,
            "filtered_kept": filter_report.kept_count,
            "selected": len(selected_ids),
            # generated counts records whose processing completed, whatever
            # the outcome; work discarded at the stop boundary is unprocessed
            "generated": good_count + bad_count + len(quarantined),
            "good": good_count,
            "bad": bad_count,
            "quarantined": len(quarantined),
            "emitted": emitted,
        },
        realized_mix=realized_mix,
        stage_seconds=stage_seconds,
        dataset_path=str(config.output_path),
        target_accepted=config.target_accepted,
    )
    atomic_write_json(workdir / SUMMARY_FILE, summary.to_dict())
    checkpoint("done")
    log.info("run complete in %.1fs: %s", time.perf_counter() - t_start,
             summary.counts)
    return summary


def dataset_as_train_pairs(examples, embed_field: str = "output"
                           ) -> list[tuple[str, str]]:
    """Unique-id (id, text) pairs for auditing a dataset file.

    ``embed_field`` picks what gets embedded: the "output" (code) field or
    "instruction+output".
    """
    if embed_field not in ("output", "instruction+output"):
        raise ConfigError("embed_field must be 'output' or 'instruction+output'")

    def text_of(ex):
        if embed_field == "output":
            return ex.output
        return ex.instruction + "\n" + ex.output

    return [(f"{i}:{ex.source_record_id}" if ex.source_record_id else str(i),
             text_of(ex)) for i, ex in enumerate(examples)]


def audit_and_plan(train_path: str | Path, bench_path: str | Path,
                   out_dir: str | Path,
                   backend: EmbeddingBackendConfig | None = None,
                   top_k: int = 3, n_per_item: int = 3,
                   *, embed_field: str = "output") -> dict:
    """Decontamination driver: audit a dataset file against a benchmark file,
    write the report, histogram CSV, plan, and the cleaned dataset.
    """
    # checked before anything is read, embedded or written
    if top_k < 1:
        raise ConfigError("top_k must be >= 1")
    if n_per_item < 1:
        raise ConfigError("n_per_item must be >= 1")
    if n_per_item > top_k:
        # the plan reads only each item's top_k neighbours
        raise ConfigError(f"n_per_item ({n_per_item}) must be <= top_k ({top_k})")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    backend = backend or EmbeddingBackendConfig()
    examples = read_dataset(train_path)
    train = dataset_as_train_pairs(examples, embed_field)
    bench = read_benchmark_file(bench_path)
    report = audit(train, bench, backend, top_k=top_k)
    write_leakage_report(out_dir / "leakage_report.json", report)
    write_histogram_csv(out_dir / "leakage_histogram.csv", report)
    plan = plan_removal(report, n_per_item=n_per_item)
    atomic_write_json(out_dir / "decontam_plan.json", plan.to_dict())
    kept_pairs = apply_plan(plan, train)
    kept_index = {tid for tid, _ in kept_pairs}
    cleaned = [ex for (tid, _), ex in zip(train, examples) if tid in kept_index]
    cleaned_summary = write_dataset(cleaned, out_dir / "dataset.cleaned.jsonl")
    return {
        "average_top1": report.average_top1,
        "removed": len(examples) - len(cleaned),
        "remaining": cleaned_summary["count"],
        "report_path": str(out_dir / "leakage_report.json"),
        "plan_path": str(out_dir / "decontam_plan.json"),
        "cleaned_path": str(out_dir / "dataset.cleaned.jsonl"),
    }
