"""End-to-end orchestration: filter, embed, select, assign, generate, emit.

Every stage writes its artifact to the work directory, after which an
atomic checkpoint records the stage and the config fingerprint, so an
interrupted run resumes from the last completed stage. Record-level
progress during generation is derived from the append-only exemplar and
quarantine files, never from the checkpoint, which makes the run safe to
kill at any point. A resumed run reads each stage already done from its
artifact, so an artifact patched by hand is what the next stage reads. The
stage subcommands of the CLI are `run` stopped after their stage.

A stage's modules load when the stage runs: importing this module, parsing
a config and building backends load none of ``coreset``, ``decontam``,
``discriminator``, ``emitter``, ``exemplar_db`` or ``generator``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
import queue
import time
from array import array
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypedDict

from .corpus import (
    FilterConfig,
    FilterReport,
    RawCodeRecord,
    apply_filters,
    ingest_records,
    write_records,
)
from .embedding import (
    METRICS,
    EmbeddingBackendConfig,
    embed_batch,
    read_embedding_cache,
    write_embedding_cache,
)
from .errors import ConfigError, ConsistencyError, UnparseableReplyError
from .ioutil import (
    JsonlAppender,
    atomic_open,
    atomic_write_json,
    atomic_write_text,
)
from .llm_backend import BackendConfig, make_chat_backend
from .schema import load, named, parse, read_file, read_rows, unparse
from .taskspec import (
    MixPolicy,
    SamplingPolicy,
    TASK_KINDS,
    TaskDefinition,
    assign_tasks,
    default_mix,
    load_task_definitions,
    mix_counts,
    validate_kind,
)

if TYPE_CHECKING:  # the stage modules load at the stage that needs them
    from .discriminator import RuleSet
    from .exemplar_db import Exemplar, ExemplarDB

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


def _on_first_call(module: str, name: str) -> Callable:
    """A stand-in for function ``name`` of ``module`` (relative to this
    package) that imports the module at its first call. It is an attribute
    of this module from import on, and callers look it up at call time, so
    replacing it (as tests and tracers do) works as for a plain import. The
    first call also puts the function in its place, unless the attribute
    was replaced meanwhile, so later calls go to the function directly."""
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module, __package__), name)
            if globals().get(name) is call:
                globals()[name] = target
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


kcenter_greedy = _on_first_call(".coreset", "kcenter_greedy")
generate_instance = _on_first_call(".generator", "generate_instance")
discriminate = _on_first_call(".discriminator", "discriminate")
write_dataset = _on_first_call(".emitter", "write_dataset")
audit = _on_first_call(".decontam", "audit")
plan_removal = _on_first_call(".decontam", "plan_removal")
apply_plan = _on_first_call(".decontam", "apply_plan")


@dataclass
class CoresetConfig:
    k: int
    seed: int = 0
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("coreset.k must be >= 1")
        if self.metric not in METRICS:
            raise ConfigError(f"coreset.metric must be one of {METRICS}")


@dataclass
class Concurrency:
    max_in_flight: int = 1


@dataclass
class Retries:
    """Extra attempts per record after the first, per stage."""

    generation: int = 2
    discrimination: int = 2


#: backend fields that change how a model is reached, not what a run makes
_UNFINGERPRINTED = ("api_key_env", "timeout", "retry")


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
    concurrency: Concurrency = field(default_factory=Concurrency)
    retries: Retries = field(default_factory=Retries)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_accepted < 1:
            raise ConfigError("target_accepted must be >= 1")
        if self.max_in_flight < 1:
            raise ConfigError("concurrency.max_in_flight must be >= 1")
        for key, value in vars(self.retries).items():
            if value < 0:
                raise ConfigError(f"retries.{key} must be >= 0")
        for kind in self.rulesets:
            named("rulesets", lambda: validate_kind(kind))
        if self.output_path is None:
            self.output_path = self.workdir / DATASET_FILE
        if self.exemplar_db is None:
            self.exemplar_db = self.workdir / EXEMPLARS_FILE

    @property
    def max_in_flight(self) -> int:
        return self.concurrency.max_in_flight

    @classmethod
    def from_dict(cls, d: dict, base_dir: str | Path = ".") -> "PipelineConfig":
        """Parse the JSON config object ``d``; relative paths resolve against
        ``base_dir`` (the config file's directory). Any key or value the
        schema does not allow raises `ConfigError` naming its dotted key."""
        config = parse(cls, d, "", Path(base_dir))
        config.discrimination_backend.extra.setdefault("role", "discrimination")
        return config

    def to_dict(self) -> dict:
        """The config as its JSON object, less the backend fields that only
        say how a model is reached; the fingerprint hashes it."""
        d = unparse(self)
        for backend in ("embedding_backend", "generation_backend",
                        "discrimination_backend"):
            for name in _UNFINGERPRINTED:
                del d[backend][name]
        return d

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return read_file(path, lambda obj: PipelineConfig.from_dict(obj, path.parent),
                     ConfigError)


@dataclass
class CheckpointState:
    """The last completed stage and the fingerprint of the config and task
    bundle that reached it (the seed is part of the fingerprint)."""

    stage: str
    config_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConsistencyError(
                f"stage must be one of {STAGES}, got {self.stage!r}")


@dataclass
class AssignmentFile:
    """The assign stage's artifact: each selected record's task kind."""

    seed: int
    assignment: dict[str, str]
    counts: dict[str, int]

    def __post_init__(self) -> None:
        for record_id, kind in self.assignment.items():
            if kind not in TASK_KINDS:
                raise ConsistencyError(f"assignment.{record_id} must be one of "
                                       f"{TASK_KINDS}, got {kind!r}")


class TaskShare(TypedDict):
    """One task kind's share of the emitted dataset."""

    count: int
    percent: float


@dataclass
class RunSummary:
    """Funnel accounting for one run; emitted == good by construction."""

    counts: dict[str, int]
    realized_mix: dict[str, TaskShare]
    stage_seconds: dict[str, float]
    dataset_path: str
    target_accepted: int


class QuarantineEntry(TypedDict):
    """A record whose conversation never parsed: a quarantine log line."""

    record_id: str
    task: str
    stage: str
    error: str
    attempts: int


def read_quarantine(path: Path) -> list[QuarantineEntry]:
    """The entries of quarantine log ``path``, none when it is absent; a
    torn last line is skipped, and the next append cuts it off."""
    if not path.exists():
        return []
    return [entry for _, entry in read_rows(
        QuarantineEntry, path, ConsistencyError, "bad quarantine entry",
        complete_only=True)]


def load_task_bundle(config: PipelineConfig
                     ) -> tuple[dict[str, TaskDefinition], dict[str, RuleSet]]:
    """The task definitions and each task kind's ruleset: the config's
    ``rulesets`` entry, else the task's ``rule_set``. A missing, empty or
    damaged one is a `ConfigError` whose message leads with its key."""
    from .discriminator import load_ruleset
    taskdefs = load_task_definitions(config.task_file)
    rulesets = {}
    for kind in TASK_KINDS:
        try:
            rulesets[kind] = load_ruleset(
                config.rulesets.get(kind, taskdefs[kind].rule_set_id))
        except ConfigError as exc:
            raise ConfigError(f"rulesets.{kind}: {exc}") from exc
    return taskdefs, rulesets


def _require_artifact(path: Path, stage: str) -> Path:
    if not path.exists():
        raise ConsistencyError(
            f"checkpoint says stage {stage!r} is done but {path} is missing")
    return path


class _Settled:
    """A call made at once, with the two members of a ``Future`` that the
    window loop reads and none of its locks. An ``Exception`` is kept for
    ``result`` to raise, as a pool's future keeps it; any other
    ``BaseException`` (for example ``KeyboardInterrupt``) propagates."""

    __slots__ = ("_value", "_error")

    def __init__(self, fn, args):
        self._value = self._error = None
        try:
            self._value = fn(*args)
        except Exception as exc:
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def add_done_callback(self, fn) -> None:
        fn(self)


class _InlineExecutor(Executor):
    """The executor of a window one record wide: each call runs on the
    calling thread, where a pool thread would only add a handoff per record."""

    def submit(self, fn, /, *args) -> _Settled:
        return _Settled(fn, args)


def generate_exemplars(config: PipelineConfig, records: Sequence[RawCodeRecord],
                       assignment: dict[str, str], db: ExemplarDB,
                       quarantined: list[QuarantineEntry],
                       taskdefs: dict[str, TaskDefinition],
                       rulesets: dict[str, RuleSet], generation_backend,
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

    ``taskdefs`` and ``rulesets`` are the task bundle (`load_task_bundle`).
    Records already in ``db`` or in ``quarantined`` are skipped, so a killed
    run resumes from its logs. Judged instances go into ``db``; records whose
    conversation stays unparseable are appended to the quarantine log and
    to ``quarantined``.
    """
    rows = db.entries()
    seq_of = {row.source_record_id: row.created_seq for row in rows}
    processed = set(seq_of)
    processed.update(q["record_id"] for q in quarantined)
    accepted = sum(1 for row in rows if row.label == "Good")
    from .exemplar_db import make_entry

    def process_one(record: RawCodeRecord, before_seq: int):
        kind = assignment[record.id]
        try:
            instance = generate_instance(
                record, taskdefs[kind], db, generation_backend,
                retries=config.retries.generation,
                sampling_policy=config.sampling, seed=config.seed,
                before_seq=before_seq)
            report = discriminate(
                instance, rulesets[kind], discrimination_backend,
                retries=config.retries.discrimination)
        except UnparseableReplyError as exc:
            return ("quarantined", {"record_id": record.id, "task": kind,
                                    "stage": exc.stage, "error": str(exc),
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
    results: dict[int, Future | _Settled] = {}
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


def emit_dataset(rows: Iterable[Exemplar], target: int | None,
                 output_path: str | Path) -> dict:
    """Emit stage: the training examples of the first ``target`` Good rows
    (all when None) become the training dataset; returns its summary."""
    goods = (row.example for row in rows if row.label == "Good")
    return write_dataset(islice(goods, target), output_path)


def run(config: PipelineConfig, *, resume: bool = False,
        generation_backend=None, discrimination_backend=None,
        after_record: Callable[[str, str], None] | None = None,
        stop_after: str | None = None) -> RunSummary | None:
    """Execute the pipeline; see module docstring for the stage list.

    ``resume`` continues a checkpointed run in the same workdir instead of
    refusing to touch it. Injected backends override the configured ones
    (tests use this to wrap or script them). ``after_record`` is invoked as
    ``after_record(record_id, outcome)`` once each record's outcome is
    durably committed; outcomes are "good", "bad", and "quarantined".
    ``stop_after`` names a stage before "done": the run stops once that
    stage is done, run or read back, and returns None; a later resume
    continues it. A stage subcommand of the CLI is
    ``run(config, resume=True, stop_after=stage)``.
    """
    if stop_after not in (None, *STAGES[:-1]):
        raise ConfigError(f"stop_after must be None or one of {STAGES[:-1]}")
    t_start = time.perf_counter()
    taskdefs, rulesets = load_task_bundle(config)  # before any stage writes
    workdir = config.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = workdir / CHECKPOINT_FILE
    # of the config and the task bundle as parsed: an edited prompt or rule
    # changes it, a re-indented file does not
    fingerprint = hashlib.sha256(json.dumps(
        [config.fingerprint(), unparse(taskdefs), unparse(rulesets)],
        sort_keys=True).encode("utf-8")).hexdigest()[:16]
    state = (load(CheckpointState, checkpoint_path, ConsistencyError)
             if checkpoint_path.exists() else None)
    if state is not None and not resume:
        raise ConfigError(
            f"{workdir} holds a checkpointed run (stage {state.stage}); "
            f"resume it or use a fresh workdir")
    if state is not None and state.config_fingerprint != fingerprint:
        raise ConsistencyError(
            "checkpoint was written by a different config; refusing to resume")
    done_index = STAGES.index(state.stage) if state is not None else -1
    stage_seconds: dict[str, float] = {}

    def done(stage: str) -> bool:
        return done_index >= STAGES.index(stage)

    def checkpoint(stage: str) -> None:
        atomic_write_json(checkpoint_path,
                          unparse(CheckpointState(stage, fingerprint)))

    @contextmanager
    def timed(name: str):
        t0 = time.perf_counter()
        yield
        stage_seconds[name] = time.perf_counter() - t0

    with timed("filter"):
        if done("filtered"):
            kept = ingest_records(_require_artifact(workdir / FILTERED_FILE,
                                                    "filtered"))
            filter_report = load(
                FilterReport,
                _require_artifact(workdir / FILTER_REPORT_FILE, "filtered"),
                ConsistencyError)
        else:
            kept, filter_report = apply_filters(
                ingest_records(config.corpus_path), config.filter)
            write_records(kept, workdir / FILTERED_FILE)
            atomic_write_json(workdir / FILTER_REPORT_FILE,
                              unparse(filter_report))
            if not kept:
                raise ConsistencyError("no records survive filtering")
            checkpoint("filtered")
    log.info("filter: kept %d of %d records", filter_report.kept_count,
             filter_report.input_count)
    if stop_after == "filtered":
        return None

    with timed("embed"):
        ids = [r.id for r in kept]
        cache_path = workdir / EMBEDDINGS_FILE
        if done("embedded"):
            cached_ids, vectors = read_embedding_cache(
                _require_artifact(cache_path, "embedded"))
            if cached_ids != ids:
                raise ConsistencyError(
                    f"{cache_path} does not match the filtered corpus")
        else:
            vectors = embed_batch([r.code for r in kept],
                                  config.embedding_backend)
            write_embedding_cache(cache_path, ids, vectors)
            checkpoint("embedded")
    if stop_after == "embedded":
        return None

    with timed("select"):
        path = workdir / SELECTION_FILE
        if done("selected"):
            from .coreset import SelectionFile
            selected_ids = load(SelectionFile, _require_artifact(path, "selected"),
                                ConsistencyError).selected_ids
            if len(set(selected_ids).intersection(ids)) != len(selected_ids):
                raise ConsistencyError(f"{path}: selected_ids must be distinct "
                                       f"ids of filtered records")
        else:
            from .coreset import write_selection
            coreset = config.coreset
            selection = kcenter_greedy(vectors, coreset.k, seed=coreset.seed,
                                       metric=coreset.metric)
            write_selection(path, selection, ids)
            selected_ids = [ids[i] for i in selection.selected_indices]
            checkpoint("selected")
    log.info("select: %d of %d records chosen", len(selected_ids), len(kept))
    if stop_after == "selected":
        return None

    with timed("assign"):
        path = workdir / ASSIGNMENTS_FILE
        if done("assigned"):
            assignment = load(AssignmentFile, _require_artifact(path, "assigned"),
                              ConsistencyError).assignment
            if assignment.keys() != set(selected_ids):
                raise ConsistencyError(f"{path} does not match the selection")
        else:
            assignment = assign_tasks(selected_ids, config.mix, seed=config.seed)
            atomic_write_json(path, unparse(AssignmentFile(
                config.seed, assignment, mix_counts(assignment))))
            checkpoint("assigned")
    if stop_after == "assigned":
        return None

    from .exemplar_db import ExemplarDB
    db = ExemplarDB.load(config.exemplar_db)
    try:
        quarantined = read_quarantine(workdir / QUARANTINE_FILE)
        with timed("generate"):
            if not done("done"):
                records_by_id = {r.id: r for r in kept}
                generate_exemplars(
                    config, [records_by_id[rid] for rid in selected_ids],
                    assignment, db, quarantined, taskdefs, rulesets,
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

    labels = [row.label for row in db.entries()]
    good_count, bad_count = labels.count("Good"), labels.count("Bad")
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
        stage_seconds={k: round(v, 3) for k, v in stage_seconds.items()},
        dataset_path=str(config.output_path),
        target_accepted=config.target_accepted,
    )
    atomic_write_json(workdir / SUMMARY_FILE, unparse(summary))
    checkpoint("done")
    log.info("run complete in %.1fs: %s", time.perf_counter() - t_start,
             summary.counts)
    return summary


def _train_pair(i: int, example, embed_field: str) -> tuple[str, str]:
    train_id = (f"{i}:{example.source_record_id}" if example.source_record_id
                else str(i))
    if embed_field == "output":
        return train_id, example.output
    return train_id, example.instruction + "\n" + example.output


def audit_dataset(train_path: str | Path, bench_path: str | Path,
                  backend: EmbeddingBackendConfig, top_k: int, embed_field: str,
                  digest=None):
    """Audit a dataset file against a benchmark file, the front half of the
    `audit` and `decontaminate` commands. Each dataset line is decoded and
    checked once, as it is streamed into a unique-id (id, text) pair;
    ``embed_field`` picks the text: the "output" (code) field or
    "instruction+output". ``digest`` is fed every byte read. Returns
    ``(pairs, line number of each pair, report)``."""
    if embed_field not in ("output", "instruction+output"):
        raise ConfigError("embed_field must be 'output' or 'instruction+output'")
    from .decontam import read_benchmark_file
    from .emitter import iter_dataset
    train, lines = [], array("q")  # 8 bytes a line number, not an int object
    for lineno, example in iter_dataset(train_path, digest):
        train.append(_train_pair(len(train), example, embed_field))
        lines.append(lineno)
    bench = read_benchmark_file(bench_path)
    return train, lines, audit(train, bench, backend, top_k=top_k)


def audit_and_plan(train_path: str | Path, bench_path: str | Path,
                   out_dir: str | Path,
                   backend: EmbeddingBackendConfig | None = None,
                   top_k: int = 3, n_per_item: int = 3,
                   *, embed_field: str = "output") -> dict:
    """Decontamination driver: audit a dataset file against a benchmark file,
    write the report, histogram CSV, plan, and the cleaned dataset.

    The dataset is streamed twice, never held as examples. The first read
    decodes and checks each line once, for the pairs the audit embeds. The
    second copies the lines of the rows the plan keeps, byte for byte, with
    no JSON decode or encode (blank lines are dropped). If the two reads'
    sha256 differ, the file changed in between: a `ConsistencyError` stops
    the copy and no cleaned file is written.
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
    from .decontam import write_histogram_csv, write_leakage_report
    backend = backend or EmbeddingBackendConfig()
    audited, copied = hashlib.sha256(), hashlib.sha256()
    train, lines, report = audit_dataset(train_path, bench_path, backend, top_k,
                                         embed_field, audited)
    write_leakage_report(out_dir / "leakage_report.json", report)
    write_histogram_csv(out_dir / "leakage_histogram.csv", report)
    plan = plan_removal(report, n_per_item=n_per_item)
    atomic_write_text(out_dir / "decontam_plan.json", plan.to_json())
    kept_ids = {tid for tid, _ in apply_plan(plan, train)}
    keep = {line for line, (tid, _) in zip(lines, train) if tid in kept_ids}
    with open(train_path, "rb") as src, \
            atomic_open(out_dir / "dataset.cleaned.jsonl") as out:
        for lineno, raw in enumerate(src, start=1):
            copied.update(raw)
            if lineno in keep:
                out.write(raw)
        if copied.digest() != audited.digest():
            raise ConsistencyError(f"{train_path}: changed during the audit")
    return {
        "average_top1": report.average_top1,
        "removed": len(train) - len(keep),
        "remaining": len(keep),
        "report_path": str(out_dir / "leakage_report.json"),
        "plan_path": str(out_dir / "decontam_plan.json"),
        "cleaned_path": str(out_dir / "dataset.cleaned.jsonl"),
    }
