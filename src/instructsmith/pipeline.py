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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from itertools import islice
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterable, Sequence, TypedDict,
                    get_args, get_origin, get_type_hints, is_typeddict)

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
from .emitter import read_dataset, write_dataset
from .errors import (
    ConfigError,
    ConsistencyError,
    DiscriminationFailedError,
    GenerationFailedError,
)
from .exemplar_db import Exemplar, ExemplarDB, SamplingPolicy, make_entry
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
    validate_kind,
)

if TYPE_CHECKING:  # numpy loads at the first stage that computes on vectors
    import numpy as np

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


class RetryBudget(TypedDict, total=False):
    """Extra attempts per record after the first, per stage."""

    generation: int
    discrimination: int


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
    max_in_flight: int = field(default=1, metadata={"json": "concurrency"})
    retries: RetryBudget = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_accepted < 1:
            raise ConfigError("target_accepted must be >= 1")
        if self.max_in_flight < 1:
            raise ConfigError("concurrency.max_in_flight must be >= 1")
        self.retries = {"generation": 2, "discrimination": 2, **self.retries}
        for key, value in self.retries.items():
            if value < 0:
                raise ConfigError(f"retries.{key} must be >= 0")
        for kind in self.rulesets:
            _named("rulesets", lambda: validate_kind(kind))
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
        """Parse the JSON config object ``d``; relative paths resolve against
        ``base_dir`` (the config file's directory). Any key or value the
        schema does not allow raises `ConfigError` naming its dotted key."""
        config = _parse(cls, d, "", Path(base_dir))
        if "blacklist" not in d.get("filter", {}):
            config.filter = replace(config.filter, blacklist=default_blacklist())
        config.discrimination_backend.extra.setdefault("role", "discrimination")
        return config

    def to_dict(self) -> dict:
        """The config as its JSON object, less the backend fields that only
        say how a model is reached; the fingerprint hashes it."""
        return _unparse(self)

    def fingerprint(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


# -- config schema -------------------------------------------------------------
# The config dataclasses are the schema: a field's name is its JSON key (inside
# the object its "json" metadata names, if any), its annotation the type of
# the value, and its default what an absent key means. TypedDict fields are
# objects whose keys are all optional. Range checks live in each class's
# __post_init__, so a config built in code is checked the same way.

#: backend fields that change how a model is reached, not what a run makes
_UNFINGERPRINTED = ("api_key_env", "timeout", "retry")

_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", Path: "a path string", dict: "an object",
             list: "a list", tuple: "a list"}


@cache
def config_keys(cls) -> tuple[tuple[tuple[str, ...], str, object], ...]:
    """(JSON key path, field name, type) of each field of config class ``cls``."""
    hints = get_type_hints(cls)
    if is_typeddict(cls):
        return tuple(((name,), name, tp) for name, tp in hints.items())
    return tuple(((f.metadata["json"], f.name) if "json" in f.metadata
                  else (f.name,), f.name, hints[f.name]) for f in fields(cls))


def _named(key: str, make: Callable):
    """``make()``, with a check that fails in it re-raised as a `ConfigError`
    whose message leads with ``key``."""
    try:
        return make()
    except (ConfigError, ValueError) as exc:
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(key) else f"{key}.{msg}") from exc


def _parse(tp, value, key: str, base: Path):
    """``value``, found at dotted ``key`` of the config JSON, as type ``tp``."""
    args = get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _parse(args[0], value, key, base)
    if tp is MixPolicy:  # the JSON holds the raw weights
        weights = _parse(dict[str, float], value, key, base)
        return _named(key, lambda: MixPolicy.from_raw(weights))
    if is_dataclass(tp) or is_typeddict(tp):
        return _parse_object(tp, value, key, base)
    kind = get_origin(tp) or tp
    accepted = {float: (int, float), Path: str, tuple: list}.get(kind, kind)
    # bool is an int subclass, but true is neither an integer nor a number
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {_EXPECTED[kind]}, got {value!r}")
    if kind is dict:
        return {k: _parse(args[1], v, f"{key}.{k}", base) for k, v in value.items()}
    if kind in (list, tuple):
        return kind(_parse(args[0], v, f"{key}[{i}]", base)
                    for i, v in enumerate(value))
    if kind is Path:
        return Path(value) if Path(value).is_absolute() else base / value
    return float(value) if kind is float else value


def _parse_object(cls, value, key: str, base: Path):
    by_path = {path: (name, tp) for path, name, tp in config_keys(cls)}
    kwargs = {}

    def dotted(*path: str) -> str:
        return ".".join((key, *path) if key else path)

    def read(obj, at: tuple[str, ...]) -> None:
        if not isinstance(obj, dict):
            raise ConfigError(f"{dotted(*at) or 'config'} must be an object, "
                              f"got {obj!r}")
        for k, v in obj.items():
            path = (*at, k)
            if path in by_path:
                name, tp = by_path[path]
                kwargs[name] = _parse(tp, v, dotted(*path), base)
            elif any(p[:len(path)] == path for p in by_path):
                read(v, path)
            else:
                raise ConfigError(f"unknown config key {dotted(*path)!r}")

    read(value, ())
    if is_typeddict(cls):
        return kwargs
    for f in fields(cls):
        if (f.name not in kwargs and f.default is MISSING
                and f.default_factory is MISSING):
            raise ConfigError(f"config is missing required key {dotted(f.name)!r}")
    return _named(key, lambda: cls(**kwargs))


def _unparse(value):
    """``value`` as its JSON config, the inverse of `_parse`."""
    if isinstance(value, MixPolicy):
        return dict(value.weights)
    if is_dataclass(value):
        out: dict = {}
        for path, name, _ in config_keys(type(value)):
            if name not in _UNFINGERPRINTED:
                where = out.setdefault(path[0], {}) if len(path) > 1 else out
                where[path[-1]] = _unparse(getattr(value, name))
        return out
    if isinstance(value, dict):
        return {k: _unparse(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_unparse(v) for v in value]
    return str(value) if isinstance(value, Path) else value


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
    return [obj for _, obj in iter_jsonl(path)]


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
    rows = db.entries()
    seq_of = {row.source_record_id: row.created_seq for row in rows}
    processed = set(seq_of)
    processed.update(str(q["record_id"]) for q in quarantined)
    accepted = sum(1 for row in rows if row.label == "Good")
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
    cleaned = (ex for (tid, _), ex in zip(train, examples) if tid in kept_index)
    cleaned_summary = write_dataset(cleaned, out_dir / "dataset.cleaned.jsonl")
    return {
        "average_top1": report.average_top1,
        "removed": len(examples) - cleaned_summary["count"],
        "remaining": cleaned_summary["count"],
        "report_path": str(out_dir / "leakage_report.json"),
        "plan_path": str(out_dir / "decontam_plan.json"),
        "cleaned_path": str(out_dir / "dataset.cleaned.jsonl"),
    }
