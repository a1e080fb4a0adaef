"""Store of judged instances, sampled back into prompts as few-shot examples.

Entries append to a line-delimited JSON file as they are inserted; an
in-memory index of slim rows is rebuilt on load. Good and Bad cases are both
kept: a bad exemplar (with the reasons it failed) teaches the generator what
to avoid.
"""

from __future__ import annotations

import logging
import random
import sys
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _json_str
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .emitter import TrainingExample, to_training_example
from .errors import ConsistencyError
from .generator import InstructionInstance, render_exemplar
from .ioutil import JsonlAppender, encode_json
from .schema import read_rows
from .taskspec import LABELS, SamplingPolicy, validate_kind

if TYPE_CHECKING:  # a load builds no report: the judge's module stays unloaded
    from .discriminator import DiscriminationReport

log = logging.getLogger(__name__)

_SEQ = attrgetter("created_seq")


@dataclass(slots=True)
class LoggedVerdict:
    rule_id: str
    answer: str
    reason: str


@dataclass(slots=True)
class LoggedReport:
    verdicts: list[LoggedVerdict] = field(default_factory=list)
    overall_reasons: str = ""


@dataclass
class LogLine:
    """The keys of an entry's log line that its row is built from: what a
    load reads, so it builds no entry, report or verdict."""

    entry_id: str
    instance: InstructionInstance
    report: LoggedReport
    label: str
    task_kind: str
    created_seq: int = -1

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}")
        # the row's training example takes its kind from the instance
        if self.instance.task_kind != validate_kind(self.task_kind):
            raise ValueError("instance.task_kind must equal task_kind")


@dataclass
class ExemplarEntry(LogLine):
    """One judged instance with its analysis and insertion sequence number."""

    report: DiscriminationReport

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.label != self.report.label:
            raise ValueError(
                f"entry label {self.label} disagrees with report label "
                f"{self.report.label}")

    def to_json(self) -> str:
        """The entry's log line, written field by field without building
        dicts: the text ``json.dumps(..., ensure_ascii=False)`` gives for
        the entry's fields in this order, with the instance's and the
        report's fields (one object per verdict) nested in theirs."""
        inst, report = self.instance, self.report
        verdicts = ", ".join([
            f'{{"rule_id": {_json_str(v.rule_id)}, "answer": '
            f'{_json_str(v.answer)}, "reason": {_json_str(v.reason)}}}'
            for v in report.verdicts])
        return (
            f'{{"entry_id": {_json_str(self.entry_id)}, "instance": '
            f'{{"task_name": {_json_str(inst.task_name)}, '
            f'"instruction": {_json_str(inst.instruction)}, '
            f'"information": {_json_str(inst.information)}, '
            f'"solution": {_json_str(inst.solution)}, '
            f'"source_record_id": {_json_str(inst.source_record_id)}, '
            f'"task_kind": {_json_str(inst.task_kind)}, '
            f'"generation_meta": {encode_json(inst.generation_meta)}}}, '
            f'"report": {{"instance_ref": {_json_str(report.instance_ref)}, '
            f'"verdicts": [{verdicts}], "overall": {_json_str(report.overall)}, '
            f'"overall_reasons": {_json_str(report.overall_reasons)}, '
            f'"label": {_json_str(report.label)}}}, '
            f'"label": {_json_str(self.label)}, '
            f'"task_kind": {_json_str(self.task_kind)}, '
            f'"created_seq": {self.created_seq}}}')


@dataclass(frozen=True, slots=True)
class Exemplar:
    """What the store keeps of one entry: the fields sampling, prompts and
    emit read. ``block`` is the entry's exemplar prompt block, rendered once;
    ``example`` is the training example of a Good entry (None for Bad)."""

    created_seq: int
    entry_id: str
    source_record_id: str
    task_kind: str
    label: str
    block: str
    example: TrainingExample | None = None

    @classmethod
    def of(cls, entry: LogLine) -> "Exemplar":
        """The row of an entry or of its log line; of the report, only the
        rules a Bad entry failed and its overall reasons are read."""
        instance, label, report = entry.instance, entry.label, entry.report
        rejections = ((v.rule_id, v.reason) for v in report.verdicts
                      if v.answer == "no")
        # one shared task_kind and label string each, not one per row
        return cls(entry.created_seq, entry.entry_id, instance.source_record_id,
                   sys.intern(entry.task_kind), sys.intern(label),
                   render_exemplar(label, instance, rejections,
                                   report.overall_reasons),
                   to_training_example(instance) if label == "Good" else None)


def make_entry(instance: InstructionInstance,
               report: DiscriminationReport) -> ExemplarEntry:
    """Build an entry from a judged instance; created_seq is assigned on insert."""
    return ExemplarEntry(
        entry_id=f"{instance.source_record_id}:{instance.task_kind}",
        instance=instance,
        report=report,
        label=report.label,
        task_kind=instance.task_kind,
    )


class ExemplarDB:
    """Append-only exemplar store with seeded sampling.

    Single writer, many readers: inserts and samples take one lock, so a
    sample sees a consistent snapshot no older than the last insert. A store
    built with ``ExemplarDB()`` lives in memory; one opened with
    ``ExemplarDB.load(path)`` persists every insert immediately (flush per
    line), and its file keeps each entry whole; ``ExemplarDB.read(path)``
    only reads the file.

    In memory the store holds one `Exemplar` row per entry, not the entry:
    the instance, its generation metadata and the discriminator's report are
    dropped once the row's prompt block is rendered, at insert or at load.
    """

    def __init__(self) -> None:
        # insertion (created_seq) order is the dict's own order
        self._rows: dict[str, Exemplar] = {}
        # Row pools kept per (task, label) and per label in created_seq
        # order, so sampling stays O(draw) instead of rescanning the whole
        # store and a created_seq bound is a prefix found by bisection.
        self._task_pools: dict[tuple[str, str], list[Exemplar]] = {}
        self._label_pools: dict[str, list[Exemplar]] = {}
        self._next_seq = 0
        self._lock = threading.Lock()
        self._appender: JsonlAppender | None = None

    def _index(self, row: Exemplar) -> None:
        self._rows[row.entry_id] = row
        self._task_pools.setdefault((row.task_kind, row.label), []).append(row)
        self._label_pools.setdefault(row.label, []).append(row)

    @classmethod
    def load(cls, path: str | Path) -> "ExemplarDB":
        """Rebuild a db from its file (created when absent); appends continue
        at the same file."""
        # Open (and so repair) the appender before reading: a torn tail that
        # happens to parse must be dropped, not read once and then truncated
        # away by a later append.
        appender = JsonlAppender(path)
        try:
            db = cls.read(path)
        except BaseException:
            appender.close()  # a store that fails to load leaves no open log
            raise
        db._appender = appender
        return db

    @classmethod
    def read(cls, path: str | Path) -> "ExemplarDB":
        """Rebuild an in-memory db from its file, leaving the file as it is:
        an unterminated last line is skipped. The file is read line by line,
        and each line becomes its row (`Exemplar.of`) as it is read."""
        db = cls()
        for lineno, line in read_rows(LogLine, path, ConsistencyError,
                                      "bad exemplar entry", complete_only=True):
            row = Exemplar.of(line)
            if row.entry_id in db._rows:
                log.warning("%s:%d: duplicate entry id %r ignored",
                            path, lineno, row.entry_id)
                continue
            if row.created_seq < db._next_seq - 1:
                raise ConsistencyError(
                    f"{path}:{lineno}: created_seq {row.created_seq} is out "
                    f"of order")
            db._index(row)
            db._next_seq = max(db._next_seq, row.created_seq + 1)
        return db

    def insert(self, entry: ExemplarEntry) -> Exemplar:
        """Add one entry, assigning the next created_seq, and return its row.
        Duplicate ids reject. The file (if any) gets the whole entry; the
        store keeps only the row."""
        with self._lock:
            if entry.entry_id in self._rows:
                raise ValueError(f"duplicate entry id {entry.entry_id!r}")
            entry.created_seq = self._next_seq
            row = Exemplar.of(entry)
            self._next_seq += 1
            self._index(row)
            if self._appender is not None:
                self._appender.append(entry.to_json())
        return row

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def entries(self) -> list[Exemplar]:
        """All rows in insertion (created_seq) order."""
        with self._lock:
            return list(self._rows.values())

    def sample(self, task: str, policy: SamplingPolicy | None = None,
               seed: int = 0, before_seq: int | None = None
               ) -> list[Exemplar]:
        """Seeded draw of up to n_good + n_bad rows, goods first.

        Only rows with ``created_seq < before_seq`` are drawn (all when
        None). Sampling is without replacement from created_seq-ordered
        pools, so the result is fully determined by (the rows below the
        bound, task, policy, seed); rows inserted later never change it.
        """
        if policy is None:
            policy = SamplingPolicy()
        rng = random.Random(seed)
        picked: list[Exemplar] = []
        with self._lock:
            if policy.same_task_only:
                goods = self._task_pools.get((task, "Good"), ())
                bads = self._task_pools.get((task, "Bad"), ())
            else:
                goods = self._label_pools.get("Good", ())
                bads = self._label_pools.get("Bad", ())
            for pool, n in ((goods, policy.n_good), (bads, policy.n_bad)):
                k = len(pool)
                # a bound below the newest row (never at max_in_flight 1)
                # cuts the pool to a prefix
                if k and before_seq is not None and pool[-1].created_seq >= before_seq:
                    k = bisect_left(pool, before_seq, key=_SEQ)
                # the rows rng.sample(pool[:k], m) would draw; one draw is
                # pool[rng.randrange(k)], at a sixth of the cost
                m = min(n, k)
                if m == 1:
                    picked.append(pool[rng.randrange(k)])
                else:
                    picked += [pool[i] for i in rng.sample(range(k), m)]
        return picked

    def close(self) -> None:
        if self._appender is not None:
            self._appender.close()
            self._appender = None
