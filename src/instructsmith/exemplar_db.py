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
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .discriminator import DiscriminationReport
from .emitter import TrainingExample, to_training_example
from .errors import ConsistencyError
from .generator import InstructionInstance, render_exemplar
from .ioutil import JsonlAppender, iter_jsonl
from .taskspec import LABELS, SamplingPolicy

log = logging.getLogger(__name__)

_SEQ = attrgetter("created_seq")


@dataclass
class ExemplarEntry:
    """One judged instance with its analysis and insertion sequence number."""

    entry_id: str
    instance: InstructionInstance
    report: DiscriminationReport
    label: str
    task_kind: str
    created_seq: int = -1

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}")
        if self.label != self.report.label:
            raise ValueError(
                f"entry label {self.label} disagrees with report label "
                f"{self.report.label}")

    def to_dict(self) -> dict:
        return {
            "entry_id": self.entry_id,
            "instance": self.instance.to_dict(),
            "report": self.report.to_dict(),
            "label": self.label,
            "task_kind": self.task_kind,
            "created_seq": self.created_seq,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExemplarEntry":
        return cls(
            entry_id=str(d["entry_id"]),
            instance=InstructionInstance.from_dict(d["instance"]),
            report=DiscriminationReport.from_dict(d["report"]),
            label=str(d["label"]),
            task_kind=str(d["task_kind"]),
            created_seq=int(d.get("created_seq", -1)),
        )


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
    def of(cls, entry: ExemplarEntry) -> "Exemplar":
        return cls(
            created_seq=entry.created_seq,
            entry_id=entry.entry_id,
            source_record_id=entry.instance.source_record_id,
            # one shared string per kind and label, not one per loaded row
            task_kind=sys.intern(entry.task_kind),
            label=sys.intern(entry.label),
            block=render_exemplar(entry),
            example=(to_training_example(entry.instance)
                     if entry.label == "Good" else None),
        )


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
        and each entry is reduced to its row as it is read."""
        db = cls()
        for lineno, obj in iter_jsonl(path, complete_only=True):
            try:
                entry = ExemplarEntry.from_dict(obj)
                row = Exemplar.of(entry)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConsistencyError(
                    f"{path}:{lineno}: bad exemplar entry: {exc}") from exc
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
                self._appender.append(entry.to_dict())
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
                goods = self._task_pools.get((task, "Good"), [])
                bads = self._task_pools.get((task, "Bad"), [])
            else:
                goods = self._label_pools.get("Good", [])
                bads = self._label_pools.get("Bad", [])
            for pool, n in ((goods, policy.n_good), (bads, policy.n_bad)):
                k = (len(pool) if before_seq is None
                     else bisect_left(pool, before_seq, key=_SEQ))
                # the same indices rng.sample(pool[:k], n) would draw
                picked += [pool[i] for i in rng.sample(range(k), min(n, k))]
        return picked

    def close(self) -> None:
        if self._appender is not None:
            self._appender.close()
            self._appender = None
