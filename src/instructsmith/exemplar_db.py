"""Store of judged instances, sampled back into prompts as few-shot examples.

Entries append to a line-delimited JSON file as they are inserted; an
in-memory index is rebuilt on load. Good and Bad cases are both kept: a bad
exemplar (with the reasons it failed) teaches the generator what to avoid.
"""

from __future__ import annotations

import logging
import random
import threading
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .discriminator import LABELS, DiscriminationReport
from .errors import ConsistencyError
from .generator import InstructionInstance
from .ioutil import JsonlAppender, iter_jsonl
from .taskspec import TASK_KINDS

log = logging.getLogger(__name__)

_SEQ = attrgetter("created_seq")


@dataclass
class SamplingPolicy:
    """How many good/bad exemplars to draw for one generation prompt."""

    n_good: int = 1
    n_bad: int = 1
    same_task_only: bool = True

    def __post_init__(self) -> None:
        if self.n_good < 0 or self.n_bad < 0:
            raise ValueError("sample counts must be >= 0")


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


def make_entry(instance: InstructionInstance, report: DiscriminationReport,
               entry_id: str = "") -> ExemplarEntry:
    """Build an entry from a judged instance; created_seq is assigned on insert."""
    return ExemplarEntry(
        entry_id=entry_id or f"{instance.source_record_id}:{instance.task_kind}",
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
    line).
    """

    def __init__(self) -> None:
        # insertion (created_seq) order is the dict's own order
        self._entries: dict[str, ExemplarEntry] = {}
        # Entry pools kept per (task, label) and per label in created_seq
        # order, so sampling stays O(draw) instead of rescanning the whole
        # store and a created_seq bound is a prefix found by bisection.
        self._task_pools: dict[tuple[str, str], list[ExemplarEntry]] = {}
        self._label_pools: dict[str, list[ExemplarEntry]] = {}
        self._next_seq = 0
        self._lock = threading.Lock()
        self._appender: JsonlAppender | None = None

    def _index_entry(self, entry: ExemplarEntry) -> None:
        self._task_pools.setdefault((entry.task_kind, entry.label),
                                    []).append(entry)
        self._label_pools.setdefault(entry.label, []).append(entry)

    @classmethod
    def load(cls, path: str | Path) -> "ExemplarDB":
        """Rebuild a db from its file (created when absent); appends continue
        at the same file."""
        db = cls()
        # Open (and so repair) the appender before reading: a torn tail that
        # happens to parse must be dropped, not read once and then truncated
        # away by a later append.
        db._appender = JsonlAppender(path)
        try:
            for lineno, obj in iter_jsonl(path, tolerate_torn_tail=True):
                try:
                    entry = ExemplarEntry.from_dict(obj)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConsistencyError(
                        f"{path}:{lineno}: bad exemplar entry: {exc}") from exc
                if entry.entry_id in db._entries:
                    log.warning("%s:%d: duplicate entry id %r ignored",
                                path, lineno, entry.entry_id)
                    continue
                if entry.created_seq < db._next_seq - 1:
                    raise ConsistencyError(
                        f"{path}:{lineno}: created_seq {entry.created_seq} is out "
                        f"of order")
                db._entries[entry.entry_id] = entry
                db._index_entry(entry)
                db._next_seq = max(db._next_seq, entry.created_seq + 1)
        except BaseException:
            db.close()  # a store that fails to load leaves no open log
            raise
        return db

    def insert(self, entry: ExemplarEntry) -> ExemplarEntry:
        """Add one entry, assigning the next created_seq. Duplicate ids reject."""
        with self._lock:
            if entry.entry_id in self._entries:
                raise ValueError(f"duplicate entry id {entry.entry_id!r}")
            entry.created_seq = self._next_seq
            self._next_seq += 1
            self._entries[entry.entry_id] = entry
            self._index_entry(entry)
            if self._appender is not None:
                self._appender.append(entry.to_dict())
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[ExemplarEntry]:
        """All entries in insertion (created_seq) order."""
        with self._lock:
            return list(self._entries.values())

    def sample(self, task: str, policy: SamplingPolicy | None = None,
               seed: int = 0, before_seq: int | None = None
               ) -> list[ExemplarEntry]:
        """Seeded draw of up to n_good + n_bad entries, goods first.

        Only entries with ``created_seq < before_seq`` are drawn (all when
        None). Sampling is without replacement from created_seq-ordered
        pools, so the result is fully determined by (the entries below the
        bound, task, policy, seed); entries inserted later never change it.
        """
        if policy is None:
            policy = SamplingPolicy()
        rng = random.Random(seed)
        picked: list[ExemplarEntry] = []
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

    def stats(self) -> dict[tuple[str, str], int]:
        """Exact (task_kind, label) counts, zero-filled for the known kinds."""
        counts = {(kind, label): 0 for kind in TASK_KINDS for label in LABELS}
        with self._lock:
            for entry in self._entries.values():
                key = (entry.task_kind, entry.label)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def close(self) -> None:
        if self._appender is not None:
            self._appender.close()
            self._appender = None
