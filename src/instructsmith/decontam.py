"""Train/benchmark leakage audit and removal via embedding nearest neighbors.

The audit embeds benchmark canonical solutions and training texts and scans
every pair exactly, in float64 (no approximation), one block of benchmark
items at a time: a block holds at most about 2^19 similarities (4 MiB), so
memory stays bounded at any corpus size and the full benchmark x train
matrix is never built. Each block is clipped in place, so the scan's peak
memory is two blocks: the previous block while the next is computed, or a
block and the partitioned copy that ranks it (plus a float64 copy of the
normalized training vectors). Each block's top-k neighbors come from one
partition and one sort of the candidates; ties break toward the earlier
training row, and identical training texts tie exactly. Cleaning removes
the union of each item's top-n neighbors from the training set.
"""

from __future__ import annotations

import bisect
import csv
import io
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .embedding import EmbeddingBackendConfig, embed_batch, stack_vectors
from .errors import ConfigError, ConsistencyError
from .ioutil import atomic_write_json, atomic_write_text, iter_jsonl

if TYPE_CHECKING:  # the functions that compute on vectors import numpy
    import numpy as np

log = logging.getLogger(__name__)

DEFAULT_TOP_K = 3
DEFAULT_BIN_WIDTH = 0.05
DEFAULT_REMOVE_PER_ITEM = 3

# Similarities per block of benchmark items (4 MiB in float64).
BLOCK_SIMILARITIES = 2**19


@dataclass(frozen=True)
class BenchmarkItem:
    """One held-out evaluation problem with its reference solution."""

    bench_id: str
    canonical_solution: str
    benchmark_name: str = ""

    def __post_init__(self) -> None:
        if not self.bench_id:
            raise ValueError("bench_id must be non-empty")
        if not self.canonical_solution.strip():
            raise ValueError("canonical_solution must be non-empty")

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkItem":
        return cls(
            bench_id=str(d["bench_id"]),
            canonical_solution=str(d["canonical_solution"]),
            benchmark_name=str(d.get("benchmark", "")),
        )


@dataclass(frozen=True)
class Neighbor:
    train_id: str
    similarity: float


@dataclass
class ItemNeighbors:
    """Top neighbors for one benchmark item, most similar first."""

    bench_id: str
    neighbors: list[Neighbor]

    def __post_init__(self) -> None:
        sims = [n.similarity for n in self.neighbors]
        if any(b > a for a, b in zip(sims, sims[1:])):
            raise ValueError(f"{self.bench_id}: neighbors not sorted descending")


@dataclass
class LeakageReport:
    per_item: list[ItemNeighbors]
    average_top1: float
    histogram: list[tuple[float, int]]

    def to_dict(self) -> dict:
        return {
            "average_top1": self.average_top1,
            "per_item": [
                {"bench_id": item.bench_id,
                 "neighbors": [{"train_id": n.train_id,
                                "similarity": n.similarity}
                               for n in item.neighbors]}
                for item in self.per_item
            ],
            "histogram": [[low, count] for low, count in self.histogram],
        }


@dataclass
class DecontamPlan:
    """Which training ids to drop, and which benchmark items demanded each."""

    remove_train_ids: set[str]
    per_item_contributions: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        union = set()
        for ids in self.per_item_contributions.values():
            union.update(ids)
        if self.remove_train_ids != union:
            raise ValueError(
                "remove_train_ids must equal the union of per-item contributions")

    def to_dict(self) -> dict:
        return {
            "remove_train_ids": sorted(self.remove_train_ids),
            "per_item_contributions": {
                k: list(v) for k, v in self.per_item_contributions.items()},
        }


def similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact cosine similarity between every row of ``a`` and of ``b``.

    Zero-norm rows get similarity 0 rather than NaN. Math in float64.
    """
    import numpy as np
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_norm = np.linalg.norm(a, axis=1, keepdims=True)
    b_norm = np.linalg.norm(b, axis=1, keepdims=True)
    a_norm[a_norm == 0.0] = 1.0
    b_norm[b_norm == 0.0] = 1.0
    sims = (a / a_norm) @ (b / b_norm).T
    return np.clip(sims, -1.0, 1.0, out=sims)


def top1_histogram(top1_sims: Sequence[float],
                   bin_width: float = DEFAULT_BIN_WIDTH) -> list[tuple[float, int]]:
    """Fixed bins over [-1, 1]; each entry is (bin lower bound, count).

    Bin membership is decided against the decimal-rounded lower bounds, so a
    similarity sitting exactly on an edge counts toward the bin whose printed
    bound it equals (no binary-float drift).
    """
    if not 0.0 < bin_width <= 2.0:
        raise ConfigError("bin_width must be in (0, 2]")
    n_bins = math.ceil(2.0 / bin_width)
    lows = [round(-1.0 + i * bin_width, 10) for i in range(n_bins)]
    counts = [0] * n_bins
    for s in top1_sims:
        idx = min(max(bisect.bisect_right(lows, s) - 1, 0), n_bins - 1)
        counts[idx] += 1
    return list(zip(lows, counts))


def top_k_indices(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest values, largest first.

    Row for row this equals ``np.argsort(-row, kind="stable")[:k]``: ties
    break toward the lower column. One partition finds each row's k-th
    largest value; only the entries at or above it are sorted, by (row,
    value descending), and the first k of each row are kept. The sort is
    stable and the candidates come in column order, so equal values keep it.
    """
    import numpy as np
    n_rows, n_cols = sims.shape
    if not 1 <= k <= n_cols:
        raise ValueError(f"k must be in [1, {n_cols}], got {k}")
    kth = np.partition(sims, n_cols - k, axis=1)[:, n_cols - k, None]
    rows, cols = np.divmod(np.flatnonzero(sims >= kth), n_cols)
    cols = cols[np.lexsort((-sims[rows, cols], rows))]
    # rows is sorted, so it also labels the sorted candidates
    per_row = np.bincount(rows, minlength=n_rows)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    return cols[rank < k].reshape(n_rows, k)


def audit(train: Sequence[tuple[str, str]], bench: Sequence[BenchmarkItem],
          backend: EmbeddingBackendConfig, top_k: int = DEFAULT_TOP_K, *,
          bin_width: float = DEFAULT_BIN_WIDTH) -> LeakageReport:
    """Full-scan nearest-neighbor audit of bench items against train texts.

    Neighbors are ranked by similarity descending; ties break toward the
    earlier training row, so results are deterministic. Bench items are
    scanned in blocks of ``BLOCK_SIMILARITIES // len(train)`` rows.
    """
    import numpy as np
    if top_k < 1:
        raise ConfigError("top_k must be >= 1")
    if not train:
        raise ConfigError("train must be non-empty")
    if not bench:
        raise ConfigError("bench must be non-empty")
    train_ids = [tid for tid, _ in train]
    if len(set(train_ids)) != len(train_ids):
        raise ConfigError("train ids must be unique")

    train_mat = stack_vectors(embed_batch([text for _, text in train], backend))
    bench_mat = stack_vectors(embed_batch([b.canonical_solution for b in bench],
                                          backend))
    # BLAS may round a product differently at different matrix positions;
    # copying each repeated training text's column from its first
    # occurrence makes duplicates tie exactly.
    first_row: dict[str, int] = {}
    first_of = np.array([first_row.setdefault(text, i)
                         for i, (_, text) in enumerate(train)])
    repeats = np.flatnonzero(first_of != np.arange(len(first_of)))

    k = min(top_k, len(train_ids))
    height = max(1, BLOCK_SIMILARITIES // len(train_ids))
    per_item: list[ItemNeighbors] = []
    top1_sims: list[float] = []
    for start in range(0, len(bench), height):
        sims = similarity_matrix(bench_mat[start:start + height], train_mat)
        sims[:, repeats] = sims[:, first_of[repeats]]
        cols = top_k_indices(sims, k)
        values = np.take_along_axis(sims, cols, axis=1)
        for item, row_cols, row_sims in zip(bench[start:start + height],
                                            cols.tolist(), values.tolist()):
            neighbors = [Neighbor(train_ids[ti], sim)
                         for ti, sim in zip(row_cols, row_sims)]
            per_item.append(ItemNeighbors(bench_id=item.bench_id,
                                          neighbors=neighbors))
            top1_sims.append(row_sims[0])

    return LeakageReport(
        per_item=per_item,
        average_top1=float(np.mean(top1_sims)),
        histogram=top1_histogram(top1_sims, bin_width),
    )


def plan_removal(report: LeakageReport,
                 n_per_item: int = DEFAULT_REMOVE_PER_ITEM) -> DecontamPlan:
    """Union of each item's top n_per_item neighbors; shared ids count once."""
    if n_per_item < 1:
        raise ConfigError("n_per_item must be >= 1")
    contributions: dict[str, list[str]] = {}
    remove: set[str] = set()
    for item in report.per_item:
        picked = [n.train_id for n in item.neighbors[:n_per_item]]
        contributions[item.bench_id] = picked
        remove.update(picked)
    return DecontamPlan(remove_train_ids=remove,
                        per_item_contributions=contributions)


def apply_plan(plan: DecontamPlan, train: Sequence[tuple[str, object]]) -> list:
    """Drop planned ids from train, preserving order of what remains."""
    present = {tid for tid, _ in train}
    missing = sorted(plan.remove_train_ids - present)
    if missing:
        log.warning("%d planned ids absent from train: %s",
                    len(missing), ", ".join(missing[:5]))
    kept = [pair for pair in train if pair[0] not in plan.remove_train_ids]
    log.info("decontamination removed %d of %d training items",
             len(train) - len(kept), len(train))
    return kept


def read_benchmark_file(path: str | Path) -> list[BenchmarkItem]:
    """Read a benchmark file; a damaged line, JSON or not, is a
    `ConfigError` naming ``path:line``: the file is user input."""
    items = []
    try:
        for lineno, obj in iter_jsonl(path):
            try:
                items.append(BenchmarkItem.from_dict(obj))
            except KeyError as exc:
                raise ConfigError(f"{path}:{lineno}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad benchmark item: {exc}") from exc
    except ConsistencyError as exc:  # a line that is not JSON
        raise ConfigError(str(exc)) from exc
    if not items:
        raise ConfigError(f"{path}: benchmark file is empty")
    return items


def write_leakage_report(path: str | Path, report: LeakageReport) -> None:
    # compact: any indent makes json fall back to its pure-Python encoder
    atomic_write_json(path, report.to_dict(), indent=None)


def write_histogram_csv(path: str | Path, report: LeakageReport) -> None:
    """Emit the top-1 histogram as two-column CSV for plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_low", "count"])
    for low, count in report.histogram:
        writer.writerow([low, count])
    atomic_write_text(path, buf.getvalue())
