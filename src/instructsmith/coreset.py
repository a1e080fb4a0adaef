"""KCenterGreedy coreset selection.

The greedy loop keeps, for every point, its minimum distance to the selected
set and updates it in place after each pick (one distance row per pick into
reused buffers, O(n·d) instead of all pairs). Distances are computed in
float64 regardless of the stored vector precision, so runs are bitwise
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .embedding import METRICS
from .ioutil import atomic_write_json
from .schema import unparse

if TYPE_CHECKING:  # the functions that compute on vectors import numpy
    import numpy as np


@dataclass
class CoresetSelection:
    """Result of one greedy run: picks in selection order plus the radius
    (max over points of min distance to the selected set) after each pick."""

    selected_indices: list[int]
    radius_trace: list[float]
    k: int
    metric: str = "euclidean"
    seed: int = 0

    def __post_init__(self) -> None:
        if len(set(self.selected_indices)) != len(self.selected_indices):
            raise ValueError("selected_indices contains duplicates")
        if len(self.radius_trace) != len(self.selected_indices):
            raise ValueError("radius_trace must have one entry per pick")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        for prev, cur in zip(self.radius_trace, self.radius_trace[1:]):
            if cur > prev:
                raise ValueError("radius_trace must be non-increasing")


class _MinDistance:
    """Every point's distance to its nearest selected center, updated in
    place as centers are added. A selected point holds -1, below every
    distance, so ``farthest`` is the lowest-index unselected point among
    the farthest ones (a selected point once every point is).

    The update reuses one matvec buffer and one distance buffer. Euclidean
    distances are sqrt(max((|x|^2 + |c|^2) - 2(x.c), 0)); cosine distances
    are max(1 - x.c, 0) on unit rows. Both are float64.
    """

    def __init__(self, vectors: np.ndarray, metric: str):
        import numpy as np
        mat = np.asarray(vectors, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] == 0:
            raise ValueError("vectors must form a non-empty 2-D matrix")
        if metric == "euclidean":
            self.norms2 = np.einsum("ij,ij->i", mat, mat)
        elif metric == "cosine_distance":
            norms = np.linalg.norm(mat, axis=1)
            if np.any(norms == 0):
                raise ValueError("cosine_distance is undefined for zero vectors")
            mat = mat / norms[:, None]
        else:
            raise ValueError(f"metric must be one of {METRICS}")
        self.mat, self.metric = mat, metric
        n = mat.shape[0]
        self.values = np.full(n, np.inf)
        self.farthest = 0
        self._dots = np.empty(n)
        self._dist = np.empty(n)

    def __len__(self) -> int:
        return self.values.shape[0]

    def add(self, center: int) -> float:
        """Select ``center``; returns the radius of the selection so far."""
        import numpy as np
        dots, dist = self._dots, self._dist
        np.matmul(self.mat, self.mat[center], out=dots)
        if self.metric == "euclidean":
            np.add(self.norms2, self.norms2[center], out=dist)
            dots *= 2.0
            dist -= dots
            np.maximum(dist, 0.0, out=dist)
            np.sqrt(dist, out=dist)
        else:
            np.subtract(1.0, dots, out=dist)
            np.maximum(dist, 0.0, out=dist)
        np.minimum(self.values, dist, out=self.values)
        self.values[center] = -1.0
        self.farthest = int(np.argmax(self.values))
        return max(float(self.values[self.farthest]), 0.0)


def _check_indices(indices: Sequence[int], n: int, what: str) -> None:
    for idx in indices:
        if not (0 <= idx < n):
            raise ValueError(f"{what} index {idx} out of range [0, {n})")


def kcenter_greedy(vectors: np.ndarray, k: int, seed: int = 0,
                   metric: str = "euclidean",
                   initial: Sequence[int] | None = None) -> CoresetSelection:
    """Select min(k, n) diverse points by greedy max-min distance.

    Without ``initial``, the first center is drawn uniformly from ``seed``.
    Each later pick is the unselected point farthest from the selected set,
    ties broken by lowest index.
    """
    import numpy as np
    if k < 1:
        raise ValueError("k must be >= 1")
    min_dist = _MinDistance(vectors, metric)
    n = len(min_dist)
    m = min(k, n)
    initial = list(initial or [])
    if len(set(initial)) != len(initial):
        raise ValueError("initial indices must be unique")
    _check_indices(initial, n, "initial")
    if len(initial) > m:
        raise ValueError(f"more initial indices ({len(initial)}) than picks ({m})")

    selected = initial or [int(np.random.default_rng(seed).integers(n))]
    trace = [min_dist.add(idx) for idx in selected]
    while len(selected) < m:
        selected.append(min_dist.farthest)
        trace.append(min_dist.add(min_dist.farthest))
    return CoresetSelection(selected_indices=selected, radius_trace=trace,
                            k=k, metric=metric, seed=seed)


def kcenter_radius(vectors: np.ndarray, centers: Sequence[int],
                   metric: str = "euclidean") -> float:
    """Max over all points of min distance to any center."""
    min_dist = _MinDistance(vectors, metric)
    if not len(centers):
        raise ValueError("centers must be non-empty")
    _check_indices(centers, len(min_dist), "center")
    for idx in centers:
        radius = min_dist.add(idx)
    return radius


@dataclass
class SelectionFile:
    """The select stage's artifact: the picks as corpus record ids."""

    k: int
    seed: int
    metric: str
    selected_ids: list[str]
    radius_trace: list[float] = field(default_factory=list)


def write_selection(path: str | Path, selection: CoresetSelection,
                    record_ids: Sequence[str]) -> None:
    """Persist a selection as its `SelectionFile`, mapping indices to corpus
    record ids."""
    atomic_write_json(path, unparse(SelectionFile(
        k=selection.k, seed=selection.seed, metric=selection.metric,
        selected_ids=[record_ids[i] for i in selection.selected_indices],
        radius_trace=[float(r) for r in selection.radius_trace])))
