"""Reference greedy k-center: the straightforward per-pick loop.

Each pick builds a fresh distance row and a fresh ``np.where`` mask over the
selected points. The in-place update in ``instructsmith.coreset`` must give
the same picks and the same radius trace, bit for bit.
"""

from __future__ import annotations

import numpy as np


def prepare(vectors, metric):
    mat = np.asarray(vectors, dtype=np.float64)
    if metric == "euclidean":
        return mat, np.einsum("ij,ij->i", mat, mat)
    return mat / np.linalg.norm(mat, axis=1)[:, None], None


def distances_to(mat, norms2, center, metric):
    if metric == "euclidean":
        d2 = norms2 + float(norms2[center]) - 2.0 * (mat @ mat[center])
        return np.sqrt(np.clip(d2, 0.0, None))
    return np.clip(1.0 - mat @ mat[center], 0.0, None)


def replay_trace(vectors, picks, metric="euclidean"):
    """Radius after each of ``picks``, selected points held at 0."""
    mat, norms2 = prepare(vectors, metric)
    min_dist = np.full(mat.shape[0], np.inf)
    trace = []
    for idx in picks:
        np.minimum(min_dist, distances_to(mat, norms2, idx, metric), out=min_dist)
        min_dist[idx] = 0.0
        trace.append(float(min_dist.max()))
    return trace


def reference_kcenter_greedy(vectors, k, seed=0, metric="euclidean",
                             initial=None):
    """(selected indices, radius trace) of the greedy max-min rule."""
    mat, norms2 = prepare(vectors, metric)
    n = mat.shape[0]
    m = min(k, n)
    selected, trace = [], []
    min_dist = np.full(n, np.inf)
    selected_mask = np.zeros(n, dtype=bool)

    def pick(idx):
        selected.append(idx)
        selected_mask[idx] = True
        np.minimum(min_dist, distances_to(mat, norms2, idx, metric), out=min_dist)
        min_dist[idx] = 0.0
        trace.append(float(min_dist.max()))

    for idx in initial or []:
        pick(idx)
    if not selected:
        pick(int(np.random.default_rng(seed).integers(n)))
    while len(selected) < m:
        pick(int(np.argmax(np.where(selected_mask, -1.0, min_dist))))
    return selected, trace
