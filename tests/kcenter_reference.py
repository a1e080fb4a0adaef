"""Reference k-center: the straightforward greedy loop and the exact optimum.

Each greedy pick builds a fresh distance row and a fresh ``np.where`` mask
over the selected points. The in-place update in ``instructsmith.coreset``
must give the same picks and the same radius trace, bit for bit. The exact
optimum enumerates every center set, so it is guarded to tiny inputs.
"""

from __future__ import annotations

import itertools

import numpy as np

# combinatorial guard for the exact oracle
BRUTEFORCE_MAX_N = 12
BRUTEFORCE_MAX_K = 4


class GuardLimitError(Exception):
    """The exact oracle refused an input too large to enumerate."""


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


def kcenter_optimal_bruteforce(vectors, k, metric="euclidean"):
    """(centers, radius) of the exact k-center optimum over all size-k index
    subsets. Guarded to n <= 12 and k <= 4; ties go to the lexicographically
    smallest index set (the enumeration order of itertools.combinations)."""
    mat = np.asarray(vectors, dtype=np.float64)
    n = mat.shape[0]
    if n > BRUTEFORCE_MAX_N or k > BRUTEFORCE_MAX_K:
        raise GuardLimitError(
            f"bruteforce limited to n <= {BRUTEFORCE_MAX_N}, k <= "
            f"{BRUTEFORCE_MAX_K}; got n={n}, k={k}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    best = min(itertools.combinations(range(n), k),
               key=lambda centers: replay_trace(mat, centers, metric)[-1])
    return list(best), replay_trace(mat, best, metric)[-1]
