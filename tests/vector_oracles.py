"""Scalar vector-math oracles for tests: one pair of vectors at a time, in
float64, independent of the matrix code paths they check."""

from __future__ import annotations

import numpy as np


def as_array(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


def cosine_similarity(a, b) -> float:
    """dot(a, b) / (|a| * |b|), computed in float64."""
    av, bv = as_array(a), as_array(b)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    na, nb = float(np.linalg.norm(av)), float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(np.clip(np.dot(av, bv) / (na * nb), -1.0, 1.0))


def euclidean_distance(a, b) -> float:
    av, bv = as_array(a), as_array(b)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv))
