"""Reference mock embedder: the per-text embedder that
`instructsmith.embedding.mock_vectors` replaced.

Each text builds its own ``np.random.PCG64`` from the sha256 of the tagged
text, draws ``dim`` standard normals and scales them to unit length. The
chunk-at-a-time embedder must give the same float32 bytes for every text.
"""

from __future__ import annotations

import hashlib

import numpy as np


def reference_mock_vector(text: str, model_tag: str, dim: int) -> np.ndarray:
    digest = hashlib.sha256(f"{model_tag}\0{text}".encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    rng = np.random.Generator(np.random.PCG64(seed))
    vec = rng.standard_normal(dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:  # unreachable in practice; keeps the unit-norm contract total
        vec[0] = 1.0
        norm = 1.0
    return (vec / norm).astype(np.float32)


def reference_mock_matrix(texts, model_tag: str, dim: int) -> np.ndarray:
    """The reference vectors of ``texts``, stacked into an (n, d) matrix."""
    return np.stack([reference_mock_vector(t, model_tag, dim) for t in texts])
