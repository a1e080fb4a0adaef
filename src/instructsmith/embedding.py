"""Text embeddings behind a pluggable backend, and their on-disk cache.

Two backends ship: an HTTP client speaking the common embeddings JSON shape,
and a deterministic hash-based mock for hermetic runs. A batch of texts
embeds into one (n, d) float32 matrix, which the coreset selection and the
decontamination audit take as it is (their math is done in float64). The
cache is one binary ``.npy`` file of (id, vector) rows.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BackendError, ConsistencyError, ProtocolError
from .ioutil import atomic_open
from .llm_backend import RetryPolicy, post_json, with_retry

DEFAULT_MOCK_DIM = 64


@dataclass
class EmbeddingBackendConfig:
    """Where and how to compute embeddings.

    ``kind`` is "http" or "mock". The mock ignores endpoint/credentials and
    derives each vector from a hash of (model_name, text), so it is a pure
    function with no network access.
    """

    kind: str = "mock"
    endpoint: str = ""
    model_name: str = "mock-embed"
    api_key_env: str = ""
    batch_size: int = 32
    timeout: float = 60.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    dim: int = DEFAULT_MOCK_DIM
    max_in_flight: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ValueError(f"kind must be 'http' or 'mock', got {self.kind!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingBackendConfig":
        kwargs = dict(d)
        if "retry" in kwargs:
            kwargs["retry"] = RetryPolicy(**kwargs["retry"])
        return cls(**kwargs)


def mock_vector(text: str, model_tag: str, dim: int = DEFAULT_MOCK_DIM) -> np.ndarray:
    """Deterministic pseudo-random unit vector for (model_tag, text).

    The sha256 of the tagged text seeds a PCG64 stream whose first ``dim``
    normal draws are normalized to unit length. Distinct texts collide only
    if their hashes do, so vectors are distinct in practice.
    """
    digest = hashlib.sha256(f"{model_tag}\0{text}".encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    rng = np.random.Generator(np.random.PCG64(seed))
    vec = rng.standard_normal(dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:  # unreachable in practice; keeps the unit-norm contract total
        vec[0] = 1.0
        norm = 1.0
    return (vec / norm).astype(np.float32)


class MockEmbeddingBackend:
    """Hash-based embedding backend; it keeps no history of what it serves."""

    def __init__(self, model_name: str = "mock-embed", dim: int = DEFAULT_MOCK_DIM):
        self.model_name = model_name
        self.dim = dim

    def embed_chunk(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [mock_vector(t, self.model_name, self.dim) for t in texts]


class HttpEmbeddingBackend:
    """POSTs {"model", "input"} and reads {"data": [{"index", "embedding"}]}."""

    def __init__(self, config: EmbeddingBackendConfig):
        self.config = config
        self.model_name = config.model_name

    def embed_chunk(self, texts: Sequence[str]) -> list[np.ndarray]:
        body = {"model": self.config.model_name, "input": list(texts)}
        obj = post_json(self.config.endpoint, body,
                        api_key_env=self.config.api_key_env,
                        timeout=self.config.timeout)
        try:
            ordered = sorted(obj["data"], key=lambda item: int(item["index"]))
            vectors = [np.asarray(item["embedding"], dtype=np.float32) for item in ordered]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise ProtocolError(
                f"expected {len(texts)} vectors, got {len(vectors)}")
        return vectors


EmbeddingBackend = MockEmbeddingBackend | HttpEmbeddingBackend


def make_embedding_backend(config: EmbeddingBackendConfig) -> EmbeddingBackend:
    if config.kind == "mock":
        return MockEmbeddingBackend(config.model_name, config.dim)
    return HttpEmbeddingBackend(config)


def _chunk_matrix(vectors, chunk_index: int, rows: int,
                  dim: int | None) -> np.ndarray:
    """One chunk's vectors as a validated (rows, d) float32 matrix, where d
    must equal ``dim`` when it is given."""
    try:
        mat = np.asarray(vectors, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise ConsistencyError(
            f"ragged or non-numeric vectors in chunk {chunk_index}: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != rows or mat.shape[1] == 0:
        raise ConsistencyError(
            f"chunk {chunk_index} has shape {mat.shape}, expected ({rows}, d)")
    if dim is not None and mat.shape[1] != dim:
        raise ConsistencyError(
            f"dimension mismatch in chunk {chunk_index}: expected {dim}, "
            f"got {mat.shape[1]}")
    if not np.isfinite(mat).all():
        raise ConsistencyError(f"non-finite values in chunk {chunk_index}")
    return mat


def embed_batch(texts: Sequence[str], config: EmbeddingBackendConfig,
                backend: EmbeddingBackend | None = None,
                sleep: Callable[[float], None] = time.sleep) -> np.ndarray:
    """Embed ``texts`` in input order into an (n, d) float32 matrix,
    chunked by ``config.batch_size``.

    A caller-supplied ``backend`` overrides the one built from config.
    Chunks may run concurrently up to ``config.max_in_flight``; results are
    reassembled in input order. Each chunk is validated once: one finite row
    per text, all chunks of one dimension; a chunk that fails raises
    ``ConsistencyError`` naming it.
    """
    if not texts:
        raise ValueError("texts must be non-empty")
    for i, t in enumerate(texts):
        if not t:
            raise ValueError(f"text at index {i} is empty")
    if backend is None:
        backend = make_embedding_backend(config)
    chunks = [list(texts[i:i + config.batch_size])
              for i in range(0, len(texts), config.batch_size)]

    def embed_chunk(chunk_index: int) -> list[np.ndarray]:
        try:
            return with_retry(lambda: backend.embed_chunk(chunks[chunk_index]),
                              config.retry, sleep)
        except BackendError as exc:
            exc.chunk_index = chunk_index
            raise

    if config.max_in_flight > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
            per_chunk = list(pool.map(embed_chunk, range(len(chunks))))
    else:
        per_chunk = [embed_chunk(ci) for ci in range(len(chunks))]
    mats: list[np.ndarray] = []
    for ci, vectors in enumerate(per_chunk):
        dim = mats[0].shape[1] if mats else None
        mats.append(_chunk_matrix(vectors, ci, len(chunks[ci]), dim))
    return np.concatenate(mats)


def stack_vectors(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` as an (n, d) float32 matrix, with no copy when it is one."""
    mat = np.asarray(vectors, dtype=np.float32)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a non-empty (n, d) matrix, got shape {mat.shape}")
    return mat


def write_embedding_cache(path, ids: Sequence[str], vectors: np.ndarray) -> int:
    """Write one structured ``.npy`` array of (id, float32 vector) rows to
    exactly ``path``, atomically; returns the row count. The same ids and
    vectors always give the same bytes."""
    vectors = stack_vectors(vectors)
    if len(ids) != len(vectors):
        raise ValueError("ids and vectors must have equal length")
    width = max(1, *map(len, ids))
    table = np.empty(len(ids), dtype=[("id", f"U{width}"),
                                      ("vector", "<f4", (vectors.shape[1],))])
    table["id"] = ids
    table["vector"] = vectors
    with atomic_open(path) as fh:  # a handle, so np.save adds no ".npy"
        np.save(fh, table, allow_pickle=False)
    return len(ids)


def read_embedding_cache(path) -> tuple[list[str], np.ndarray]:
    """Read a cache file back as (ids, (n, d) float32 vectors). A file that
    is not a complete cache, or that repeats an id, is a ConsistencyError."""
    with open(path, "rb") as fh:
        try:
            table = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ConsistencyError(
                f"{path}: not a readable embedding cache: {exc}") from exc
    if (table.ndim != 1 or table.dtype.names != ("id", "vector")
            or table.dtype["vector"].ndim != 1):
        raise ConsistencyError(f"{path}: not an embedding cache")
    ids = table["id"].tolist()
    if len(set(ids)) != len(ids):
        raise ConsistencyError(f"{path}: duplicate ids in embedding cache")
    vectors = np.ascontiguousarray(table["vector"], dtype=np.float32)
    if not np.isfinite(vectors).all():
        raise ConsistencyError(f"{path}: non-finite values in embedding cache")
    return ids, vectors
