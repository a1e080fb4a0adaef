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
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import BackendError, ConsistencyError, ProtocolError
from .ioutil import atomic_open
from .llm_backend import RetryPolicy, post_json, with_retry

if TYPE_CHECKING:  # the functions that compute on vectors import numpy
    import numpy as np

DEFAULT_MOCK_DIM = 64

#: the distances the coreset selection can take between embedding vectors
METRICS = ("euclidean", "cosine_distance")


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


def mock_vector(text: str, model_tag: str, dim: int = DEFAULT_MOCK_DIM) -> np.ndarray:
    """Deterministic pseudo-random unit vector for (model_tag, text).

    The sha256 of the tagged text seeds a PCG64 stream whose first ``dim``
    normal draws are normalized to unit length. Distinct texts collide only
    if their hashes do, so vectors are distinct in practice.
    """
    import numpy as np
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
        import numpy as np
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
    import numpy as np
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
    Chunks may run concurrently up to ``config.max_in_flight``; each is
    validated as it is taken in input order (one finite row per text, all
    chunks of one dimension; a chunk that fails raises ``ConsistencyError``
    naming it) and copied into the result, so one chunk's vectors are held
    beside the result, not every chunk's.
    """
    import numpy as np
    if not texts:
        raise ValueError("texts must be non-empty")
    for i, t in enumerate(texts):
        if not t:
            raise ValueError(f"text at index {i} is empty")
    if backend is None:
        backend = make_embedding_backend(config)
    size = config.batch_size
    starts = range(0, len(texts), size)

    def embed_chunk(start: int) -> list[np.ndarray]:
        try:
            return with_retry(lambda: backend.embed_chunk(texts[start:start + size]),
                              config.retry, sleep)
        except BackendError as exc:
            exc.chunk_index = start // size
            raise

    def fill(per_chunk) -> np.ndarray:
        out = None
        for start, vectors in zip(starts, per_chunk):
            rows = min(size, len(texts) - start)
            mat = _chunk_matrix(vectors, start // size, rows,
                                None if out is None else out.shape[1])
            if out is None:
                out = np.empty((len(texts), mat.shape[1]), dtype=np.float32)
            out[start:start + rows] = mat
        return out

    if config.max_in_flight > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
            return fill(pool.map(embed_chunk, starts))
    return fill(map(embed_chunk, starts))


def stack_vectors(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` as an (n, d) float32 matrix, with no copy when it is one."""
    import numpy as np
    mat = np.asarray(vectors, dtype=np.float32)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a non-empty (n, d) matrix, got shape {mat.shape}")
    return mat


def write_embedding_cache(path, ids: Sequence[str], vectors: np.ndarray) -> int:
    """Write one structured ``.npy`` array of (id, float32 vector) rows to
    exactly ``path``, atomically; returns the row count. The same ids and
    vectors always give the same bytes."""
    import numpy as np
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
    import numpy as np
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
