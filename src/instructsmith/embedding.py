"""Text embeddings behind a pluggable backend, plus vector similarity math.

Two backends ship: an HTTP client speaking the common embeddings JSON shape,
and a deterministic hash-based mock for hermetic runs. Vectors are stored at
float32; similarity and distance math is done in float64.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BackendError, ConsistencyError, ProtocolError
from .ioutil import JsonlAppender, iter_jsonl
from .llm_backend import RetryPolicy, post_json, with_retry

DEFAULT_MOCK_DIM = 64


@dataclass
class EmbeddingVector:
    """A fixed-length float32 vector tagged with the model that produced it."""

    values: np.ndarray
    model_tag: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-D vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("vector contains non-finite values")

    @property
    def dim(self) -> int:
        return int(self.values.size)


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
    """Hash-based embedding backend; records each chunk of texts it serves."""

    def __init__(self, model_name: str = "mock-embed", dim: int = DEFAULT_MOCK_DIM):
        self.model_name = model_name
        self.dim = dim
        self.calls: list[list[str]] = []
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, config: EmbeddingBackendConfig) -> "MockEmbeddingBackend":
        return cls(model_name=config.model_name, dim=config.dim)

    def embed_chunk(self, texts: Sequence[str]) -> list[np.ndarray]:
        with self._lock:
            self.calls.append(list(texts))
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
        return MockEmbeddingBackend.from_config(config)
    return HttpEmbeddingBackend(config)


def embed_batch(texts: Sequence[str], config: EmbeddingBackendConfig,
                backend: EmbeddingBackend | None = None,
                sleep: Callable[[float], None] = time.sleep) -> list[EmbeddingVector]:
    """Embed ``texts`` in input order, chunked by ``config.batch_size``.

    A caller-supplied ``backend`` overrides the one built from config (used by
    tests to inspect call logs). Chunks may run concurrently up to
    ``config.max_in_flight``; results are reassembled in input order.
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
    model_tag = getattr(backend, "model_name", config.model_name)
    out: list[EmbeddingVector] = []
    dim: int | None = None
    for ci, vectors in enumerate(per_chunk):
        for vec in vectors:
            if dim is None:
                dim = int(vec.size)
            elif int(vec.size) != dim:
                raise ConsistencyError(
                    f"dimension mismatch in chunk {ci}: expected {dim}, got {vec.size}")
            out.append(EmbeddingVector(vec, model_tag=model_tag))
    return out


def _as_array(v: EmbeddingVector | np.ndarray | Sequence[float]) -> np.ndarray:
    if isinstance(v, EmbeddingVector):
        return np.asarray(v.values, dtype=np.float64)
    return np.asarray(v, dtype=np.float64)


def cosine_similarity(a, b) -> float:
    """dot(a, b) / (|a| * |b|), computed in float64."""
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    na, nb = float(np.linalg.norm(av)), float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(np.clip(np.dot(av, bv) / (na * nb), -1.0, 1.0))


def euclidean_distance(a, b) -> float:
    av, bv = _as_array(a), _as_array(b)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.linalg.norm(av - bv))


def stack_vectors(vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Stack into an (n, dim) float32 matrix; raises on inconsistent dims."""
    if not vectors:
        raise ValueError("vectors must be non-empty")
    dims = {v.dim for v in vectors}
    if len(dims) != 1:
        raise ConsistencyError(f"inconsistent vector dims: {sorted(dims)}")
    return np.stack([v.values for v in vectors]).astype(np.float32)


def write_embedding_cache(path, ids: Sequence[str],
                          vectors: Sequence[EmbeddingVector]) -> int:
    """Append one {"id", "model", "vector"} line per embedding; returns count."""
    if len(ids) != len(vectors):
        raise ValueError("ids and vectors must have equal length")
    with JsonlAppender(path) as out:
        for rid, vec in zip(ids, vectors):
            out.append({"id": rid, "model": vec.model_tag,
                        "vector": [float(x) for x in vec.values]})
    return len(ids)


def read_embedding_cache(path, tolerate_torn_tail: bool = False
                         ) -> tuple[list[str], list[EmbeddingVector]]:
    """Read a cache file back as parallel (ids, vectors) lists. Later lines
    win on duplicate ids, so a resumed append never yields duplicates."""
    by_id: dict[str, EmbeddingVector] = {}
    order: list[str] = []
    for lineno, obj in iter_jsonl(path, tolerate_torn_tail=tolerate_torn_tail):
        try:
            rid = str(obj["id"])
            vec = EmbeddingVector(np.asarray(obj["vector"], dtype=np.float32),
                                  model_tag=str(obj.get("model", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConsistencyError(f"{path}:{lineno}: bad cache line: {exc}") from exc
        if rid not in by_id:
            order.append(rid)
        by_id[rid] = vec
    return order, [by_id[rid] for rid in order]
