"""Text embeddings behind a pluggable backend, and their on-disk cache.

Two backends ship: an HTTP client speaking the common embeddings JSON shape,
and a deterministic hash-based mock for hermetic runs, which embeds a whole
chunk at a time. A backend's ``embed_chunk`` gives one row per text, as a
list of vectors or one (n, d) array. A batch of texts embeds into one
(n, d) float32 matrix, which the coreset selection and the decontamination
audit take as it is (their math is done in float64). The cache is one
binary ``.npy`` file of (id, vector) rows.
"""

from __future__ import annotations

import hashlib
import math
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


# The constants of numpy's SeedSequence (a pool of 4 uint32 words) and of
# PCG64's seeding, for `seed_states` and `pcg64_state`. Each hashmix step
# xors in a running constant and multiplies by its next value; no data
# changes those, so each step's (xor, multiplier) pair is a Python int here.
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    steps, const = [], init
    for _ in range(count):
        steps.append((const, const * mult & _MASK32))
        const = steps[-1][1]
    return steps


# Mixing the entropy into the pool takes 16 hashmix steps: one per word,
# then one per (source, other word) pair. Each source's row lists the steps
# of the words it mixes into, with (0, 0) at the source itself.
_MIX_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_CROSS_STEPS = [[(0, 0) if dst == src else _MIX_STEPS[4 + 3 * src + dst - (dst > src)]
                 for dst in range(4)] for src in range(4)]
_STATE_STEPS = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)  # 4 uint64 = 8 uint32


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    uint64 ``s`` in ``seeds``, as an (n, 4) uint64 array, computed for all
    seeds at once on a (4, n) uint32 pool. A seed is the entropy words
    [low, high]; a seed below 2**32 is the one word [low], which pads the
    pool with the zero that [low, 0] gives it."""
    import numpy as np
    seeds = np.asarray(seeds, dtype=np.uint64)

    def columns(steps):  # (xor, mult) pairs as two (..., 1) uint32 arrays
        consts = np.array(steps, dtype=np.uint32)
        return consts[..., :1], consts[..., 1:]

    def hashmix(value, xor, mult):
        value = (value ^ xor) * mult
        return value ^ (value >> 16)

    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & _MASK32, seeds >> 32
    pool = hashmix(pool, *columns(_MIX_STEPS[:4]))
    rows = np.arange(4)[:, None]
    for src, (xor, mult) in enumerate(zip(*columns(_CROSS_STEPS))):
        mixed = pool * _MIX_MULT_L - hashmix(pool[src], xor, mult) * _MIX_MULT_R
        pool = np.where(rows == src, pool, mixed ^ (mixed >> 16))
    words = hashmix(np.concatenate((pool, pool)), *columns(_STATE_STEPS))
    words = words.astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).T


def pcg64_state(words: Sequence[int]) -> tuple[int, int]:
    """The (state, inc) that ``np.random.PCG64`` seeds itself with from the
    four uint64 words of its SeedSequence state, in Python ints mod 2**128:
    with s0, s1 the two 128-bit words, inc = 2 s1 + 1 and state =
    (inc + s0) M + inc."""
    s0 = words[0] << 64 | words[1]
    inc = (words[2] << 65 | words[3] << 1 | 1) & _MASK128
    return ((inc + s0) * _PCG_MULT + inc) & _MASK128, inc


def mock_vectors(texts: Sequence[str], model_tag: str,
                 dim: int = DEFAULT_MOCK_DIM) -> np.ndarray:
    """Deterministic pseudo-random unit vectors for (model_tag, text), one
    float32 row per text.

    The first 8 bytes of the sha256 of ``f"{model_tag}\\0{text}"`` (UTF-8),
    read big-endian, seed ``np.random.PCG64``; its first ``dim`` standard
    normal draws, divided by their norm, are the row. The seeding is done
    for the whole chunk at once (`seed_states`, `pcg64_state`), and one
    Generator, made per call, takes each row's state in turn: the same
    bytes as a Generator built per text. Distinct texts collide only if
    their hashes do, so vectors are distinct in practice.
    """
    import numpy as np
    prefixes = b"".join(
        hashlib.sha256(f"{model_tag}\0{text}".encode("utf-8")).digest()[:8]
        for text in texts)
    states = seed_states(np.frombuffer(prefixes, dtype=">u8")).tolist()
    mat = np.empty((len(texts), dim), dtype=np.float64)
    norms = np.empty((len(texts), 1), dtype=np.float64)
    gen = np.random.Generator(np.random.PCG64(0))
    bit_generator = gen.bit_generator
    for i, words in enumerate(states):
        state, inc = pcg64_state(words)
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        row = mat[i]
        gen.standard_normal(out=row)
        norm = math.sqrt(row.dot(row))  # np.linalg.norm of a 1-D array
        if norm == 0.0:  # unreachable in practice; keeps the unit-norm contract total
            row[0] = 1.0
            norm = 1.0
        norms[i] = norm
    mat /= norms
    return mat.astype(np.float32)


class MockEmbeddingBackend:
    """Hash-based embedding backend; it keeps no history of what it serves."""

    def __init__(self, model_name: str = "mock-embed", dim: int = DEFAULT_MOCK_DIM):
        self.model_name = model_name
        self.dim = dim

    def embed_chunk(self, texts: Sequence[str]) -> np.ndarray:
        return mock_vectors(texts, self.model_name, self.dim)


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
            indexes = [item["index"] for item in obj["data"]]
            vectors = [np.asarray(item["embedding"], dtype=np.float32)
                       for item in obj["data"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise ProtocolError(
                f"expected {len(texts)} vectors, got {len(vectors)}")
        # each text's vector is the item that names its position
        wrong = [index for index in indexes if type(index) is not int]
        if wrong:
            raise ProtocolError(
                f"embedding index must be an integer, got {wrong[0]!r}")
        by_index = dict(zip(indexes, vectors))
        if sorted(by_index) != list(range(len(texts))):
            raise ProtocolError(f"embedding indexes must be 0..{len(texts) - 1}"
                                f", each once, got {sorted(indexes)}")
        return [by_index[i] for i in range(len(texts))]


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
    Chunks may run concurrently up to ``config.max_in_flight``; each (a
    list of vectors or an (n, d) array, taken without a copy when it is
    float32) is validated as it is taken in input order (one finite row per
    text, all chunks of one dimension; a chunk that fails raises
    ``ConsistencyError`` naming it) and copied into the result, so one
    chunk's vectors are held beside the result, not every chunk's.
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
