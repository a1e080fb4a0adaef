"""Tests for embedding backends, batching, the cache file, and the vector
math oracles the other tests rely on."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedding_reference import reference_mock_matrix
from httpstub import http_stub
from instructsmith.embedding import (
    EmbeddingBackendConfig,
    HttpEmbeddingBackend,
    MockEmbeddingBackend,
    _chunk_matrix,
    embed_batch,
    mock_vectors,
    pcg64_state,
    read_embedding_cache,
    seed_states,
    stack_vectors,
    write_embedding_cache,
)
from instructsmith.errors import (
    ConsistencyError,
    ProtocolError,
    RateLimitedError,
    ServerBackendError,
)
from instructsmith.llm_backend import RetryPolicy
from instructsmith.pipeline import PipelineConfig
from vector_oracles import cosine_similarity, euclidean_distance


class TestMockVector:
    def test_deterministic_bitwise(self):
        a = mock_vectors(["some code"], "model-a", 64)[0]
        b = mock_vectors(["some code"], "model-a", 64)[0]
        assert a.dtype == np.float32
        assert (a == b).all()

    def test_distinct_texts_differ(self):
        a = mock_vectors(["text one"], "m", 64)[0]
        b = mock_vectors(["text two"], "m", 64)[0]
        assert (a != b).any()

    def test_model_tag_changes_vector(self):
        a = mock_vectors(["same text"], "model-a", 64)[0]
        b = mock_vectors(["same text"], "model-b", 64)[0]
        assert (a != b).any()

    def test_unit_norm(self):
        v = mock_vectors(["anything"], "m", 64)[0]
        assert abs(float(np.linalg.norm(v.astype(np.float64))) - 1.0) < 1e-6

    def test_dim_honored(self):
        assert mock_vectors(["t"], "m", 16)[0].shape == (16,)


# seeds at the edges of SeedSequence's one- and two-word entropy
EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63,
              2**64 - 2, 2**64 - 1, 0x0123456789ABCDEF, 0xFFFFFFFF00000000]

# any code point but a lone surrogate: ASCII, the BMP and astral characters
# (a surrogate pair in UTF-16 and in a JSON escape)
TEXTS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                max_size=40)


class TestMockVectors:
    """The chunk-at-a-time embedder against the per-text reference in
    ``embedding_reference``, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=70),
           dim=st.sampled_from([1, 3, 16, 64]),
           size=st.sampled_from([1, 2, 31, 32, 33, None]))
    def test_chunks_equal_the_reference(self, texts, dim, size):
        size = size or len(texts)
        mat = np.concatenate([mock_vectors(texts[i:i + size], "m", dim)
                              for i in range(0, len(texts), size)])
        assert mat.dtype == np.float32 and mat.shape == (len(texts), dim)
        assert mat.tobytes() == reference_mock_matrix(texts, "m", dim).tobytes()

    def test_non_ascii_and_astral_texts(self):
        texts = ["naïve café", "数据清洗", "emoji \U0001F600 and \U00010348",
                 json.loads('"pair \\ud83d\\ude00"'), "a" * 5000]
        for dim in (1, 7, 64):
            assert (mock_vectors(texts, "tag", dim).tobytes()
                    == reference_mock_matrix(texts, "tag", dim).tobytes())

    def test_seed_states_equal_numpy_seed_sequence(self):
        rng = np.random.default_rng(5)
        seeds = EDGE_SEEDS + rng.integers(0, 2**64, 200, dtype=np.uint64).tolist()
        states = seed_states(np.array(seeds, dtype=np.uint64))
        assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
        for seed, words in zip(seeds, states):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert words.tolist() == expected.tolist(), seed

    def test_pcg64_state_equals_numpy_seeding(self):
        states = seed_states(np.array(EDGE_SEEDS, dtype=np.uint64)).tolist()
        for seed, words in zip(EDGE_SEEDS, states):
            state, inc = pcg64_state(words)
            assert np.random.PCG64(seed).state["state"] == {"state": state,
                                                             "inc": inc}, seed

    def test_mock_vector_is_the_one_text_row(self):
        row = mock_vectors(["a", "b"], "m", 16)[1]
        assert mock_vectors(["b"], "m", 16)[0].tobytes() == row.tobytes()

    def test_backend_chunk_is_taken_without_a_copy(self):
        chunk = MockEmbeddingBackend(dim=8).embed_chunk(["a", "b", "c"])
        assert isinstance(chunk, np.ndarray) and chunk.shape == (3, 8)
        assert _chunk_matrix(chunk, 0, 3, 8) is chunk


class ChunkRecorder:
    """Forwards each chunk to ``inner`` and keeps it, in call order."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.chunks = []

    def embed_chunk(self, texts):
        self.chunks.append(list(texts))
        return self.inner.embed_chunk(texts)


class TestEmbedBatch:
    def test_chunking_five_texts_batch_two(self):
        config = EmbeddingBackendConfig(batch_size=2, dim=8)
        backend = ChunkRecorder(MockEmbeddingBackend(dim=8))
        texts = [f"text {i}" for i in range(5)]
        vectors = embed_batch(texts, config, backend=backend)
        assert vectors.shape == (5, 8) and vectors.dtype == np.float32
        assert [len(c) for c in backend.chunks] == [2, 2, 1]
        for text, vec in zip(texts, vectors):
            assert (vec == mock_vectors([text], backend.model_name, 8)[0]).all()

    def test_same_text_twice_identical(self):
        config = EmbeddingBackendConfig(batch_size=10, dim=8)
        vectors = embed_batch(["dup", "dup"], config)
        assert (vectors[0] == vectors[1]).all()

    def test_model_name_keys_vectors(self):
        config = EmbeddingBackendConfig(model_name="tagger", dim=8)
        vectors = embed_batch(["a"], config)
        assert (vectors[0] == mock_vectors(["a"], "tagger", 8)[0]).all()
        assert (vectors[0] != mock_vectors(["a"], "mock-embed", 8)[0]).any()

    def test_empty_inputs_rejected(self):
        config = EmbeddingBackendConfig(dim=8)
        with pytest.raises(ValueError):
            embed_batch([], config)
        with pytest.raises(ValueError):
            embed_batch(["ok", ""], config)

    def test_dim_mismatch_across_chunks_is_consistency_error(self):
        class SplitBrainBackend:
            model_name = "split"

            def __init__(self):
                self.n = 0

            def embed_chunk(self, texts):
                self.n += 1
                dim = 8 if self.n == 1 else 6
                return [np.zeros(dim, dtype=np.float32) + 1 for _ in texts]

        config = EmbeddingBackendConfig(batch_size=2, dim=8)
        with pytest.raises(ConsistencyError, match="chunk 1"):
            embed_batch(["a", "b", "c"], config, backend=SplitBrainBackend())

    def test_chunk_failure_carries_index(self):
        class FlakyBackend:
            model_name = "flaky"

            def __init__(self):
                self.n = 0

            def embed_chunk(self, texts):
                self.n += 1
                if self.n >= 2:
                    raise ServerBackendError("boom")
                return [np.ones(4, dtype=np.float32) for _ in texts]

        config = EmbeddingBackendConfig(
            batch_size=2, dim=4,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        with pytest.raises(ServerBackendError) as excinfo:
            embed_batch(["a", "b", "c", "d"], config, backend=FlakyBackend(),
                        sleep=lambda s: None)
        assert excinfo.value.chunk_index == 1

    def test_retry_recovers_transient_chunk_failure(self):
        class OnceFlaky:
            model_name = "once"

            def __init__(self):
                self.n = 0

            def embed_chunk(self, texts):
                self.n += 1
                if self.n == 1:
                    raise RateLimitedError("429")
                return [np.ones(4, dtype=np.float32) for _ in texts]

        config = EmbeddingBackendConfig(
            batch_size=8, dim=4,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        vectors = embed_batch(["a", "b"], config, backend=OnceFlaky(),
                              sleep=lambda s: None)
        assert len(vectors) == 2

    def test_concurrent_chunks_keep_input_order(self):
        config = EmbeddingBackendConfig(batch_size=1, dim=8, max_in_flight=4)
        backend = MockEmbeddingBackend(dim=8)
        texts = [f"item {i}" for i in range(9)]
        vectors = embed_batch(texts, config, backend=backend)
        for text, vec in zip(texts, vectors):
            assert (vec == mock_vectors([text], backend.model_name, 8)[0]).all()

    @pytest.mark.parametrize("batch_size,max_in_flight", [(7, 1), (7, 3), (50, 1)])
    def test_bytes_equal_the_stacked_rows(self, batch_size, max_in_flight):
        texts = [f"item {i}" for i in range(50)]
        config = EmbeddingBackendConfig(batch_size=batch_size, dim=16,
                                        max_in_flight=max_in_flight)
        mat = embed_batch(texts, config)
        expected = reference_mock_matrix(texts, config.model_name, 16)
        assert mat.dtype == np.float32 and mat.flags.c_contiguous
        assert mat.tobytes() == expected.tobytes()

    def test_peak_is_the_result_and_a_few_chunks(self):
        # each chunk is copied into the result as it arrives; keeping every
        # chunk's rows until a final join took ~300 chunks above the result
        import tracemalloc
        n, dim, size = 4000, 64, 32
        texts = [f"text {i}" for i in range(n)]
        config = EmbeddingBackendConfig(dim=dim, batch_size=size)
        embed_batch(texts[:2 * size], config)  # warm numpy's caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mat = embed_batch(texts, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        chunk_bytes = size * dim * 4
        assert mat.nbytes == n * dim * 4
        assert peak < mat.nbytes + 16 * chunk_bytes, (peak - mat.nbytes) / chunk_bytes


class TestVectorMath:
    """The scalar oracles in ``vector_oracles``."""

    def test_cosine_identity(self):
        v = mock_vectors(["v"], "m", 16)[0]
        assert abs(cosine_similarity(v, v) - 1.0) <= 1e-9

    def test_cosine_orthogonal(self):
        assert abs(cosine_similarity([1.0, 0.0], [0.0, 1.0])) <= 1e-9

    def test_cosine_hand_computed(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            0.70710678, abs=1e-6)

    def test_cosine_errors(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_euclidean_identity_and_triangle(self):
        assert euclidean_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_euclidean_dim_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance([1.0], [1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_symmetry_property(self, seed_a, seed_b):
        a = mock_vectors([f"a{seed_a}"], "m", 12)[0]
        b = mock_vectors([f"b{seed_b}"], "m", 12)[0]
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(b, a), abs=1e-12)
        assert euclidean_distance(a, b) == pytest.approx(
            euclidean_distance(b, a), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.001, max_value=1000.0,
                     allow_nan=False, allow_infinity=False))
    def test_cosine_scale_invariance(self, seed, scale):
        a = mock_vectors([f"x{seed}"], "m", 12)[0].astype(np.float64)
        b = mock_vectors([f"y{seed}"], "m", 12)[0].astype(np.float64)
        assert cosine_similarity(a * scale, b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_unit_vector_distance_cosine_identity(self, seed):
        a = mock_vectors([f"p{seed}"], "m", 24)[0]
        b = mock_vectors([f"q{seed}"], "m", 24)[0]
        d2 = euclidean_distance(a, b) ** 2
        assert d2 == pytest.approx(2.0 - 2.0 * cosine_similarity(a, b), abs=1e-6)


class ChunkBackend:
    """Serves the given per-chunk vector lists, one per call."""

    model_name = "chunks"

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def embed_chunk(self, texts):
        return self.chunks.pop(0)


class TestEmbeddingVector:
    """The checks each chunk of backend vectors gets, once, before it joins
    the (n, d) matrix."""

    def test_validation(self):
        config = EmbeddingBackendConfig(batch_size=2, dim=2)
        good = [np.ones(2), np.ones(2)]
        cases = [
            ("non-finite values", [np.ones(2), np.array([1.0, np.nan])]),
            ("non-finite values", [np.array([np.inf, 0.0]), np.ones(2)]),
            ("ragged or non-numeric vectors", [np.ones(2), np.ones(3)]),
            ("ragged or non-numeric vectors", [["x", "y"], np.ones(2)]),
            ("shape", [np.ones((2, 2)), np.ones((2, 2))]),
            ("shape", [np.ones(2)]),
            ("shape", [np.zeros(0), np.zeros(0)]),
        ]
        for problem, bad in cases:
            with pytest.raises(ConsistencyError,
                               match=f"{problem} in chunk 1|chunk 1 has {problem}"):
                embed_batch(["a", "b", "c", "d"], config,
                            backend=ChunkBackend(good, bad))

    def test_stack(self):
        mat = embed_batch(["a", "b", "c"], EmbeddingBackendConfig(dim=4))
        assert stack_vectors(mat) is mat
        assert stack_vectors(np.ones((3, 4))).dtype == np.float32
        with pytest.raises(ValueError):
            stack_vectors(np.ones(4))
        with pytest.raises(ValueError):
            stack_vectors(np.ones((0, 4)))


class TestCacheFile:
    def vectors(self, n=3):
        return embed_batch([f"t{i}" for i in range(n)],
                           EmbeddingBackendConfig(model_name="m", dim=8))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.npy"
        vectors = self.vectors()
        assert write_embedding_cache(path, ["a", "bb", "c"], vectors) == 3
        ids, loaded = read_embedding_cache(path)
        assert ids == ["a", "bb", "c"]
        assert loaded.dtype == np.float32 and loaded.shape == (3, 8)
        assert (loaded == vectors).all()

    def test_writes_exactly_the_given_path(self, tmp_path):
        path = tmp_path / "emb.cache"
        write_embedding_cache(path, ["a", "b", "c"], self.vectors())
        assert [p.name for p in tmp_path.iterdir()] == ["emb.cache"]

    def test_same_input_same_bytes(self, tmp_path):
        first, second = tmp_path / "1.npy", tmp_path / "2.npy"
        write_embedding_cache(first, ["a", "b", "c"], self.vectors())
        write_embedding_cache(second, ["a", "b", "c"], self.vectors())
        assert first.read_bytes() == second.read_bytes()

    def test_duplicate_id_is_consistency_error(self, tmp_path):
        path = tmp_path / "emb.npy"
        write_embedding_cache(path, ["a", "b", "a"], self.vectors())
        with pytest.raises(ConsistencyError, match="duplicate"):
            read_embedding_cache(path)

    def test_torn_tail(self, tmp_path):
        path = tmp_path / "emb.npy"
        write_embedding_cache(path, ["a", "b", "c"], self.vectors())
        data = path.read_bytes()
        for cut in (len(data) - 5, 40, 0):
            path.write_bytes(data[:cut])
            with pytest.raises(ConsistencyError, match=re.escape(str(path))):
                read_embedding_cache(path)

    def test_jsonl_cache_is_consistency_error(self, tmp_path):
        path = tmp_path / "embeddings.jsonl"
        path.write_text('{"id": "a", "model": "m", "vector": [1.0, 0.0]}\n',
                        encoding="utf-8")
        with pytest.raises(ConsistencyError, match=re.escape(str(path))):
            read_embedding_cache(path)


class TestHttpEmbeddingBackend:
    def test_happy_path_reorders_by_index(self, monkeypatch):
        monkeypatch.setenv("EMB_KEY", "sk-emb")

        def respond(path, headers, body):
            data = [{"index": i, "embedding": [float(i), 0.0, 1.0]}
                    for i in range(len(body["input"]))]
            return 200, {"data": [data[1], data[2], data[0]]}  # shuffled

        with http_stub(respond) as (server, url):
            config = EmbeddingBackendConfig(
                kind="http", endpoint=url + "/v1/embeddings",
                model_name="emb-model", api_key_env="EMB_KEY", batch_size=10)
            backend = HttpEmbeddingBackend(config)
            vectors = embed_batch(["a", "b", "c"], config, backend=backend)
        assert vectors[:, 0].tolist() == [0.0, 1.0, 2.0]
        sent = server.requests[0]
        assert sent["body"] == {"model": "emb-model", "input": ["a", "b", "c"]}
        assert sent["headers"]["authorization"] == "Bearer sk-emb"

    @pytest.mark.parametrize("indexes,problem", [
        ([1, 1], "each once, got [1, 1]"), (["1", 0], "got '1'"),
        ([True, 0], "got True"), ([2.7, 0], "got 2.7"),
        ([0, 2], "each once, got [0, 2]"), ([-1, 0], "got [-1, 0]"),
        ([None, 0], "got None")])
    def test_index_that_names_no_text_once_is_protocol_error(self, indexes,
                                                            problem):
        # a wrong index would hand one text another text's vector
        def respond(path, headers, body):
            return 200, {"data": [{"index": index, "embedding": [float(i), 1.0]}
                                  for i, index in enumerate(indexes)]}

        with http_stub(respond) as (_, url):
            config = EmbeddingBackendConfig(kind="http", endpoint=url)
            with pytest.raises(ProtocolError, match=re.escape(problem)):
                HttpEmbeddingBackend(config).embed_chunk(["a", "b"])

    def test_count_mismatch_is_protocol_error(self):
        def respond(path, headers, body):
            return 200, {"data": [{"index": 0, "embedding": [1.0, 2.0]}]}

        with http_stub(respond) as (_, url):
            config = EmbeddingBackendConfig(kind="http", endpoint=url,
                                            retry=RetryPolicy(max_attempts=1))
            with pytest.raises(ProtocolError):
                embed_batch(["a", "b"], config,
                            backend=HttpEmbeddingBackend(config),
                            sleep=lambda s: None)



def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingBackendConfig(batch_size=0)
    with pytest.raises(ValueError):
        EmbeddingBackendConfig(kind="carrier-pigeon")
    with pytest.raises(ValueError):
        EmbeddingBackendConfig(timeout=0)


def test_config_from_dict():
    config = PipelineConfig.from_dict({
        "corpus_path": "c.jsonl", "workdir": "w", "coreset": {"k": 1},
        "target_accepted": 1,
        "embedding_backend": {"kind": "mock", "model_name": "m", "dim": 16,
                              "retry": {"max_attempts": 2}}}).embedding_backend
    assert config.dim == 16
    assert config.retry.max_attempts == 2
