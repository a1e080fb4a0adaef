"""Tests for the chat backend layer: mock scripting, HTTP client, retries."""

import pytest

from httpstub import http_stub
from instructsmith.embedding import EmbeddingBackendConfig, HttpEmbeddingBackend
from instructsmith.errors import (
    BackendError,
    ProtocolError,
    RateLimitedError,
    ScriptedMissError,
    ServerBackendError,
)
from instructsmith.llm_backend import (
    BackendConfig,
    ChatMessage,
    ChatReply,
    ChatRequest,
    HttpChatBackend,
    MockChatBackend,
    RetryPolicy,
    ScriptEntry,
    complete,
)
from sensitive import Recorder


def user_request(text, system=""):
    messages = []
    if system:
        messages.append(ChatMessage("system", system))
    messages.append(ChatMessage("user", text))
    return ChatRequest(messages=messages)


class TestRequestValidation:
    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=[])

    def test_last_message_must_be_user(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=[ChatMessage("user", "hi"),
                                  ChatMessage("assistant", "hello")])

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=[ChatMessage("user", "hi")], temperature=-0.1)

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("robot", "hi")

    def test_user_text_is_final_user_message(self):
        req = user_request("the question", system="be terse")
        assert req.user_text == "the question"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(retry_on=("rate_limited", "bogus"))

    def test_geometric_delays_without_jitter(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=2.0, jitter_fraction=0.0)
        assert [policy.delay_for_attempt(i) for i in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_jitter_stays_in_band(self):
        import random
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter_fraction=0.25)
        rng = random.Random(7)
        delays = [policy.delay_for_attempt(1, rng) for _ in range(200)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert max(delays) > 1.05 and min(delays) < 0.95


class TestMockBackend:
    def test_script_order_and_predicates(self):
        backend = MockChatBackend([
            ScriptEntry("alpha", "reply-a"),
            ScriptEntry(lambda t: "beta" in t, "reply-b"),
            ScriptEntry(None, "fallback", times=None),
        ])
        assert backend.send(user_request("has beta inside")).content == "reply-b"
        assert backend.send(user_request("an alpha one")).content == "reply-a"
        assert backend.send(user_request("nothing matches")).content == "fallback"
        assert backend.send(user_request("still nothing")).content == "fallback"

    def test_times_exhaustion(self):
        backend = MockChatBackend([ScriptEntry(None, "only once", times=1)])
        backend.send(user_request("first"))
        with pytest.raises(ScriptedMissError):
            backend.send(user_request("second"))

    def test_exception_reply_raises(self):
        backend = MockChatBackend([
            ScriptEntry(None, RateLimitedError("scripted 429")),
            ScriptEntry(None, "after the storm"),
        ])
        with pytest.raises(RateLimitedError):
            backend.send(user_request("x"))
        assert backend.send(user_request("x")).content == "after the storm"

    def test_callable_reply_sees_request(self):
        backend = MockChatBackend([
            ScriptEntry(None, lambda req: f"echo: {req.user_text}")])
        assert backend.send(user_request("ping")).content == "echo: ping"

    def test_transcript_is_byte_exact(self):
        backend = Recorder(MockChatBackend([ScriptEntry(None, "ok", times=None)]))
        backend.send(user_request("first\nline two", system="sys prompt"))
        backend.send(user_request("second"))
        assert len(backend.transcript) == 2
        assert backend.transcript[0].messages[0].content == "sys prompt"
        assert backend.transcript[0].user_text == "first\nline two"
        assert backend.transcript[1].user_text == "second"
        assert not hasattr(backend.inner, "transcript")  # the mock keeps none

    def test_tuple_entries_accepted(self):
        backend = MockChatBackend([("hi", "hello")])
        assert backend.send(user_request("hi there")).content == "hello"


class TestComplete:
    def test_retries_then_succeeds(self):
        backend = MockChatBackend([
            ScriptEntry(None, RateLimitedError("429")),
            ScriptEntry(None, ServerBackendError("500")),
            ScriptEntry(None, "finally"),
        ])
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.5, multiplier=2.0)
        reply = complete(user_request("x"), backend, policy, sleep=sleeps.append)
        assert reply.content == "finally"
        assert sleeps == [0.5, 1.0]

    def test_non_retryable_raises_immediately(self):
        backend = Recorder(MockChatBackend([
            ScriptEntry(None, ProtocolError("bad body")),
            ScriptEntry(None, "never reached"),
        ]))
        with pytest.raises(ProtocolError):
            complete(user_request("x"), backend, RetryPolicy(max_attempts=3),
                     sleep=lambda s: None)
        assert len(backend.transcript) == 1

    def test_exhausted_attempts_reraise_last_error(self):
        backend = Recorder(MockChatBackend([
            ScriptEntry(None, RateLimitedError("429"), times=None)]))
        with pytest.raises(RateLimitedError):
            complete(user_request("x"), backend,
                     RetryPolicy(max_attempts=2, base_delay=0.0),
                     sleep=lambda s: None)
        assert len(backend.transcript) == 2


def chat_body(content, model="served-model"):
    return {"choices": [{"message": {"role": "assistant", "content": content}}],
            "model": model,
            "usage": {"prompt_tokens": 7, "completion_tokens": 3}}


def send_chat(endpoint, api_key_env=""):
    config = BackendConfig(endpoint=endpoint, api_key_env=api_key_env)
    HttpChatBackend(config).send(user_request("q"))


def send_embedding(endpoint, api_key_env=""):
    config = EmbeddingBackendConfig(kind="http", endpoint=endpoint,
                                    api_key_env=api_key_env)
    HttpEmbeddingBackend(config).embed_chunk(["a"])


# both HTTP backends share one transport; each must map errors the same way
both_http_backends = pytest.mark.parametrize(
    "send", [send_chat, send_embedding], ids=["chat", "embedding"])


class TestHttpBackend:
    def test_happy_path_wire_format(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")

        def respond(path, headers, body):
            return 200, chat_body("the answer")

        with http_stub(respond) as (server, url):
            config = BackendConfig(endpoint=url + "/v1/chat/completions",
                                   model_name="m1", api_key_env="TEST_CHAT_KEY")
            backend = HttpChatBackend(config)
            req = ChatRequest(
                messages=[ChatMessage("system", "sys"), ChatMessage("user", "q")],
                temperature=0.7, max_output=512)
            reply = backend.send(req)
        assert reply.content == "the answer"
        assert reply.usage == {"prompt_tokens": 7, "completion_tokens": 3}
        assert reply.model_name == "served-model"
        sent = server.requests[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["headers"]["authorization"] == "Bearer sk-123"
        assert sent["body"] == {
            "model": "m1",
            "messages": [{"role": "system", "content": "sys"},
                         {"role": "user", "content": "q"}],
            "temperature": 0.7,
            "max_tokens": 512,
        }

    @both_http_backends
    def test_missing_credential_env_is_fatal(self, monkeypatch, send):
        monkeypatch.delenv("ABSENT_KEY", raising=False)
        with pytest.raises(BackendError, match="ABSENT_KEY"):
            send("http://127.0.0.1:9/x", api_key_env="ABSENT_KEY")

    @both_http_backends
    def test_status_code_mapping(self, send):
        for status, exc_type in ((429, RateLimitedError),
                                 (500, ServerBackendError),
                                 (503, ServerBackendError),
                                 (400, BackendError)):
            with http_stub(lambda p, h, b: (status, {"err": "x"})) as (_, url):
                with pytest.raises(exc_type) as excinfo:
                    send(url)
            assert excinfo.type is exc_type

    def test_malformed_body_is_protocol_error(self):
        with http_stub(lambda p, h, b: (200, {"unexpected": True})) as (_, url):
            backend = HttpChatBackend(BackendConfig(endpoint=url))
            with pytest.raises(ProtocolError):
                backend.send(user_request("q"))

    def test_complete_retries_through_http_429(self):
        state = {"calls": 0}

        def respond(path, headers, body):
            state["calls"] += 1
            if state["calls"] <= 2:
                return 429, {"error": "slow down"}
            return 200, chat_body("persistence pays")

        with http_stub(respond) as (_, url):
            config = BackendConfig(
                endpoint=url,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0))
            reply = complete(user_request("q"), HttpChatBackend(config),
                             sleep=lambda s: None)
        assert reply.content == "persistence pays"
        assert state["calls"] == 3


def test_backend_config_from_dict_round_trip():
    config = BackendConfig.from_dict({
        "kind": "http", "endpoint": "http://x/v1", "model_name": "m",
        "api_key_env": "K", "timeout": 12.5,
        "retry": {"max_attempts": 5, "base_delay": 0.1},
        "role": "generation",
    })
    assert config.endpoint == "http://x/v1"
    assert config.timeout == 12.5
    assert config.retry.max_attempts == 5
    assert config.extra == {"role": "generation"}
