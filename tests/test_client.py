from __future__ import annotations

import hashlib
import json
import random
import socket
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from slotnoise import client as client_mod
from slotnoise.client import ModelConfig, ResponseCache, cached_complete, complete, model_key
from slotnoise.demos import http_embedding_provider
from slotnoise.errors import ClientError, ConfigError
from slotnoise.perturb import http_paraphrase_provider

from conftest import make_example
from httpfake import Reply, Reset, chat_reply

GOLD = make_example(["play", "jazz", "on", "spotify"], [(1, 1, "genre"), (3, 3, "service")])
LABELS = ("genre", "service", "artist", "city")


class TestMocks:
    def test_echo_gold_renders_gold_lines(self):
        out = complete("whatever", ModelConfig(kind="echo_gold"), side_channel=GOLD)
        assert '"jazz" is genre.' in out
        assert '"spotify" is service.' in out

    def test_echo_gold_empty_gold_says_none(self):
        out = complete("x", ModelConfig(kind="echo_gold"), side_channel=make_example(["hi"]))
        assert out == "none"

    def test_echo_gold_requires_side_channel(self):
        with pytest.raises(ConfigError):
            complete("x", ModelConfig(kind="echo_gold"))

    def test_fixed_returns_constant(self):
        cfg = ModelConfig(kind="fixed", fixed_text="nothing here")
        assert complete("a", cfg) == "nothing here"
        assert complete("b", cfg) == "nothing here"

    def test_noisy_oracle_zero_error_equals_echo(self):
        echo = complete("p", ModelConfig(kind="echo_gold"), side_channel=GOLD)
        noisy = complete(
            "p", ModelConfig(kind="noisy_oracle", error_rate=0.0), side_channel=GOLD, labels=LABELS
        )
        assert noisy == echo

    def test_noisy_oracle_full_error_never_matches_gold(self):
        gold_pairs = {("jazz", "genre"), ("spotify", "service")}
        cfg = ModelConfig(kind="noisy_oracle", error_rate=1.0, seed=3)
        for i in range(200):
            out = complete(f"prompt {i}", cfg, side_channel=GOLD, labels=LABELS)
            for line in out.splitlines():
                if line == "none":
                    continue
                surface = line.split('"')[1]
                label = line.rsplit(" is ", 1)[1].rstrip(".")
                assert (surface, label) not in gold_pairs

    def test_noisy_oracle_deterministic_per_prompt(self):
        cfg = ModelConfig(kind="noisy_oracle", error_rate=0.5, seed=1)
        a = complete("same prompt", cfg, side_channel=GOLD, labels=LABELS)
        b = complete("same prompt", cfg, side_channel=GOLD, labels=LABELS)
        c = complete("different prompt", cfg, side_channel=GOLD, labels=LABELS)
        assert a == b
        assert isinstance(c, str)

    def test_error_rate_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(kind="noisy_oracle", error_rate=1.5)
        with pytest.raises(ConfigError):
            ModelConfig(max_in_flight=0)


class TestCache:
    def test_two_identical_calls_hit_backend_once(self, tmp_path, monkeypatch):
        calls = []
        real_complete = client_mod.complete

        def counting(prompt, cfg, side_channel=None, labels=()):
            calls.append(prompt)
            return real_complete(prompt, cfg, side_channel, labels)

        monkeypatch.setattr(client_mod, "complete", counting)
        cache = ResponseCache(tmp_path / "cache")
        cfg = ModelConfig(kind="echo_gold")
        first = cached_complete(["p1"], cfg, cache, [GOLD])
        second = cached_complete(["p1"], cfg, cache, [GOLD])
        assert first == second == [(complete("p1", cfg, GOLD), None)]
        assert len(calls) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_batch_reads_each_key_once_and_sends_each_miss_once(
        self, tmp_path, monkeypatch, workers
    ):
        calls, reads = [], []
        real_complete, real_get = client_mod.complete, ResponseCache.get

        def counting(prompt, cfg, side_channel=None, labels=()):
            calls.append(prompt)
            return real_complete(prompt, cfg, side_channel, labels)

        def reading(self, key):
            reads.append(key)
            return real_get(self, key)

        monkeypatch.setattr(client_mod, "complete", counting)
        monkeypatch.setattr(ResponseCache, "get", reading)
        cache = ResponseCache(tmp_path / "cache")
        cfg = ModelConfig(kind="fixed", fixed_text="val")
        cached_complete(["b"], cfg, cache, [None])
        with ThreadPoolExecutor(workers) as pool:
            mapper = pool.map if workers > 1 else map
            out = cached_complete(["a", "b", "a", "c", "a"], cfg, cache, [None] * 5, (), mapper)
        assert out == [("val", None)] * 5
        assert calls[0] == "b" and sorted(calls[1:]) == ["a", "c"]  # "b" was cached first
        assert len(reads) == 1 + 3

    def test_a_failed_request_or_unstorable_response_is_that_prompts_error(
        self, tmp_path, monkeypatch
    ):
        real_put = ResponseCache.put

        def flaky(prompt, cfg, side_channel=None, labels=()):
            if prompt == "bad":
                raise ClientError("backend down", status=503)
            return prompt.upper()

        def put(self, key, cfg, prompt, response):
            if prompt == "full":
                raise OSError("no space left on device")
            real_put(self, key, cfg, prompt, response)

        monkeypatch.setattr(client_mod, "complete", flaky)
        monkeypatch.setattr(ResponseCache, "put", put)
        cache = ResponseCache(tmp_path / "cache")
        cfg = ModelConfig(kind="fixed")
        out = cached_complete(["ok", "bad", "full", "ok"], cfg, cache, [None] * 4)
        assert out == [
            ("OK", None), ("", "backend down"), ("", "no space left on device"), ("OK", None)
        ]
        assert cache.get(cache.key(cfg, "ok")) == "OK"
        assert cache.get(cache.key(cfg, "bad")) is None
        assert cache.get(cache.key(cfg, "full")) is None

    def test_distinct_prompts_distinct_keys(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cfg = ModelConfig(kind="echo_gold")
        assert cache.key(cfg, "a") != cache.key(cfg, "b")
        assert cache.key(cfg, "a") == cache.key(cfg, "a")

    def test_different_model_or_temperature_changes_key(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        a = cache.key(ModelConfig(kind="remote", model="m1", endpoint="http://x"), "p")
        b = cache.key(ModelConfig(kind="remote", model="m2", endpoint="http://x"), "p")
        c = cache.key(
            ModelConfig(kind="remote", model="m1", endpoint="http://x", temperature=0.7), "p"
        )
        assert len({a, b, c}) == 3

    @pytest.mark.parametrize(
        "cfg",
        [ModelConfig(kind="remote", model="m1", endpoint="http://x", temperature=0.7),
         ModelConfig(kind="fixed", fixed_text="val")],
    )
    def test_remote_and_fixed_keys_ignore_the_side_channel(self, tmp_path, cfg):
        cache = ResponseCache(tmp_path / "cache")
        raw = "\x1f".join((model_key(cfg), "p", repr(cfg.temperature)))
        expected = hashlib.sha256(raw.encode("utf-8")).hexdigest()
        assert cache.key(cfg, "p") == cache.key(cfg, "p", GOLD) == expected

    @pytest.mark.parametrize(
        "cfg", [ModelConfig(kind="echo_gold"), ModelConfig(kind="noisy_oracle", error_rate=0.3)]
    )
    def test_gold_mock_keys_follow_the_gold_spans(self, tmp_path, cfg):
        cache = ResponseCache(tmp_path / "cache")
        relabeled = make_example(["play", "jazz", "on", "spotify"], [(1, 1, "artist"), (3, 3, "service")])
        assert cache.key(cfg, "p", GOLD) == cache.key(cfg, "p", GOLD)
        assert cache.key(cfg, "p", GOLD) != cache.key(cfg, "p", relabeled)

    def test_missing_entry_is_a_silent_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path / "cache")
        with caplog.at_level("WARNING"):
            assert cache.get("0" * 64) is None
        assert not caplog.text

    @pytest.mark.parametrize("damage", ["truncate", "directory", "not_utf8", "not_an_object"])
    def test_unreadable_entry_is_a_logged_miss(self, tmp_path, caplog, damage):
        cache = ResponseCache(tmp_path / "cache")
        cfg = ModelConfig(kind="fixed", fixed_text="val")
        key = cache.key(cfg, "p")
        cached_complete(["p"], cfg, cache, [None])
        cache_file = tmp_path / "cache" / f"{key}.json"
        if damage == "truncate":
            cache_file.write_bytes(cache_file.read_bytes()[:10])
        elif damage == "directory":
            cache_file.unlink()
            cache_file.mkdir()
        elif damage == "not_utf8":
            cache_file.write_bytes(b'{"response": "\xff"}')
        else:
            cache_file.write_text('["response"]', encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert cache.get(key) is None
        assert "miss" in caplog.text

    def test_corrupt_entry_treated_as_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path / "cache")
        cfg = ModelConfig(kind="fixed", fixed_text="val")
        key = cache.key(cfg, "p")
        cached_complete(["p"], cfg, cache, [None])
        cache_file = tmp_path / "cache" / f"{key}.json"
        cache_file.write_text("{not json", encoding="utf-8")
        with caplog.at_level("WARNING"):
            out = cached_complete(["p"], cfg, cache, [None])
        assert out == [("val", None)]
        assert "miss" in caplog.text
        assert json.loads(cache_file.read_text(encoding="utf-8"))["response"] == "val"


class TestRemote:
    def _cfg(self, server, **kw):
        return ModelConfig(kind="remote", model="m", endpoint=server.url, **kw)

    def test_success_extracts_first_choice(self, http_server):
        http_server.script(chat_reply("world"))
        assert complete("hello", self._cfg(http_server)) == "world"
        (seen,) = http_server.seen
        assert seen.json()["model"] == "m"
        assert seen.json()["messages"] == [{"role": "user", "content": "hello"}]

    def test_payload_bytes_are_the_compact_json_of_the_request(self, http_server):
        http_server.script(chat_reply("x"))
        complete("héllo", self._cfg(http_server, temperature=0.7))
        (seen,) = http_server.seen
        payload = {
            "model": "m",
            "messages": [{"role": "user", "content": "héllo"}],
            "temperature": 0.7,
        }
        assert seen.body == json.dumps(payload).encode("ascii")
        assert seen.headers["Content-Type"] == "application/json"

    def test_retries_on_429_then_succeeds(self, http_server, monkeypatch):
        attempts = []
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: attempts.append(("sleep", s)))
        http_server.script(Reply(429), Reply(429), chat_reply("ok"))
        assert complete("p", self._cfg(http_server)) == "ok"
        assert len(http_server.seen) == 3
        assert [kind for kind, _ in attempts] == ["sleep", "sleep"]

    def test_persistent_500_raises_with_status(self, http_server, monkeypatch):
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
        http_server.script(Reply(500))
        with pytest.raises(ClientError) as err:
            complete("p", self._cfg(http_server))
        assert err.value.status == 500
        assert "5 attempts" in str(err.value)
        assert len(http_server.seen) == client_mod._MAX_ATTEMPTS

    def test_client_error_is_not_retried(self, http_server):
        http_server.script(Reply(403))
        with pytest.raises(ClientError) as err:
            complete("p", self._cfg(http_server))
        assert err.value.status == 403
        assert len(http_server.seen) == 1

    def test_timeout_raises(self, http_server, monkeypatch):
        # A timeout is retried; it raises once every attempt has timed out.
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        http_server.script(Reply(200, {}, delay=2.0))
        with pytest.raises(ClientError, match="timed out") as err:
            complete("p", self._cfg(http_server, timeout=0.1))
        assert err.value.status is None
        assert len(sleeps) == client_mod._MAX_ATTEMPTS - 1

    def test_timeout_is_retried_then_succeeds(self, http_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        http_server.script(Reply(200, {}, delay=2.0), chat_reply("late"))
        assert complete("p", self._cfg(http_server, timeout=0.2)) == "late"
        assert len(http_server.seen) == 2
        assert len(sleeps) == 1

    def test_connection_reset_is_retried_then_succeeds(self, http_server, monkeypatch):
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
        http_server.script(Reset(), Reset(), chat_reply("back"))
        assert complete("p", self._cfg(http_server)) == "back"
        assert len(http_server.seen) == 3

    def test_refused_connection_is_not_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        cfg = ModelConfig(kind="remote", model="m", endpoint=f"http://127.0.0.1:{port}/v1")
        with pytest.raises(ClientError, match="failed") as err:
            complete("p", cfg)
        assert err.value.status is None
        assert sleeps == []

    def test_retry_after_seconds_is_honoured_and_capped(self, http_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        http_server.script(
            Reply(429, headers=(("Retry-After", "2"),)),
            Reply(503, headers=(("Retry-After", "3600"),)),
            chat_reply("ok"),
        )
        assert complete("p", self._cfg(http_server)) == "ok"
        assert sleeps == [2.0, client_mod._RETRY_AFTER_CAP]

    @pytest.mark.parametrize("value", ["Wed, 21 Oct 2015 07:28:00 GMT", "1.5", "-1", "\u00b2"])
    def test_other_retry_after_falls_back_to_jitter(self, http_server, monkeypatch, value):
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        http_server.script(Reply(429, headers=(("Retry-After", value),)), chat_reply("ok"))
        assert complete("p", self._cfg(http_server)) == "ok"
        assert len(sleeps) == 1
        assert 0.0 <= sleeps[0] <= client_mod._BACKOFF_BASE

    def test_jitter_stays_within_the_backoff_ceiling(self, http_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        http_server.script(Reply(503))
        for _ in range(20):
            with pytest.raises(ClientError):
                complete("p", self._cfg(http_server))
        ceilings = [client_mod._BACKOFF_BASE * 2**n for n in range(client_mod._MAX_ATTEMPTS - 1)]
        assert len(sleeps) == 20 * len(ceilings)
        for n, delay in enumerate(sleeps):
            assert 0.0 <= delay <= ceilings[n % len(ceilings)]
        assert len(set(sleeps)) == len(sleeps)  # drawn, not a fixed schedule

    def test_jitter_leaves_the_global_random_stream_alone(self, http_server, monkeypatch):
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
        http_server.script(Reply(503), Reply(503), chat_reply("ok"))
        state = random.getstate()
        complete("p", self._cfg(http_server))
        assert random.getstate() == state

    def test_bearer_token_from_environment(self, http_server, monkeypatch):
        http_server.script(chat_reply("x"))
        monkeypatch.setenv(client_mod.API_TOKEN_ENV, "sekrit")
        complete("p", self._cfg(http_server))
        assert http_server.seen[0].headers.get("Authorization") == "Bearer sekrit"

    def test_no_token_sends_no_authorization(self, http_server, monkeypatch):
        http_server.script(chat_reply("x"))
        monkeypatch.delenv(client_mod.API_TOKEN_ENV, raising=False)
        complete("p", self._cfg(http_server))
        assert "Authorization" not in http_server.seen[0].headers


def _chat(url):
    return complete("p", ModelConfig(kind="remote", model="m", endpoint=url))


def _embed(url):
    return http_embedding_provider(url)(["a", "b"])


def _paraphrase(url):
    return http_paraphrase_provider(url)("a b")


CALLERS = {"chat": _chat, "embedding": _embed, "paraphrase": _paraphrase}
GOOD_REPLIES = {
    "chat": chat_reply("out"),
    "embedding": Reply(200, {"vectors": [[1.0, 0.0], [0.0, 1.0]]}),
    "paraphrase": Reply(200, {"text": "b a"}),
}


class TestSharedHttpPath:
    @pytest.mark.parametrize("caller", sorted(CALLERS))
    @pytest.mark.parametrize("body", [b"not json", {"other": 1}, [1, 2]], ids=["text", "keys", "list"])
    def test_malformed_body_is_a_client_error(self, http_server, caller, body):
        http_server.script(Reply(200, body))
        with pytest.raises(ClientError, match="malformed") as err:
            CALLERS[caller](http_server.url)
        assert err.value.status == 200
        assert len(http_server.seen) == 1

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_503_is_retried_once_then_succeeds(self, http_server, monkeypatch, caller):
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        http_server.script(Reply(503), GOOD_REPLIES[caller])
        out = CALLERS[caller](http_server.url)
        assert len(http_server.seen) == 2
        assert len(sleeps) == 1
        if caller == "embedding":
            np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])
        else:
            assert out == {"chat": "out", "paraphrase": "b a"}[caller]

    def test_provider_payloads(self, http_server):
        http_server.script(GOOD_REPLIES["embedding"])
        _embed(http_server.url)
        http_server.script(GOOD_REPLIES["paraphrase"])
        _paraphrase(http_server.url)
        assert [seen.body for seen in http_server.seen] == [
            b'{"texts": ["a", "b"]}',
            b'{"text": "a b"}',
        ]

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_unsendable_endpoint_is_a_client_error(self, caller):
        with pytest.raises(ClientError):
            CALLERS[caller]("no-scheme.test/v1")
