from __future__ import annotations

import hashlib
import json

import pytest

from slotnoise import client as client_mod
from slotnoise.client import ModelConfig, ResponseCache, cached_complete, complete, model_key
from slotnoise.errors import ClientError, ConfigError

from conftest import make_example

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
            "p",
            ModelConfig(kind="noisy_oracle", error_rate=0.0, labels=LABELS),
            side_channel=GOLD,
        )
        assert noisy == echo

    def test_noisy_oracle_full_error_never_matches_gold(self):
        gold_pairs = {("jazz", "genre"), ("spotify", "service")}
        cfg = ModelConfig(kind="noisy_oracle", error_rate=1.0, labels=LABELS, seed=3)
        for i in range(200):
            out = complete(f"prompt {i}", cfg, side_channel=GOLD)
            for line in out.splitlines():
                if line == "none":
                    continue
                surface = line.split('"')[1]
                label = line.rsplit(" is ", 1)[1].rstrip(".")
                assert (surface, label) not in gold_pairs

    def test_noisy_oracle_deterministic_per_prompt(self):
        cfg = ModelConfig(kind="noisy_oracle", error_rate=0.5, labels=LABELS, seed=1)
        a = complete("same prompt", cfg, side_channel=GOLD)
        b = complete("same prompt", cfg, side_channel=GOLD)
        c = complete("different prompt", cfg, side_channel=GOLD)
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

        def counting(prompt, cfg, side_channel=None):
            calls.append(prompt)
            return real_complete(prompt, cfg, side_channel)

        monkeypatch.setattr(client_mod, "complete", counting)
        cache = ResponseCache(tmp_path / "cache")
        cfg = ModelConfig(kind="echo_gold")
        first = cached_complete("p1", cfg, cache, side_channel=GOLD)
        second = cached_complete("p1", cfg, cache, side_channel=GOLD)
        assert first == second
        assert len(calls) == 1

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
        cached_complete("p", cfg, cache)
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
        cached_complete("p", cfg, cache)
        cache_file = tmp_path / "cache" / f"{key}.json"
        cache_file.write_text("{not json", encoding="utf-8")
        with caplog.at_level("WARNING"):
            out = cached_complete("p", cfg, cache)
        assert out == "val"
        assert "miss" in caplog.text
        assert json.loads(cache_file.read_text(encoding="utf-8"))["response"] == "val"


class _FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


class TestRemote:
    def _cfg(self):
        return ModelConfig(kind="remote", model="m", endpoint="https://api.test/v1/chat")

    def test_success_extracts_first_choice(self, monkeypatch):
        def fake_post(url, headers=None, json=None, timeout=None):
            assert json["model"] == "m"
            assert json["messages"] == [{"role": "user", "content": "hello"}]
            return _FakeResponse(200, {"choices": [{"message": {"content": "world"}}]})

        monkeypatch.setattr(client_mod.requests, "post", fake_post)
        assert complete("hello", self._cfg()) == "world"

    def test_retries_on_429_then_succeeds(self, monkeypatch):
        attempts = []
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: attempts.append(("sleep", s)))

        def fake_post(url, **kwargs):
            attempts.append(("post", url))
            posts = sum(1 for kind, _ in attempts if kind == "post")
            if posts < 3:
                return _FakeResponse(429)
            return _FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

        monkeypatch.setattr(client_mod.requests, "post", fake_post)
        assert complete("p", self._cfg()) == "ok"
        assert sum(1 for kind, _ in attempts if kind == "post") == 3

    def test_persistent_500_raises_with_status(self, monkeypatch):
        monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
        monkeypatch.setattr(
            client_mod.requests, "post", lambda url, **kw: _FakeResponse(500)
        )
        with pytest.raises(ClientError) as err:
            complete("p", self._cfg())
        assert err.value.status == 500
        assert "5 attempts" in str(err.value)

    def test_client_error_is_not_retried(self, monkeypatch):
        posts = []

        def fake_post(url, **kwargs):
            posts.append(url)
            return _FakeResponse(403)

        monkeypatch.setattr(client_mod.requests, "post", fake_post)
        with pytest.raises(ClientError) as err:
            complete("p", self._cfg())
        assert err.value.status == 403
        assert len(posts) == 1

    def test_timeout_raises(self, monkeypatch):
        def fake_post(url, **kwargs):
            raise client_mod.requests.Timeout("too slow")

        monkeypatch.setattr(client_mod.requests, "post", fake_post)
        with pytest.raises(ClientError, match="timed out"):
            complete("p", self._cfg())

    def test_bearer_token_from_environment(self, monkeypatch):
        seen = {}

        def fake_post(url, headers=None, **kwargs):
            seen.update(headers)
            return _FakeResponse(200, {"choices": [{"message": {"content": "x"}}]})

        monkeypatch.setattr(client_mod.requests, "post", fake_post)
        monkeypatch.setenv(client_mod.API_TOKEN_ENV, "sekrit")
        complete("p", self._cfg())
        assert seen.get("Authorization") == "Bearer sekrit"
