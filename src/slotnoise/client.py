"""Model clients: a remote chat-completion endpoint plus deterministic mocks.

Mock kinds make the whole pipeline testable offline:

- echo_gold renders the gold spans of the side-channel example in the
  demonstrated answer format, so a correct pipeline scores F1 = 100.
- noisy_oracle corrupts each gold span with probability error_rate, choosing
  drop vs label-swap equiprobably (seeded per prompt), which gives analytic
  recall/precision expectations for calibration tests.
- fixed returns a constant string.

Responses are cached on disk keyed by hash(model name, prompt, temperature)
so interrupted runs resume without re-querying the backend. The keys of the
echo_gold and noisy_oracle mocks also hash the gold spans they answer from,
so a corrected gold span is answered anew.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import requests

from .corpus import LabeledExample
from .errors import ClientError, ConfigError

log = logging.getLogger(__name__)

REMOTE = "remote"
ECHO_GOLD = "echo_gold"
FIXED = "fixed"
NOISY_ORACLE = "noisy_oracle"
KINDS = (REMOTE, ECHO_GOLD, FIXED, NOISY_ORACLE)
_GOLD_KINDS = (ECHO_GOLD, NOISY_ORACLE)  # mocks answering from the side channel

API_TOKEN_ENV = "SLOTNOISE_API_TOKEN"

_MAX_ATTEMPTS = 5
_BACKOFF_BASE = 0.5


@dataclass(frozen=True)
class ModelConfig:
    kind: str = ECHO_GOLD
    model: str = ""
    endpoint: str = ""
    temperature: float = 0.0
    max_in_flight: int = 1
    timeout: float = 30.0
    error_rate: float = 0.0
    seed: int = 0
    fixed_text: str = ""
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown client kind: {self.kind!r}")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError(f"error_rate out of range: {self.error_rate}")
        if self.max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        object.__setattr__(self, "labels", tuple(self.labels))


def model_key(cfg: ModelConfig) -> str:
    """Stable model identifier used in cache keys."""
    if cfg.kind == REMOTE:
        return cfg.model or cfg.endpoint
    if cfg.kind == FIXED:
        digest = hashlib.sha256(cfg.fixed_text.encode("utf-8")).hexdigest()[:8]
        return f"fixed:{digest}"
    if cfg.kind == NOISY_ORACLE:
        return f"noisy_oracle:e={cfg.error_rate}:s={cfg.seed}"
    return cfg.kind


def _render_gold(ex: LabeledExample) -> str:
    lines = [f'"{ex.surface(span)}" is {span.slot_type}.' for span in ex.spans]
    return "\n".join(lines) if lines else "none"


def _complete_noisy(prompt: str, cfg: ModelConfig, ex: LabeledExample) -> str:
    digest = hashlib.sha256(f"{cfg.seed}:{prompt}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    lines: list[str] = []
    for span in ex.spans:
        if rng.random() < cfg.error_rate:
            if rng.random() < 0.5:
                continue  # drop
            others = [l for l in cfg.labels if l != span.slot_type]
            if not others:
                continue
            lines.append(f'"{ex.surface(span)}" is {rng.choice(others)}.')
        else:
            lines.append(f'"{ex.surface(span)}" is {span.slot_type}.')
    return "\n".join(lines) if lines else "none"


def _complete_remote(prompt: str, cfg: ModelConfig) -> str:
    if not cfg.endpoint:
        raise ConfigError("remote client requires an endpoint")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(API_TOKEN_ENV, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    last_status: int | None = None
    for attempt in range(_MAX_ATTEMPTS):
        try:
            resp = requests.post(
                cfg.endpoint, headers=headers, json=payload, timeout=cfg.timeout
            )
        except requests.Timeout as exc:
            raise ClientError(f"request to {cfg.endpoint} timed out") from exc
        except requests.RequestException as exc:
            raise ClientError(f"request to {cfg.endpoint} failed: {exc}") from exc
        if resp.status_code == 200:
            try:
                return str(resp.json()["choices"][0]["message"]["content"])
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise ClientError(
                    f"malformed response from {cfg.endpoint}: {exc}", status=200
                ) from exc
        last_status = resp.status_code
        if resp.status_code == 429 or resp.status_code >= 500:
            if attempt < _MAX_ATTEMPTS - 1:
                time.sleep(_BACKOFF_BASE * (2**attempt))
                continue
            break
        raise ClientError(
            f"request to {cfg.endpoint} rejected with status {resp.status_code}",
            status=resp.status_code,
        )
    raise ClientError(
        f"request to {cfg.endpoint} failed after {_MAX_ATTEMPTS} attempts "
        f"(last status {last_status})",
        status=last_status,
    )


def complete(
    prompt: str, cfg: ModelConfig, side_channel: LabeledExample | None = None
) -> str:
    """Return the model's raw completion for a prompt."""
    if cfg.kind == REMOTE:
        return _complete_remote(prompt, cfg)
    if cfg.kind == FIXED:
        return cfg.fixed_text
    if side_channel is None:
        raise ConfigError(f"{cfg.kind} client requires a gold side-channel example")
    if cfg.kind == ECHO_GOLD:
        return _render_gold(side_channel)
    return _complete_noisy(prompt, cfg, side_channel)


@dataclass(frozen=True)
class ResponseCache:
    """Directory-backed response store, one JSON file per cache key."""

    path: Path

    def key(
        self, cfg: ModelConfig, prompt: str, side_channel: LabeledExample | None = None
    ) -> str:
        parts = [model_key(cfg), prompt, repr(cfg.temperature)]
        if cfg.kind in _GOLD_KINDS and side_channel is not None:
            parts.append(_render_gold(side_channel))
        return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()

    def _file(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.json")

    def get(self, key: str) -> str | None:
        """The cached response, or None on a miss.

        An entry that cannot be read, is not UTF-8 JSON or holds no response
        is logged and treated as a miss.
        """
        file = self._file(key)
        try:
            with open(file, "rb") as handle:
                record = json.loads(handle.read())
            return str(record["response"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.warning("corrupt cache entry %s treated as a miss: %s", file, exc)
            return None

    def put(self, key: str, cfg: ModelConfig, prompt: str, response: str) -> None:
        os.makedirs(self.path, exist_ok=True)
        record = {
            "model": model_key(cfg),
            "temperature": cfg.temperature,
            "prompt_sha": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "response": response,
        }
        with open(self._file(key), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True))


def cached_complete(
    prompt: str,
    cfg: ModelConfig,
    cache: ResponseCache,
    side_channel: LabeledExample | None = None,
) -> str:
    key = cache.key(cfg, prompt, side_channel)
    hit = cache.get(key)
    if hit is not None:
        return hit
    response = complete(prompt, cfg, side_channel)
    cache.put(key, cfg, prompt, response)
    return response
