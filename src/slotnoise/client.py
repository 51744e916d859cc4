"""Model clients: a remote chat-completion endpoint plus deterministic mocks.

Mock kinds make the whole pipeline testable offline:

- echo_gold renders the gold spans of the side-channel example in the
  demonstrated answer format, so a correct pipeline scores F1 = 100.
- noisy_oracle corrupts each gold span with probability error_rate, choosing
  drop vs label-swap equiprobably (seeded per prompt), which gives analytic
  recall/precision expectations for calibration tests.
- fixed returns a constant string.

Responses are cached on disk keyed by hash(model name, prompt, temperature,
and for echo_gold and noisy_oracle the gold spans they answer from), so an
interrupted run resumes and a corrected gold span is answered anew. Only the
thread calling cached_complete reads or writes the cache, never its workers.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .corpus import LabeledExample, derive_seed
from .errors import ClientError, ConfigError
from .parser import answer_clause
from .schema import check_choice

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
_RETRY_AFTER_CAP = 60.0
# Transport failures worth another attempt; a refused connection, a DNS or
# TLS failure or a garbled response is not, since retrying cannot fix it.
_TRANSIENT = (TimeoutError, ConnectionResetError)


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

    def __post_init__(self):
        check_choice(self.kind, KINDS, "model kind")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError(f"error_rate out of range: {self.error_rate}")
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout!r}")
        if self.max_in_flight < 1:
            raise ConfigError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.kind == REMOTE and not self.endpoint:
            raise ConfigError("remote client requires an endpoint")


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
    lines = [answer_clause(ex.surface(span), span.slot_type) + "." for span in ex.spans]
    return "\n".join(lines) if lines else "none"


def _complete_noisy(
    prompt: str, cfg: ModelConfig, ex: LabeledExample, labels: tuple[str, ...]
) -> str:
    rng = random.Random(derive_seed(cfg.seed, prompt))
    lines: list[str] = []
    for span in ex.spans:
        label = span.slot_type
        if rng.random() < cfg.error_rate:
            if rng.random() < 0.5:
                continue  # drop
            others = [l for l in labels if l != span.slot_type]
            if not others:
                continue
            label = rng.choice(others)
        lines.append(answer_clause(ex.surface(span), label) + ".")
    return "\n".join(lines) if lines else "none"


def _retry_delay(attempt: int, retry_after: str | None) -> float:
    """Seconds to wait before retry number attempt + 1.

    A delta-seconds Retry-After (RFC 9110 section 10.2.3) is honoured up to
    _RETRY_AFTER_CAP; otherwise full jitter: uniform in [0, base * 2**attempt].
    The jitter comes from a fresh generator so it never draws from, or
    reseeds, the run's seeded streams.
    """
    value = (retry_after or "").strip()
    if value.isascii() and value.isdigit():
        return min(float(value), _RETRY_AFTER_CAP)
    return random.Random().uniform(0.0, _BACKOFF_BASE * 2**attempt)


def _post_json(
    url: str, payload: object, timeout: float = 30.0, headers: dict[str, str] | None = None
) -> dict:
    """POST payload as JSON and return the JSON object of the 200 response.

    Timeouts, connection resets, 429 and 5xx are retried, up to _MAX_ATTEMPTS
    attempts in all; any other failure raises at once. Every failure is a
    ClientError carrying the HTTP status when a response was received.
    Proxy environment variables and TLS verification are urllib's defaults.
    """
    try:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json", **(headers or {})}
        )
    except ValueError as exc:  # a NaN in the payload, or a URL without a scheme
        raise ClientError(f"request to {url} cannot be sent: {exc}") from exc
    for attempt in range(_MAX_ATTEMPTS):
        retry_after = None
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, retry_after = exc.code, exc.headers.get("Retry-After")
            exc.close()
            if status != 429 and status < 500:
                raise ClientError(
                    f"request to {url} rejected with status {status}", status=status
                ) from exc
            last = f"last status {status}"
        except (OSError, http.client.HTTPException) as exc:
            # urllib wraps failures while sending in URLError; those while
            # reading the response arrive bare.
            reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
            if not isinstance(reason, _TRANSIENT):
                raise ClientError(f"request to {url} failed: {reason}") from exc
            status = None
            last = "timed out" if isinstance(reason, TimeoutError) else f"{reason!r}"
        else:
            if status != 200:
                raise ClientError(
                    f"request to {url} rejected with status {status}", status=status
                )
            try:
                result = json.loads(body)
            except ValueError as exc:
                raise ClientError(f"malformed response from {url}: {exc}", status=200) from exc
            if not isinstance(result, dict):
                raise ClientError(
                    f"malformed response from {url}: not a JSON object", status=200
                )
            return result
        if attempt < _MAX_ATTEMPTS - 1:
            time.sleep(_retry_delay(attempt, retry_after))
    raise ClientError(
        f"request to {url} failed after {_MAX_ATTEMPTS} attempts ({last})", status=status
    )


def _complete_remote(prompt: str, cfg: ModelConfig) -> str:
    token = os.environ.get(API_TOKEN_ENV, "")
    headers = {"Authorization": f"Bearer {token}"} if token else None
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    body = _post_json(cfg.endpoint, payload, cfg.timeout, headers)
    try:
        return str(body["choices"][0]["message"]["content"])
    except (KeyError, IndexError, TypeError) as exc:
        raise ClientError(
            f"malformed response from {cfg.endpoint}: {exc!r}", status=200
        ) from exc


def complete(
    prompt: str,
    cfg: ModelConfig,
    side_channel: LabeledExample | None = None,
    labels: tuple[str, ...] = (),
) -> str:
    """Return the model's raw completion; noisy_oracle swaps gold labels for others in labels."""
    if cfg.kind == REMOTE:
        return _complete_remote(prompt, cfg)
    if cfg.kind == FIXED:
        return cfg.fixed_text
    if side_channel is None:
        raise ConfigError(f"{cfg.kind} client requires a gold side-channel example")
    if cfg.kind == ECHO_GOLD:
        return _render_gold(side_channel)
    return _complete_noisy(prompt, cfg, side_channel, labels)


@dataclass(frozen=True)
class ResponseCache:
    """Directory-backed response store, one JSON file per cache key."""

    path: Path

    def __post_init__(self):
        os.makedirs(self.path, exist_ok=True)  # a path naming a file fails here, once

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
        record = {
            "model": model_key(cfg),
            "temperature": cfg.temperature,
            "prompt_sha": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "response": response,
        }
        with open(self._file(key), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True))


def cached_complete(
    prompts: Sequence[str],
    cfg: ModelConfig,
    cache: ResponseCache,
    side_channels: Sequence[LabeledExample | None],
    labels: tuple[str, ...] = (),
    mapper: Callable = map,
) -> list[tuple[str, str | None]]:
    """One (response, error) per prompt, in order; error is None on success.

    The calling thread reads each distinct key once, sends each missing key once
    through mapper (map, or an executor's map), and stores each response as it
    arrives. A request that raises, or a response that cannot be stored, gives
    its prompts an empty response and the error's text.
    """
    keys = [cache.key(cfg, p, ex) for p, ex in zip(prompts, side_channels)]
    done = {key: (hit, None) for key in dict.fromkeys(keys) if (hit := cache.get(key)) is not None}
    # Each missing key, in first-seen order, to one of its prompts; equal keys ask the same.
    missing = {key: i for i, key in enumerate(keys) if key not in done}

    def _ask(i: int) -> tuple[str, str | None]:
        try:
            return complete(prompts[i], cfg, side_channels[i], labels), None
        except Exception as exc:
            return "", str(exc)

    for (key, i), (response, error) in zip(missing.items(), mapper(_ask, missing.values())):
        if error is None:
            try:
                cache.put(key, cfg, prompts[i], response)
            except OSError as exc:
                response, error = "", str(exc)
        done[key] = response, error
    return [done[key] for key in keys]
