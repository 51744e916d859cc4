"""Demonstration construction: embeddings, similarity ranking, rendering.

The default embedding is a hashed character-trigram term-frequency vector
(dimension 256, L2-normalized): fully deterministic and offline. A remote
provider can be plugged in via :func:`http_embedding_provider` when higher
fidelity retrieval is wanted.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import requests

from .corpus import LabeledExample, LabelSet
from .errors import ClientError, ConfigError, DataError
from .pools import DataPool

EMBED_DIM = 256

ENTITY_MODE = "entity"
INSTANCE_MODE = "instance"
MODES = (ENTITY_MODE, INSTANCE_MODE)

RANDOM_STRATEGY = "random"
RETRIEVE_STRATEGY = "retrieve"
STRATEGIES = (RANDOM_STRATEGY, RETRIEVE_STRATEGY)

EmbeddingProvider = Callable[[Sequence[str]], np.ndarray]


def _trigrams(text: str) -> list[str]:
    text = text.lower()
    if len(text) < 3:
        return [text] if text else []
    return [text[i : i + 3] for i in range(len(text) - 2)]


def _bucket(gram: str) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big") % EMBED_DIM


_EMBED_CACHE: dict[str, np.ndarray] = {}


def _local_embed(text: str) -> np.ndarray:
    cached = _EMBED_CACHE.get(text)
    if cached is not None:
        return cached
    vec = np.zeros(EMBED_DIM, dtype=np.float64)
    for gram in _trigrams(text):
        vec[_bucket(gram)] += 1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    vec.flags.writeable = False
    if len(_EMBED_CACHE) > 200_000:
        _EMBED_CACHE.clear()
    _EMBED_CACHE[text] = vec
    return vec


def http_embedding_provider(endpoint: str, timeout: float = 30.0) -> EmbeddingProvider:
    """Provider posting {"texts": [...]} and expecting {"vectors": [[...]]}."""

    def _call(texts: Sequence[str]) -> np.ndarray:
        try:
            resp = requests.post(endpoint, json={"texts": list(texts)}, timeout=timeout)
        except requests.RequestException as exc:
            raise ClientError(f"embedding provider unreachable: {endpoint}: {exc}") from exc
        if resp.status_code != 200:
            raise ClientError(f"embedding provider error from {endpoint}", status=resp.status_code)
        return np.asarray(resp.json()["vectors"], dtype=np.float64)

    return _call


def embed(text: str, provider: EmbeddingProvider | None = None) -> np.ndarray:
    """Embed one text; output is L2-normalized (the zero vector stays zero)."""
    if provider is None:
        return _local_embed(text)
    vec = np.asarray(provider([text])[0], dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0 else vec


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


_VECTOR_CACHE: dict[tuple, list[np.ndarray]] = {}


def _candidate_vectors(
    candidates: Sequence[LabeledExample], provider: EmbeddingProvider | None
) -> list[np.ndarray]:
    key = (id(provider) if provider is not None else 0,) + tuple(
        c.utterance for c in candidates
    )
    cached = _VECTOR_CACHE.get(key)
    if cached is None:
        cached = [embed(c.utterance, provider) for c in candidates]
        if len(_VECTOR_CACHE) > 512:
            _VECTOR_CACHE.clear()
        _VECTOR_CACHE[key] = cached
    return cached


def rank_by_similarity(
    query: LabeledExample,
    candidates: Sequence[LabeledExample],
    k: int,
    provider: EmbeddingProvider | None = None,
) -> list[LabeledExample]:
    """Top-k candidates by cosine similarity to the query utterance.

    Ties break by ascending candidate id, so the result is independent of
    the candidate list order. Similarities are per-candidate dot products
    (not a batched matmul): BLAS batching reassociates the sums and can flip
    mathematically-tied candidates by one ulp.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not candidates:
        return []
    query_vec = embed(query.utterance, provider)
    vectors = _candidate_vectors(candidates, provider)
    sims = [float(np.dot(query_vec, vec)) for vec in vectors]
    order = sorted(range(len(candidates)), key=lambda i: (-sims[i], candidates[i].id))
    return [candidates[i] for i in order[:k]]


def entity_line(surface: str, label: str) -> str:
    """The canonical demonstrated answer line for one entity."""
    return f'"{surface}" is {label}.\n'


@dataclass(frozen=True)
class DemoItem:
    rendered: str
    source_ids: tuple[str, ...]


@dataclass(frozen=True)
class DemonstrationSet:
    """Rendered demonstrations with provenance back to pool example ids."""

    mode: str
    items: tuple[DemoItem, ...]
    pool_label: str
    strategy: str
    k: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown demo mode: {self.mode!r}")
        for item in self.items:
            if not item.rendered or not item.rendered.endswith("\n"):
                raise DataError("rendered demonstrations must be non-empty and newline-terminated")

    def text(self) -> str:
        return "\n".join(item.rendered.rstrip("\n") for item in self.items)


def _render_instance(ex: LabeledExample) -> str:
    if ex.spans:
        clauses = "; ".join(
            f'"{ex.surface(span)}" is {span.slot_type}' for span in ex.spans
        )
    else:
        clauses = "none"
    return f"Sentence: {ex.utterance}\nEntities: {clauses}\n"


def build_entity_demos(
    input_ex: LabeledExample,
    pool: DataPool,
    pool_label: str,
    labels: LabelSet,
    strategy: str = RANDOM_STRATEGY,
    seed: int = 0,
    provider: EmbeddingProvider | None = None,
) -> DemonstrationSet:
    """One ``"entity" is label.`` item per label, in label order.

    random picks uniformly over (example, span) pairs of that label;
    retrieve takes the span from the label-bearing example most similar to
    the input utterance.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy: {strategy!r}")
    ds = pool.select(pool_label)
    by_label: dict[str, list[tuple[LabeledExample, int]]] = {name: [] for name in labels}
    for ex in ds:
        for i, span in enumerate(ex.spans):
            if span.slot_type in by_label:
                by_label[span.slot_type].append((ex, i))
    missing = [name for name in labels if not by_label[name]]
    if missing:
        raise DataError(
            f"pool {pool_label!r} has no example for labels: {', '.join(missing)}"
        )
    rng = random.Random(seed)
    items: list[DemoItem] = []
    for name in labels:
        if strategy == RANDOM_STRATEGY:
            ex, span_idx = by_label[name][rng.randrange(len(by_label[name]))]
            span = ex.spans[span_idx]
        else:
            bearing: list[LabeledExample] = []
            seen: set[str] = set()
            for ex, _ in by_label[name]:
                if ex.id not in seen:
                    seen.add(ex.id)
                    bearing.append(ex)
            ex = rank_by_similarity(input_ex, bearing, k=1, provider=provider)[0]
            span = next(s for s in ex.spans if s.slot_type == name)
        items.append(DemoItem(entity_line(ex.surface(span), name), (ex.id,)))
    return DemonstrationSet(
        mode=ENTITY_MODE,
        items=tuple(items),
        pool_label=pool_label,
        strategy=strategy,
        k=len(items),
    )


def build_instance_demos(
    input_ex: LabeledExample,
    pool: DataPool,
    pool_label: str,
    strategy: str = RANDOM_STRATEGY,
    k: int = 5,
    seed: int = 0,
    provider: EmbeddingProvider | None = None,
) -> DemonstrationSet:
    """k full examples rendered as Sentence/Entities blocks.

    random samples uniformly without replacement; retrieve takes the top-k
    by similarity. Asking for more examples than the pool holds returns the
    whole pool with a note.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy: {strategy!r}")
    if k <= 0:
        return DemonstrationSet(INSTANCE_MODE, (), pool_label, strategy, 0)
    ds = pool.select(pool_label)
    if not len(ds):
        raise DataError(f"pool {pool_label!r} is empty")
    notes: tuple[str, ...] = ()
    if k > len(ds):
        notes = (f"requested {k} demonstrations, pool has {len(ds)}",)
        k = len(ds)
    if strategy == RANDOM_STRATEGY:
        rng = random.Random(seed)
        chosen = [ds.examples[i] for i in rng.sample(range(len(ds)), k)]
    else:
        chosen = rank_by_similarity(input_ex, ds.examples, k=k, provider=provider)
    items = tuple(DemoItem(_render_instance(ex), (ex.id,)) for ex in chosen)
    return DemonstrationSet(
        mode=INSTANCE_MODE,
        items=items,
        pool_label=pool_label,
        strategy=strategy,
        k=len(items),
        notes=notes,
    )
