"""Demonstration construction: embeddings, similarity ranking, rendering.

The default embedding is a hashed character-trigram term-frequency vector
(dimension 256, L2-normalized): fully deterministic and offline. A remote
provider can be plugged in via :func:`http_embedding_provider` when higher
fidelity retrieval is wanted.

The demonstration builders choose from a :class:`PoolIndex`: ``PoolIndex(candidates)``
without a provider uses the trigram embedding, and an empty candidate list is a
DataError. A run builds one index and draws or ranks every query against it, so
each label's candidates are listed and each candidate embedded at most once per
run. Ranking is exact top-k by cosine similarity, ties broken by ascending id.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .client import _post_json
from .corpus import LabeledExample, LabelSet
from .errors import ClientError, ConfigError, DataError
from .parser import answer_clause
from .schema import check_choice

EMBED_DIM = 256
TIE_SLACK = 1e-9  # batched scores this close to the k-th are re-scored exactly

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


def http_embedding_provider(endpoint: str) -> EmbeddingProvider:
    """Provider posting {"texts": [...]} and expecting {"vectors": [[...]]}."""

    def _call(texts: Sequence[str]) -> np.ndarray:
        body = _post_json(endpoint, {"texts": list(texts)})
        try:
            return np.asarray(body["vectors"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ClientError(
                f"malformed response from {endpoint}: {exc!r}", status=200
            ) from exc

    return _call


def _embed_texts(
    texts: Sequence[str], provider: EmbeddingProvider | None, buckets: dict[str, int]
) -> np.ndarray:
    """One L2-normalized row per text (a zero row stays zero).

    A provider gets all texts in one call. The local embedding counts
    trigram buckets; buckets memoizes the bucket of every trigram seen, so
    each distinct trigram is hashed once.
    """
    if not texts:
        return np.zeros((0, EMBED_DIM))
    if provider is None:
        matrix = np.zeros((len(texts), EMBED_DIM))
        for row, text in zip(matrix, texts):
            grams = []
            for gram in _trigrams(text):
                bucket = buckets.get(gram)
                if bucket is None:
                    bucket = buckets[gram] = _bucket(gram)
                grams.append(bucket)
            row[:] = np.bincount(np.asarray(grams, dtype=np.intp), minlength=EMBED_DIM)
    else:
        matrix = np.array(provider(list(texts)), dtype=np.float64)
        if matrix.ndim != 2 or len(matrix) != len(texts):
            raise ClientError(
                f"embedding provider returned shape {matrix.shape} for {len(texts)} texts"
            )
    for row in matrix:
        norm = float(np.linalg.norm(row))
        if norm > 0:
            row /= norm
    return matrix


def embed(text: str) -> np.ndarray:
    """Embed one text locally; output is L2-normalized (the zero vector stays zero)."""
    return _embed_texts([text], None, {})[0]


class PoolIndex:
    """The candidates of one pool in pool order, listed by label and embedded.

    ``label_spans`` holds the (row, span index) of every span of each slot
    label and ``label_rows`` the rows bearing it, both in pool order;
    ``matrix`` holds the n x d candidate vectors (rows normalized as by
    :func:`embed`). Each is computed on first use, so an instance-mode run
    never lists labels and a ``random`` run never embeds, except that a
    provider embeds the pool when the index is built, labels checked first.
    """

    def __init__(
        self,
        candidates: Sequence[LabeledExample],
        provider: EmbeddingProvider | None = None,
        labels: Iterable[str] = (),
    ):
        self.candidates = tuple(candidates)
        if not self.candidates:
            raise DataError("no candidates to demonstrate from")
        self.provider = provider
        self._buckets: dict[str, int] = {}
        self.require_labels(labels)
        if provider is not None:
            self.matrix  # a provider embeds the pool now

    def require_labels(self, labels: Iterable[str]) -> None:
        """Raise DataError naming every one of labels that no candidate carries."""
        missing = [name for name in labels if name not in self.label_spans]
        if missing:
            raise DataError(f"no candidate demonstrates labels: {', '.join(missing)}")

    @cached_property
    def matrix(self) -> np.ndarray:
        return _embed_texts([c.utterance for c in self.candidates], self.provider, self._buckets)

    @cached_property
    def label_spans(self) -> dict[str, list[tuple[int, int]]]:
        spans: dict[str, list[tuple[int, int]]] = {}
        for row, ex in enumerate(self.candidates):
            for i, span in enumerate(ex.spans):
                spans.setdefault(span.slot_type, []).append((row, i))
        return spans

    @cached_property
    def label_rows(self) -> dict[str, np.ndarray]:
        rows = {name: [row for row, _ in spans] for name, spans in self.label_spans.items()}
        return {name: np.unique(np.asarray(r, dtype=np.intp)) for name, r in rows.items()}

    def __len__(self) -> int:
        return len(self.candidates)

    def embed(self, text: str) -> np.ndarray:
        """text embedded as the candidates were, with the index's provider."""
        return _embed_texts([text], self.provider, self._buckets)[0]

    def top_k(
        self,
        query: np.ndarray,
        k: int,
        rows: np.ndarray | None = None,
        scores: np.ndarray | None = None,
    ) -> list[LabeledExample]:
        """The k candidates most similar to the embedded query, as
        :func:`rank_by_similarity`, among rows (by default every candidate).

        scores, when given, is ``matrix @ query``, so a caller ranking one
        query over several row sets scores every candidate once.
        """
        if scores is None:
            scores = self.matrix @ query
        if rows is not None:
            scores = scores[rows]
        if k < len(scores):
            kth = np.partition(scores, len(scores) - k)[len(scores) - k]
            shortlist = np.flatnonzero(scores >= kth - TIE_SLACK)
        else:
            shortlist = np.arange(len(scores))
        if rows is not None:
            shortlist = rows[shortlist]
        ranked = sorted(
            (-float(np.dot(query, self.matrix[i])), self.candidates[i].id, i)
            for i in shortlist.tolist()
        )
        return [self.candidates[i] for _, _, i in ranked[:k]]


def rank_by_similarity(query: LabeledExample, index: PoolIndex, k: int) -> list[LabeledExample]:
    """Top-k candidates of index by cosine similarity to the query utterance.

    The index ranks with its provider, else the trigram embedding. Ties break
    by ascending candidate id, so the result is independent of candidate order.

    One matrix-vector product scores every candidate. BLAS batching
    reassociates the sums, so those scores can differ from per-candidate dot
    products by an ulp and flip mathematically tied candidates. Every
    candidate within TIE_SLACK of the k-th best score is therefore re-scored
    with a per-candidate dot product, and the ranking is taken on those: it
    equals a full sort of the per-candidate scores.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return index.top_k(index.embed(query.utterance), k)


@dataclass(frozen=True)
class DemoItem:
    rendered: str
    source_ids: tuple[str, ...]


@dataclass(frozen=True)
class DemonstrationSet:
    """Rendered demonstrations with provenance back to candidate example ids."""

    items: tuple[DemoItem, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        for item in self.items:
            if not item.rendered or not item.rendered.endswith("\n"):
                raise DataError("rendered demonstrations must be non-empty and newline-terminated")

    def text(self) -> str:
        return "\n".join(item.rendered.rstrip("\n") for item in self.items)


def _render_instance(ex: LabeledExample) -> str:
    if ex.spans:
        clauses = "; ".join(answer_clause(ex.surface(span), span.slot_type) for span in ex.spans)
    else:
        clauses = "none"
    return f"Sentence: {ex.utterance}\nEntities: {clauses}\n"


def build_entity_demos(
    input_ex: LabeledExample,
    index: PoolIndex,
    labels: LabelSet,
    strategy: str = RANDOM_STRATEGY,
    seed: int = 0,
) -> DemonstrationSet:
    """One ``"entity" is label.`` item per label, in label order.

    random picks uniformly over (example, span) pairs of that label;
    retrieve takes the span from the label-bearing candidate most similar to
    the input, ranked as in :func:`rank_by_similarity`. The input is embedded
    once and every candidate scored once; each label's pick is its rows' top-1.
    """
    check_choice(strategy, STRATEGIES, "strategy")
    index.require_labels(labels)
    rng = random.Random(seed)
    if strategy == RETRIEVE_STRATEGY:
        query = index.embed(input_ex.utterance)
        scores = index.matrix @ query
    items: list[DemoItem] = []
    for name in labels:
        if strategy == RANDOM_STRATEGY:
            spans = index.label_spans[name]
            row, span_idx = spans[rng.randrange(len(spans))]
            ex = index.candidates[row]
            span = ex.spans[span_idx]
        else:
            ex = index.top_k(query, 1, index.label_rows[name], scores)[0]
            span = next(s for s in ex.spans if s.slot_type == name)
        items.append(DemoItem(answer_clause(ex.surface(span), name) + ".\n", (ex.id,)))
    return DemonstrationSet(tuple(items))


def build_instance_demos(
    input_ex: LabeledExample,
    index: PoolIndex,
    strategy: str = RANDOM_STRATEGY,
    k: int = 5,
    seed: int = 0,
) -> DemonstrationSet:
    """k full examples rendered as Sentence/Entities blocks.

    random samples uniformly without replacement; retrieve takes the top-k
    by similarity, ranked by :func:`rank_by_similarity`.
    Asking for more examples than there are candidates returns them all
    with a note.
    """
    check_choice(strategy, STRATEGIES, "strategy")
    if k <= 0:
        return DemonstrationSet(())
    notes: tuple[str, ...] = ()
    if k > len(index):
        notes = (f"requested {k} demonstrations, pool has {len(index)}",)
        k = len(index)
    if strategy == RANDOM_STRATEGY:
        chosen = [index.candidates[i] for i in random.Random(seed).sample(range(len(index)), k)]
    else:
        chosen = rank_by_similarity(input_ex, index, k=k)
    items = tuple(DemoItem(_render_instance(ex), (ex.id,)) for ex in chosen)
    return DemonstrationSet(items, notes)
