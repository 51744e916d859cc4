from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import full_sort_ranking
from slotnoise import perturb
from slotnoise.corpus import LabelSet, load_dataset
from slotnoise.demos import (
    EMBED_DIM,
    PoolIndex,
    _trigrams,
    build_entity_demos,
    build_instance_demos,
    embed,
    rank_by_similarity,
)
from slotnoise.errors import ClientError, DataError
from slotnoise.perturb import PerturbationSpec
from slotnoise.pools import build_pool

from conftest import make_dataset, make_example


def small_pool(clean_dataset):
    return build_pool(clean_dataset, [PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.3, seed=1)])


class FavouringProvider:
    """Embeds the query "q" and the winner on one axis, all else on another."""

    def __init__(self, winner: str):
        self.winner = winner

    def __call__(self, texts):
        return np.array([[1.0, 0.0] if t in ("q", self.winner) else [0.0, 1.0] for t in texts])


class TestEmbedding:
    def test_deterministic(self):
        a = embed("play some jazz")
        b = embed("play some jazz")
        assert np.array_equal(a, b)

    def test_unit_norm_for_nonempty(self):
        vec = embed("find a sushi restaurant")
        assert vec.shape == (EMBED_DIM,)
        assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6
        assert float(np.dot(vec, vec)) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        vec = embed("")
        assert float(np.linalg.norm(vec)) == 0.0
        assert float(np.dot(vec, vec)) == 0.0

    def test_disjoint_trigrams_give_zero_cosine(self):
        # Pair chosen hash-collision-free; disjointness verified by
        # brute-force trigram intersection, then by the actual dot product.
        a, b = "play jazz", "cold wind"
        assert not set(_trigrams(a)) & set(_trigrams(b))
        assert float(np.dot(embed(a), embed(b))) == 0.0


class TestRanking:
    def _candidates(self, rng, n):
        vocab = ["play", "jazz", "rock", "sun", "rome", "paris", "book", "table", "two"]
        out = []
        for i in range(n):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(2, 8))]
            out.append(make_example(tokens, ex_id=f"c{i:04d}"))
        return out

    def test_identical_candidate_ranks_first(self):
        query = make_example(["play", "some", "jazz"])
        candidates = [
            make_example(["book", "a", "table"], ex_id="far"),
            make_example(["play", "some", "jazz"], ex_id="same"),
        ]
        top = rank_by_similarity(query, PoolIndex(candidates), k=1)
        assert top[0].id == "same"

    def test_k_larger_than_pool_returns_all_sorted(self):
        rng = random.Random(0)
        candidates = self._candidates(rng, 5)
        query = make_example(["play", "jazz"])
        got = rank_by_similarity(query, PoolIndex(candidates), k=50)
        assert len(got) == 5

    def test_matches_full_sort_oracle(self):
        rng = random.Random(1)
        candidates = self._candidates(rng, 1000)
        query = make_example(["play", "rock", "in", "paris"])
        qv = embed(query.utterance)
        sims = [float(np.dot(qv, embed(c.utterance))) for c in candidates]
        order = full_sort_ranking(sims, [c.id for c in candidates])
        for k in (1, 5, 10):
            got = [c.id for c in rank_by_similarity(query, PoolIndex(candidates), k=k)]
            want = [candidates[i].id for i in order[:k]]
            assert got == want

    def test_candidate_order_invariance(self):
        rng = random.Random(2)
        candidates = self._candidates(rng, 200)
        query = make_example(["book", "a", "table", "for", "two"])
        baseline = [c.id for c in rank_by_similarity(query, PoolIndex(candidates), k=10)]
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        assert [c.id for c in rank_by_similarity(query, PoolIndex(shuffled), k=10)] == baseline

    def test_exact_ties_take_smallest_ids(self):
        # Duplicated utterances score identically, so the shortlist around
        # the k-th score is larger than k and only the ids decide.
        rng = random.Random(3)
        tied = [f"t{i:03d}" for i in range(60)]
        rng.shuffle(tied)
        others = [f"o{i}" for i in range(20)]
        candidates = [make_example(["play", "some", "jazz"], ex_id=i) for i in tied]
        candidates += [make_example(["play", "a", "table"], ex_id=i) for i in others]
        query = make_example(["play", "some", "jazz"])
        expected = sorted(tied) + sorted(others)
        for k in (1, 7, 60, 65):
            assert [c.id for c in rank_by_similarity(query, PoolIndex(candidates), k=k)] == expected[:k]

    def test_provider_identity_reuse_serves_no_stale_vectors(self):
        # B is created right after A is freed, so CPython gives it A's id().
        query = make_example(["q"])
        candidates = [make_example(["x"], ex_id="x"), make_example(["y"], ex_id="y")]
        provider_a = FavouringProvider("x")
        assert rank_by_similarity(query, PoolIndex(candidates, provider_a), k=1)[0].id == "x"
        del provider_a
        provider_b = FavouringProvider("y")
        assert rank_by_similarity(query, PoolIndex(candidates, provider_b), k=1)[0].id == "y"


class TestPoolIndex:
    def test_rows_are_bit_identical_to_embed(self, clean_dataset):
        candidates = small_pool(clean_dataset).mixed.examples
        index = PoolIndex(candidates)
        assert index.matrix.shape == (len(candidates), EMBED_DIM)
        for row, ex in zip(index.matrix, candidates):
            assert row.tobytes() == embed(ex.utterance).tobytes()

    def test_label_rows_list_bearing_candidates_in_pool_order(self, clean_dataset):
        candidates = small_pool(clean_dataset).mixed.examples
        index = PoolIndex(candidates)
        for name, rows in index.label_rows.items():
            bearing = [i for i, ex in enumerate(candidates) if any(s.slot_type == name for s in ex.spans)]
            assert rows.tolist() == bearing

    def test_empty_candidates_are_refused_before_labels_or_provider(self):
        calls = []
        with pytest.raises(DataError, match="^no candidates to demonstrate from$"):
            PoolIndex((), provider=calls.append, labels=("genre",))
        assert calls == []

    def test_provider_row_count_is_checked(self):
        with pytest.raises(ClientError, match="shape"):
            PoolIndex([make_example(["x"], ex_id="x")], provider=lambda texts: np.ones((2, 4)))


class TestEntityDemos:
    def test_forced_choice(self):
        pool = build_pool(make_dataset([make_example(["play", "jazz"], [(1, 1, "genre")], "only")]), [])
        demos = build_entity_demos(
            make_example(["hi"]), PoolIndex(pool.clean.examples), LabelSet(("genre",)), "random", seed=0
        )
        assert demos.items[0].rendered == '"jazz" is genre.\n'
        assert demos.items[0].source_ids == ("only",)

    def test_one_item_per_label_in_label_order(self, clean_dataset):
        pool = small_pool(clean_dataset)
        input_ex = clean_dataset.examples[0]
        for pool_label in ("clean", "augment", "mixed"):
            demos = build_entity_demos(
                input_ex,
                PoolIndex(pool.select(pool_label).examples),
                clean_dataset.labels,
                "random",
                seed=3,
            )
            assert len(demos.items) == len(clean_dataset.labels)
            for item, label in zip(demos.items, clean_dataset.labels):
                assert item.rendered.rstrip("\n").endswith(f"is {label}.")

    def test_missing_label_support_is_error(self, clean_dataset):
        pool = small_pool(clean_dataset)
        labels = LabelSet(tuple(clean_dataset.labels) + ("unseen_label",))
        with pytest.raises(DataError, match="unseen_label"):
            build_entity_demos(
                clean_dataset.examples[0], PoolIndex(pool.clean.examples), labels, "random", seed=0
            )

    def test_retrieve_matches_argmax_oracle(self, clean_dataset):
        pool = small_pool(clean_dataset)
        labels = clean_dataset.labels
        query = clean_dataset.examples[5]
        demos = build_entity_demos(query, PoolIndex(pool.mixed.examples), labels, "retrieve", seed=0)
        qv = embed(query.utterance)
        for item, label in zip(demos.items, labels):
            bearing = [
                ex for ex in pool.mixed if any(s.slot_type == label for s in ex.spans)
            ]
            scored = sorted(
                bearing, key=lambda ex: (-float(np.dot(qv, embed(ex.utterance))), ex.id)
            )
            assert item.source_ids == (scored[0].id,)

    def test_retrieve_embeds_each_query_once(self, clean_dataset, data_dir):
        requests = []

        def counting_provider(texts):
            requests.append(list(texts))
            return np.stack([embed(text) for text in texts])

        pool = build_pool(clean_dataset, [])
        index = PoolIndex(pool.clean.examples, counting_provider)
        queries = load_dataset(data_dir / "typos.jsonl").examples
        labels = clean_dataset.labels
        demos = [
            build_entity_demos(query, index, labels, "retrieve")
            for query in queries
        ]
        assert len(labels) > 1
        assert len(requests) == 1 + len(queries)
        assert requests[1:] == [[query.utterance] for query in queries]
        assert demos == [
            build_entity_demos(query, PoolIndex(pool.clean.examples), labels, "retrieve")
            for query in queries
        ]

    def test_retrieve_scores_every_candidate_once_per_query(self, clean_dataset):
        products = []

        class CountingMatrix(np.ndarray):
            """Records each matrix-vector product taken of it or of its row subsets."""

            def __matmul__(self, other):
                products.append(self.shape)
                return np.asarray(self) @ other

        pool = small_pool(clean_dataset)
        index = PoolIndex(pool.mixed.examples)
        index.matrix = index.matrix.view(CountingMatrix)
        labels = clean_dataset.labels
        queries = clean_dataset.examples[:5]
        for query in queries:
            assert build_entity_demos(
                query, index, labels, "retrieve"
            ) == build_entity_demos(query, PoolIndex(pool.mixed.examples), labels, "retrieve")
        assert len(labels) > 1
        assert products == [index.matrix.shape] * len(queries)

    def test_random_is_pure_function_of_seed(self, clean_dataset):
        pool = small_pool(clean_dataset)
        query = clean_dataset.examples[2]
        first = build_entity_demos(
            query, PoolIndex(pool.clean.examples), clean_dataset.labels, "random", seed=11
        )
        second = build_entity_demos(
            query, PoolIndex(pool.clean.examples), clean_dataset.labels, "random", seed=11
        )
        assert first == second


class TestInstanceDemos:
    def test_single_example_lists_all_spans_in_order(self):
        ex = make_example(
            ["play", "jazz", "on", "spotify"], [(1, 1, "genre"), (3, 3, "service")], "p1"
        )
        pool = build_pool(make_dataset([ex]), [])
        demos = build_instance_demos(
            make_example(["hi"]), PoolIndex(pool.clean.examples), "random", k=1, seed=0
        )
        assert demos.items[0].rendered == (
            'Sentence: play jazz on spotify\nEntities: "jazz" is genre; "spotify" is service\n'
        )

    def test_no_spans_renders_none(self):
        ex = make_example(["hello", "there"], ex_id="empty")
        pool = build_pool(make_dataset([ex]), [])
        demos = build_instance_demos(
            make_example(["hi"]), PoolIndex(pool.clean.examples), "random", k=1, seed=0
        )
        assert demos.items[0].rendered.endswith("Entities: none\n")

    def test_retrieve_top3_matches_oracle(self, clean_dataset):
        pool = small_pool(clean_dataset)
        query = clean_dataset.examples[7]
        demos = build_instance_demos(query, PoolIndex(pool.mixed.examples), "retrieve", k=3, seed=0)
        qv = embed(query.utterance)
        scored = sorted(
            pool.mixed.examples,
            key=lambda ex: (-float(np.dot(qv, embed(ex.utterance))), ex.id),
        )
        assert [item.source_ids[0] for item in demos.items] == [ex.id for ex in scored[:3]]

    def test_k_beyond_pool_returns_all_with_note(self, clean_dataset):
        pool = build_pool(clean_dataset, [])
        demos = build_instance_demos(
            clean_dataset.examples[0], PoolIndex(pool.clean.examples), "random", k=999, seed=0
        )
        assert len(demos.items) == len(clean_dataset)
        assert demos.notes

    def test_k_zero_is_empty(self, clean_dataset):
        pool = build_pool(clean_dataset, [])
        demos = build_instance_demos(
            clean_dataset.examples[0], PoolIndex(pool.clean.examples), "random", k=0, seed=0
        )
        assert demos.items == ()
        assert demos.text() == ""

    def test_random_sampling_without_replacement(self, clean_dataset):
        pool = build_pool(clean_dataset, [])
        demos = build_instance_demos(
            clean_dataset.examples[0], PoolIndex(pool.clean.examples), "random", k=10, seed=4
        )
        sources = [item.source_ids[0] for item in demos.items]
        assert len(sources) == len(set(sources)) == 10

    def test_rendered_contains_selected_surfaces_verbatim(self, clean_dataset):
        pool = build_pool(clean_dataset, [])
        demos = build_instance_demos(
            clean_dataset.examples[1], PoolIndex(pool.clean.examples), "random", k=5, seed=9
        )
        by_id = {ex.id: ex for ex in pool.clean}
        for item in demos.items:
            source = by_id[item.source_ids[0]]
            for span in source.spans:
                assert f'"{source.surface(span)}"' in item.rendered
