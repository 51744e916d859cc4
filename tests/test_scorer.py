from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_matching_tp
from slotnoise.errors import DataError
from slotnoise.parser import Prediction
from slotnoise.scorer import (
    EvalResult,
    MatchCounts,
    aggregate,
    gold_pairs,
    prf,
    score_example,
)

from conftest import make_example, random_example


def prediction(*pairs: tuple[str, str]) -> Prediction:
    return Prediction(pairs=tuple(pairs), dropped_unknown_labels=0)


GOLD = make_example(["play", "rainy", "day", "on", "spotify"], [(1, 2, "playlist"), (4, 4, "service")])


class TestScoreExample:
    def test_exact_match_is_perfect(self):
        pred = prediction(("rainy day", "playlist"), ("spotify", "service"))
        counts = score_example(GOLD, pred)
        assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)

    def test_empty_prediction_zero_f1(self):
        counts = score_example(GOLD, prediction())
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 2)
        assert prf(counts.tp, counts.fp, counts.fn)[2] == 0.0

    def test_tp_plus_fn_equals_gold_count(self):
        rng = random.Random(0)
        for trial in range(200):
            ex = random_example(rng, f"g{trial}")
            pairs = gold_pairs(ex)
            kept = tuple(p for p in pairs if rng.random() < 0.5)
            spurious = tuple((f"junk{i}", "a") for i in range(rng.randint(0, 2)))
            counts = score_example(ex, prediction(*(kept + spurious)))
            assert counts.tp + counts.fn == len(ex.spans)

    def test_case_and_punctuation_insensitive(self):
        pred = prediction(('"Rainy Day"', "playlist"), ("SPOTIFY.", "service"))
        counts = score_example(GOLD, pred)
        assert counts.tp == 2

    def test_matching_is_one_to_one(self):
        pred = prediction(("spotify", "service"), ("spotify", "service"))
        counts = score_example(GOLD, pred)
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 1)

    def test_counts_equal_brute_force_matching(self):
        rng = random.Random(1)
        surfaces = ["a", "b", "c", "a b"]
        types = ["x", "y"]
        for _ in range(500):
            gold = [
                (rng.choice(surfaces), rng.choice(types))
                for _ in range(rng.randint(0, 5))
            ]
            pred_pairs = [
                (rng.choice(surfaces), rng.choice(types))
                for _ in range(rng.randint(0, 5))
            ]
            # Build an example whose gold pairs are exactly `gold`: tokens are
            # irrelevant for text_match, so score against a synthetic counter.
            from collections import Counter

            tp_oracle = max_matching_tp(gold, pred_pairs)
            tp_counter = sum((Counter(gold) & Counter(pred_pairs)).values())
            assert tp_counter == tp_oracle

    def test_permutation_invariance(self):
        rng = random.Random(2)
        pairs = [("rainy day", "playlist"), ("spotify", "service"), ("x", "service")]
        baseline = score_example(GOLD, prediction(*pairs))
        for _ in range(10):
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            assert score_example(GOLD, prediction(*shuffled)) == baseline

    def test_spurious_pair_never_increases_f1(self):
        rng = random.Random(3)
        for trial in range(200):
            ex = random_example(rng, f"s{trial}")
            base_pairs = tuple(p for p in gold_pairs(ex) if rng.random() < 0.7)
            base = score_example(ex, prediction(*base_pairs))
            worse = score_example(ex, prediction(*base_pairs, ("zzznope", "a")))
            assert prf(worse.tp, worse.fp, worse.fn)[2] <= prf(base.tp, base.fp, base.fn)[2]

    def test_adding_missing_gold_pair_never_decreases_f1(self):
        rng = random.Random(4)
        for trial in range(200):
            ex = random_example(rng, f"m{trial}")
            pairs = gold_pairs(ex)
            if not pairs:
                continue
            partial = tuple(pairs[1:])
            base = score_example(ex, prediction(*partial))
            better = score_example(ex, prediction(*([pairs[0]] + list(partial))))
            assert prf(better.tp, better.fp, better.fn)[2] >= prf(base.tp, base.fp, base.fn)[2]


class TestStrictSpan:
    def test_position_mismatch_fails_strict_only(self):
        ex = make_example(["jazz", "please", "play", "jazz"], [(3, 3, "genre")])
        pred = prediction(("jazz", "genre"))
        text = score_example(ex, pred, "text_match")
        strict = score_example(ex, pred, "strict_span")
        assert text.tp == 1
        assert strict.tp == 0  # leftmost match lands on token 0, not the gold span

    def test_repeated_surface_credits_each_gold_span_once(self):
        ex = make_example(["jazz", "and", "jazz"], [(0, 0, "genre"), (2, 2, "genre")])
        pred = prediction(("jazz", "genre"), ("jazz", "genre"))
        assert score_example(ex, pred, "strict_span") == MatchCounts(tp=2, fp=0, fn=0)
        assert score_example(ex, pred, "text_match") == MatchCounts(tp=2, fp=0, fn=0)

    def test_correct_position_passes_strict(self):
        pred = prediction(("rainy day", "playlist"), ("spotify", "service"))
        strict = score_example(GOLD, pred, "strict_span")
        assert strict.tp == 2

    def test_strict_never_exceeds_text_match(self):
        rng = random.Random(5)
        for trial in range(500):
            ex = random_example(rng, f"t{trial}")
            pool = gold_pairs(ex) + [("zz", "a"), (ex.tokens[0].lower(), "b")]
            pred_pairs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            pred = prediction(*pred_pairs)
            strict = score_example(ex, pred, "strict_span")
            text = score_example(ex, pred, "text_match")
            assert strict.tp <= text.tp

    def test_unknown_mode_rejected(self):
        with pytest.raises(DataError):
            score_example(GOLD, prediction(), "fuzzy")


class TestAggregate:
    def test_single_group_formula(self):
        counts = {"e1": MatchCounts(1, 1, 0)}
        result = aggregate(counts, {"e1": "Typos"})
        group = result.per_group["Typos"]
        assert group.precision == pytest.approx(50.0)
        assert group.recall == pytest.approx(100.0)
        assert group.f1 == pytest.approx(200.0 / 3.0)

    def test_identical_groups_macro_equals_micro(self):
        counts = {
            "a": MatchCounts(3, 1, 2),
            "b": MatchCounts(3, 1, 2),
            "c": MatchCounts(3, 1, 2),
        }
        groups = {"a": "G1", "b": "G2", "c": "G3"}
        result = aggregate(counts, groups)
        assert result.overall.macro_f1 == pytest.approx(result.overall.micro_f1)

    def test_clean_excluded_from_overall(self):
        counts = {"a": MatchCounts(1, 0, 0), "b": MatchCounts(0, 5, 5)}
        result = aggregate(counts, {"a": "Clean", "b": "Typos"})
        assert result.per_group["Clean"].f1 == pytest.approx(100.0)
        assert result.overall.micro_f1 == pytest.approx(0.0)

    def test_unassigned_example_is_error(self):
        with pytest.raises(DataError, match="e2"):
            aggregate({"e1": MatchCounts(1, 0, 0), "e2": MatchCounts(1, 0, 0)}, {"e1": "G"})

    def test_orphan_group_entry_is_error(self):
        with pytest.raises(DataError, match="e2"):
            aggregate({"e1": MatchCounts(1, 0, 0)}, {"e1": "G", "e2": "G"})

    def test_support_is_gold_pair_count(self):
        counts = {"a": MatchCounts(2, 1, 1), "b": MatchCounts(0, 0, 3)}
        result = aggregate(counts, {"a": "G", "b": "G"})
        assert result.per_group["G"].support == 6

    def test_result_dict_round_trip(self):
        counts = {"a": MatchCounts(2, 1, 1), "b": MatchCounts(1, 0, 2)}
        result = aggregate(counts, {"a": "Clean", "b": "Typos"})
        assert EvalResult.from_dict(result.to_dict()) == result


# Per-group (tp, fp, fn) chosen so each group lands on the reference fixture
# row 71.43 / 40.65 / 60.00 / 55.56 / 65.54 / 55.56 and the micro Overall
# over the noisy groups lands on 57.21.
TABLE_FIXTURE_COUNTS = {
    "Clean": (5, 2, 2),
    "Typos": (50, 73, 73),
    "Speech": (438, 292, 292),
    "Paraphrase": (205, 164, 164),
    "Simplification": (97, 51, 51),
    "Verbose": (210, 168, 168),
}
TABLE_FIXTURE_ROW = ["71.43", "40.65", "60.00", "55.56", "65.54", "55.56", "57.21"]


def table_fixture_result() -> EvalResult:
    counts = {}
    groups = {}
    for i, (group, (tp, fp, fn)) in enumerate(TABLE_FIXTURE_COUNTS.items()):
        ex_id = f"fx{i}"
        counts[ex_id] = MatchCounts(tp, fp, fn)
        groups[ex_id] = group
    return aggregate(counts, groups)


def test_fixture_counts_emit_reference_row():
    result = table_fixture_result()
    cells = [f"{result.per_group[g].f1:.2f}" for g in TABLE_FIXTURE_COUNTS]
    cells.append(f"{result.overall.micro_f1:.2f}")
    assert cells == TABLE_FIXTURE_ROW


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=200)
def test_prf_bounds(tp, fp, fn):
    precision, recall, f1 = prf(tp, fp, fn)
    for value in (precision, recall, f1):
        assert 0.0 <= value <= 100.0
    if precision + recall:
        assert f1 == pytest.approx(2 * precision * recall / (precision + recall))
