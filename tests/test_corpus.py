from __future__ import annotations

import dataclasses
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_bio_repair
from slotnoise.corpus import (
    CHUNK_SIZE,
    Dataset,
    LabeledExample,
    LabelSet,
    SlotSpan,
    bio_to_spans,
    dump_jsonl,
    is_token,
    leftmost_match,
    load_dataset,
    provenance_from_str,
    provenance_to_str,
    save_dataset,
    spans_to_bio,
)
from slotnoise.errors import ConfigError, DataError, ParseError

from conftest import make_example


class TestTypes:
    def test_labelset_rejects_duplicates(self):
        with pytest.raises(DataError):
            LabelSet(("a", "a"))

    def test_labelset_rejects_empty_and_newline(self):
        with pytest.raises(DataError):
            LabelSet(("",))
        with pytest.raises(DataError):
            LabelSet(("a\nb",))

    def test_labelset_load_of_missing_file_names_the_path(self, tmp_path):
        missing = tmp_path / "labels.txt"
        with pytest.raises(ConfigError, match="label file not found") as excinfo:
            LabelSet.load(missing)
        assert str(missing) in str(excinfo.value)

    def test_labelset_order_stable(self):
        labels = LabelSet(("b", "a", "c"))
        assert list(labels) == ["b", "a", "c"]
        assert "a" in labels and "z" not in labels

    def test_span_bounds(self):
        with pytest.raises(DataError):
            SlotSpan(2, 1, "x")
        with pytest.raises(DataError):
            SlotSpan(-1, 0, "x")

    def test_example_rejects_whitespace_tokens(self):
        with pytest.raises(DataError):
            make_example(["a b"])
        with pytest.raises(DataError):
            make_example([""])

    @pytest.mark.parametrize(
        "tok", ["", " ", "\u00a0", "\u2003", "\x1c", "\u3000", "a\tb", "a\nb", "a", "é", "\u200b", "x\u00a0"]
    )
    def test_token_rule_matches_isspace_rule(self, tok):
        valid = bool(tok) and not any(ch.isspace() for ch in tok)
        assert is_token(tok) == valid
        if valid:
            assert make_example([tok]).tokens == (tok,)
        else:
            with pytest.raises(DataError, match="bad token"):
                make_example(["ok", tok])

    def test_token_rule_agrees_on_every_code_point(self):
        for ch in map(chr, range(sys.maxunicode + 1)):
            assert is_token(ch) != ch.isspace(), hex(ord(ch))
            assert is_token(f"a{ch}b") != ch.isspace(), hex(ord(ch))

    def test_with_id_equals_replace_and_keeps_the_original(self):
        ex = make_example(["play", "jazz"], [(1, 1, "genre")], ex_id="u1", provenance=("char_typos",))
        renamed = ex.with_id("Clean/u1")
        assert renamed == dataclasses.replace(ex, id="Clean/u1")
        assert hash(renamed) == hash(dataclasses.replace(ex, id="Clean/u1"))
        assert type(renamed) is LabeledExample and ex.id == "u1"
        with pytest.raises(DataError, match="id"):
            ex.with_id("")

    def test_example_rejects_out_of_range_span(self):
        with pytest.raises(DataError):
            make_example(["a", "b"], [(0, 2, "x")])

    def test_example_rejects_overlap(self):
        with pytest.raises(DataError):
            make_example(["a", "b", "c"], [(0, 2, "x"), (1, 1, "y")])

    def test_dataset_rejects_duplicate_ids(self):
        ex = make_example(["a"], ex_id="dup")
        with pytest.raises(DataError, match="dup"):
            Dataset((ex, ex), LabelSet(()))

    def test_dataset_rejects_unknown_label(self):
        ex = make_example(["a"], [(0, 0, "x")])
        with pytest.raises(DataError, match="ex0"):
            Dataset((ex,), LabelSet(("y",)))

    def test_provenance_round_trip(self):
        assert provenance_to_str(()) == "clean"
        assert provenance_from_str("clean") == ()
        tags = ("append_irr", "char_typos")
        assert provenance_from_str(provenance_to_str(tags)) == tags
        with pytest.raises(DataError):
            provenance_from_str("bogus")


class TestLeftmostMatch:
    def test_finds_leftmost_occurrence(self):
        assert leftmost_match(["a", "b", "a", "b"], ["a", "b"]) == 0

    def test_skips_taken_positions(self):
        assert leftmost_match(["a", "b", "a", "b"], ["a", "b"], taken={1}) == 2
        assert leftmost_match(["a", "b"], ["a", "b"], taken={0}) is None

    def test_empty_needle_matches_nothing(self):
        assert leftmost_match(["a"], []) is None
        assert leftmost_match([], []) is None

    def test_needle_longer_than_haystack(self):
        assert leftmost_match(["a"], ["a", "b"]) is None


class TestBio:
    def test_basic(self):
        spans, repairs = bio_to_spans(["O", "B-artist", "I-artist", "O"])
        assert spans == [SlotSpan(1, 2, "artist")]
        assert repairs == 0

    def test_no_entities(self):
        assert bio_to_spans(["O", "O", "O"]) == ([], 0)

    def test_dangling_i_repaired(self):
        spans, repairs = bio_to_spans(["I-x", "I-x", "O"])
        assert spans == [SlotSpan(0, 1, "x")]
        assert repairs == 1

    def test_type_switch_inside_run(self):
        spans, repairs = bio_to_spans(["B-x", "I-y"])
        assert spans == [SlotSpan(0, 0, "x"), SlotSpan(1, 1, "y")]
        assert repairs == 1

    def test_malformed_tag(self):
        with pytest.raises(DataError):
            bio_to_spans(["Q-x"])

    def test_spans_to_bio_basic(self):
        assert spans_to_bio([SlotSpan(0, 0, "genre")], 2) == ["B-genre", "O"]
        assert spans_to_bio([], 3) == ["O", "O", "O"]

    def test_spans_to_bio_out_of_range(self):
        with pytest.raises(DataError):
            spans_to_bio([SlotSpan(0, 3, "x")], 3)

    def test_exhaustive_round_trip_is_canonical_repair(self):
        # All tag sequences of length <= 6 over a two-type alphabet.
        alphabet = ["O", "B-x", "I-x", "B-y"]
        for n in range(7):
            for tags in itertools.product(alphabet, repeat=n):
                spans, _ = bio_to_spans(tags)
                assert spans_to_bio(spans, n) == canonical_bio_repair(tags)

    def test_repair_is_idempotent(self):
        alphabet = ["O", "B-x", "I-x", "B-y"]
        rng = random.Random(7)
        for _ in range(300):
            tags = [rng.choice(alphabet) for _ in range(rng.randint(0, 10))]
            once = canonical_bio_repair(tags)
            assert canonical_bio_repair(once) == once
            spans, repairs = bio_to_spans(once)
            assert repairs == 0
            assert spans_to_bio(spans, len(tags)) == once


def valid_span_sets(max_n: int = 10):
    @st.composite
    def _build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        spans = []
        cursor = 0
        while cursor < n and draw(st.booleans()):
            start = draw(st.integers(min_value=cursor, max_value=n - 1))
            end = draw(st.integers(min_value=start, max_value=min(n - 1, start + 3)))
            spans.append(SlotSpan(start, end, draw(st.sampled_from(["x", "y"]))))
            cursor = end + 2
        return spans, n

    return _build()


@given(valid_span_sets())
@settings(max_examples=200)
def test_span_round_trip_identity(case):
    spans, n = case
    recovered, repairs = bio_to_spans(spans_to_bio(spans, n))
    assert repairs == 0
    assert recovered == spans


class TestIO:
    def test_jsonl_round_trip(self, tmp_path, clean_dataset):
        path = tmp_path / "copy.jsonl"
        save_dataset(clean_dataset, path)
        loaded = load_dataset(path, split_name="clean")
        assert loaded.examples == clean_dataset.examples
        assert list(loaded.labels) == list(clean_dataset.labels)

    def test_line_separators_inside_a_record_do_not_split_it(self, tmp_path):
        ex = LabeledExample("u\u2028001", ("play", "jazz"), (SlotSpan(1, 1, "genre\x85x"),))
        ds = Dataset((ex,), LabelSet(("genre\x85x",)))
        path = tmp_path / "separators.jsonl"
        save_dataset(ds, path)
        assert load_dataset(path).examples == (ex,)

    def test_single_line_bio_file(self, tmp_path):
        path = tmp_path / "tiny.conll"
        path.write_text("play\tO\njazz\tB-genre\n", encoding="utf-8")
        ds = load_dataset(path, fmt="conll_bio")
        assert len(ds) == 1
        ex = ds.examples[0]
        assert ex.tokens == ("play", "jazz")
        assert ex.spans == (SlotSpan(1, 1, "genre"),)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        ds = load_dataset(path)
        assert len(ds) == 0
        assert len(ds.labels) == 0

    def test_overlapping_spans_name_the_example(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "bad-ex", "tokens": ["a", "b", "c"], '
            '"spans": [{"start": 0, "end": 2, "type": "a"}, {"start": 1, "end": 1, "type": "b"}], '
            '"provenance": "clean"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="bad-ex"):
            load_dataset(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "ok", "tokens": ["a"], "spans": []}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_dataset(path)

    def test_record_that_is_not_an_object_is_a_parse_error(self, tmp_path):
        path = tmp_path / "listed.jsonl"
        path.write_text('{"id": "ok", "tokens": ["a"], "spans": []}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(ParseError, match=f"{path}:2: bad record"):
            load_dataset(path)

    def test_conll_parse_error_line_number(self, tmp_path):
        path = tmp_path / "broken.conll"
        path.write_text("play\tO\nno-tag-here\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_dataset(path, fmt="conll_bio")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_dataset(path, fmt="parquet")

    @pytest.mark.parametrize("n", [0, 1, CHUNK_SIZE, CHUNK_SIZE + 1])
    def test_dump_jsonl_bytes_do_not_depend_on_chunking(self, tmp_path, n):
        records = [{"id": f"r{i}", "text": "café ☕", "pairs": [["a", "b"]]} for i in range(n)]
        path = tmp_path / "records.jsonl"
        path.write_text("stale\n", encoding="utf-8")
        dump_jsonl(path, iter(records))
        expected = "".join(
            json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n" for record in records
        )
        assert path.read_text(encoding="utf-8") == expected
        assert (path.stat().st_size == 0) == (n == 0)

    def test_loaded_examples_satisfy_invariants(self, data_dir):
        for split in data_dir.glob("*.jsonl"):
            ds = load_dataset(split)
            for ex in ds:
                assert ex.tokens
                prev_end = -1
                for span in ex.spans:
                    assert 0 <= span.start <= span.end < len(ex.tokens)
                    assert span.slot_type in ds.labels
                    assert span.start > prev_end
                    prev_end = span.end
