from __future__ import annotations

import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_subsequence, levenshtein, remap_spans_over_survivors
from slotnoise import perturb
from slotnoise.corpus import SlotSpan
from slotnoise.pools import build_pool
from slotnoise.errors import ConfigError
from slotnoise.perturb import (
    PerturbationReport,
    PerturbationSpec,
    apply_perturbation,
    compose,
    display_name,
    kind_token,
    perturb_dataset,
    spec_from_dict,
    spec_to_dict,
)

from conftest import make_dataset, make_example, random_example


def spec(kind: str, p: float = 0.1, seed: int = 0, **assets) -> PerturbationSpec:
    return PerturbationSpec(kind=kind, p=p, seed=seed, assets=assets)


class TestSpec:
    def test_probability_range(self):
        with pytest.raises(ConfigError):
            spec(perturb.CHAR_TYPOS, p=1.5)

    def test_composite_needs_members(self):
        with pytest.raises(ConfigError):
            PerturbationSpec(kind=perturb.COMPOSITE)

    def test_no_nested_composites(self):
        inner = compose([spec(perturb.CHAR_TYPOS)])
        with pytest.raises(ConfigError):
            compose([inner])

    def test_compose_takes_no_seed(self):
        with pytest.raises(TypeError):
            compose([spec(perturb.CHAR_TYPOS)], seed=1)

    @pytest.mark.parametrize("field", [{"p": 0.5}, {"seed": 3}, {"assets": {"sentence_pool": ["x"]}}])
    def test_composite_holds_only_members(self, field):
        members = (spec(perturb.CHAR_TYPOS),)
        with pytest.raises(ConfigError, match="composite"):
            PerturbationSpec(kind=perturb.COMPOSITE, members=members, **field)
        data = {"kind": perturb.COMPOSITE, "members": [spec_to_dict(members[0])], **field}
        with pytest.raises(ConfigError, match=repr(next(iter(field)))):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "kind, key",
        [
            (perturb.CHAR_TYPOS, "homophone_lexicon"),
            (perturb.WORD_DELETE, "insert_vocab"),
            (perturb.WORD_HOMOPHONE, "sentence_pool"),
            (perturb.APPEND_IRR, "paraphrase_provider"),
        ],
    )
    def test_spec_takes_only_the_asset_its_kind_reads(self, kind, key):
        with pytest.raises(ConfigError, match=f"{kind} spec reads no asset {key!r}"):
            spec(kind, **{key: "x"})
        with pytest.raises(ConfigError, match=repr(key)):
            spec_from_dict({"kind": kind, "assets": {key: "x"}})

    def test_composite_dict_has_only_kind_and_members(self):
        composite = compose([spec(perturb.CHAR_TYPOS, p=0.3, seed=1)])
        assert spec_to_dict(composite) == {
            "kind": perturb.COMPOSITE,
            "members": [{"kind": perturb.CHAR_TYPOS, "p": 0.3, "seed": 1}],
        }

    def test_dict_round_trip(self):
        composite = compose(
            [spec(perturb.WORD_HOMOPHONE, p=0.5, seed=2), spec(perturb.CHAR_TYPOS, p=0.3, seed=1)]
        )
        assert spec_from_dict(spec_to_dict(composite)) == composite


class TestCharTypos:
    def test_p_zero_is_identity_modulo_provenance(self):
        ex = make_example(["play", "jazz"], [(1, 1, "genre")])
        out, report = apply_perturbation(ex, spec(perturb.CHAR_TYPOS, p=0.0))
        assert out.tokens == ex.tokens
        assert out.spans == ex.spans
        assert out.provenance == (perturb.CHAR_TYPOS,)
        assert report.tokens_edited == 0

    def test_p_one_gives_edit_distance_exactly_one(self):
        rng = random.Random(0)
        for trial in range(200):
            ex = random_example(rng, f"e{trial}")
            out, report = apply_perturbation(ex, spec(perturb.CHAR_TYPOS, p=1.0, seed=trial))
            assert len(out.tokens) == len(ex.tokens)
            assert report.tokens_edited == len(ex.tokens)
            for before, after in zip(ex.tokens, out.tokens):
                assert levenshtein(before, after) == 1

    def test_single_char_token_never_emptied(self):
        ex = make_example(["a"])
        for seed in range(50):
            out, _ = apply_perturbation(ex, spec(perturb.CHAR_TYPOS, p=1.0, seed=seed))
            assert out.tokens[0]

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=0, max_value=1))
    @settings(max_examples=100)
    def test_spans_never_move(self, seed, p):
        ex = make_example(["play", "some", "jazz", "now"], [(2, 2, "genre")])
        out, _ = apply_perturbation(ex, spec(perturb.CHAR_TYPOS, p=p, seed=seed))
        assert out.spans == ex.spans
        assert len(out.tokens) == len(ex.tokens)


class TestHomophone:
    def test_forced_replacement(self):
        s = spec(perturb.WORD_HOMOPHONE, p=1.0, homophone_lexicon={"two": ["too", "to"]})
        ex = make_example(["two", "cats"])
        out, report = apply_perturbation(ex, s)
        assert out.tokens[0] in ("too", "to")
        assert out.tokens[1] == "cats"
        assert report.tokens_edited == 1
        assert report.eligible_tokens == 1

    def test_p_zero_identity(self):
        s = spec(perturb.WORD_HOMOPHONE, p=0.0, homophone_lexicon={"two": ["too"]})
        ex = make_example(["two", "cats"], [(0, 0, "num")])
        out, _ = apply_perturbation(ex, s)
        assert out.tokens == ex.tokens
        assert out.spans == ex.spans

    def test_missing_lexicon_asset(self):
        s = spec(perturb.WORD_HOMOPHONE, p=0.5, homophone_lexicon="/nonexistent/lexicon.txt")
        with pytest.raises(ConfigError, match="lexicon"):
            apply_perturbation(make_example(["two"]), s)

    def test_lexicon_file_keeps_only_single_token_alternatives(self, tmp_path):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(
            "two\ttoo, t o,\u00a0to\u00a0,tu\u3000u,t\u2003w, ,tew\n", encoding="utf-8"
        )
        s = spec(perturb.WORD_HOMOPHONE, p=1.0, homophone_lexicon=str(lexicon))
        seen = set()
        for seed in range(40):
            out, _ = apply_perturbation(make_example(["two"]), replace(s, seed=seed))
            seen.add(out.tokens[0])
        assert seen == {"too", "to", "tew"}

    def test_binomial_concentration(self):
        # 10,000 eligible tokens at p=0.3 must land inside the 3-sigma band.
        lexicon = {"two": ["too"]}
        n = 10_000
        ds = make_dataset(
            [make_example(["two"] * 10, ex_id=f"h{i}") for i in range(n // 10)]
        )
        _, report = perturb_dataset(
            ds, spec(perturb.WORD_HOMOPHONE, p=0.3, seed=5, homophone_lexicon=lexicon)
        )
        assert report.eligible_tokens == n
        band = 3 * math.sqrt(0.3 * 0.7 / n)
        assert abs(report.realized_edit_rate - 0.3) < band


class TestWordDelete:
    def test_index_shift(self):
        ex = make_example(["please", "play", "jazz"], [(2, 2, "genre")])
        # Find a seed deleting exactly token 0.
        for seed in range(500):
            out, report = apply_perturbation(ex, spec(perturb.WORD_DELETE, p=0.34, seed=seed))
            if out.tokens == ("play", "jazz"):
                assert out.spans == (SlotSpan(1, 1, "genre"),)
                assert report.tokens_edited == 1
                return
        pytest.fail("no seed deleted exactly the first token")

    def test_interior_deletion_shrinks_span(self):
        ex = make_example(["a", "b", "c", "d", "e"], [(1, 3, "t")])
        for seed in range(500):
            out, report = apply_perturbation(ex, spec(perturb.WORD_DELETE, p=0.2, seed=seed))
            if len(out.tokens) == 4 and "c" not in out.tokens:
                assert out.spans == (SlotSpan(1, 2, "t"),)
                assert report.spans_repaired == 1
                return
        pytest.fail("no seed deleted exactly the interior token")

    def test_whole_span_deleted_is_dropped(self):
        ex = make_example(["play", "jazz", "now"], [(1, 1, "genre")])
        for seed in range(500):
            out, report = apply_perturbation(ex, spec(perturb.WORD_DELETE, p=0.34, seed=seed))
            if "jazz" not in out.tokens:
                assert report.spans_dropped == 1
                assert out.spans == ()
                return
        pytest.fail("no seed deleted the span token")

    def test_single_token_example_passes_through(self):
        ex = make_example(["solo"])
        out, report = apply_perturbation(ex, spec(perturb.WORD_DELETE, p=1.0))
        assert out.tokens == ex.tokens
        assert report.notes

    def test_at_least_one_token_survives(self):
        ex = make_example(["a", "b", "c"])
        for seed in range(100):
            out, _ = apply_perturbation(ex, spec(perturb.WORD_DELETE, p=1.0, seed=seed))
            assert len(out.tokens) >= 1

    def test_remap_matches_survivor_oracle(self):
        rng = random.Random(1)
        for trial in range(1000):
            ex = random_example(rng, f"d{trial}", unique_tokens=True)
            out, _ = apply_perturbation(
                ex, spec(perturb.WORD_DELETE, p=rng.choice([0.1, 0.3, 0.6]), seed=trial)
            )
            survivors = set(out.tokens)
            kept = [tok in survivors for tok in ex.tokens]
            expected = remap_spans_over_survivors(
                [(s.start, s.end, s.slot_type) for s in ex.spans], kept
            )
            assert [(s.start, s.end, s.slot_type) for s in out.spans] == expected


class TestWordInsert:
    def test_p_zero_identity(self):
        ex = make_example(["play", "jazz"], [(1, 1, "genre")])
        out, _ = apply_perturbation(ex, spec(perturb.WORD_INSERT, p=0.0, insert_vocab=["x"]))
        assert out.tokens == ex.tokens
        assert out.spans == ex.spans

    def test_shift_before_span(self):
        ex = make_example(["play", "smooth", "jazz"], [(1, 2, "genre")])
        for seed in range(500):
            out, _ = apply_perturbation(
                ex, spec(perturb.WORD_INSERT, p=0.3, seed=seed, insert_vocab=["well"])
            )
            if len(out.tokens) == 4 and out.tokens[0] == "well":
                assert out.spans == (SlotSpan(2, 3, "genre"),)
                return
        pytest.fail("no seed inserted exactly at the sentence start")

    def test_never_inserts_inside_span(self):
        ex = make_example(["play", "smooth", "cool", "jazz", "now"], [(1, 3, "genre")])
        for seed in range(200):
            out, _ = apply_perturbation(
                ex, spec(perturb.WORD_INSERT, p=1.0, seed=seed, insert_vocab=["zzz"])
            )
            span = out.spans[0]
            assert out.tokens[span.start : span.end + 1] == ("smooth", "cool", "jazz")

    def test_original_tokens_preserved_in_order(self):
        rng = random.Random(2)
        for trial in range(300):
            ex = random_example(rng, f"i{trial}")
            out, _ = apply_perturbation(
                ex,
                spec(perturb.WORD_INSERT, p=0.5, seed=trial, insert_vocab=["pad", "fill"]),
            )
            assert is_subsequence(ex.tokens, out.tokens)

    def test_span_contents_never_change(self):
        rng = random.Random(3)
        for trial in range(1000):
            ex = random_example(rng, f"s{trial}", unique_tokens=True)
            out, _ = apply_perturbation(
                ex, spec(perturb.WORD_INSERT, p=0.5, seed=trial, insert_vocab=["pad"])
            )
            assert len(out.spans) == len(ex.spans)
            positions = {tok: i for i, tok in enumerate(out.tokens)}
            for before, after in zip(ex.spans, out.spans):
                assert after.slot_type == before.slot_type
                assert out.tokens[after.start : after.end + 1] == ex.tokens[before.start : before.end + 1]
                assert positions[ex.tokens[before.start]] == after.start

    def test_empty_vocab_is_config_error(self):
        with pytest.raises(ConfigError, match="vocabulary"):
            apply_perturbation(make_example(["a"]), spec(perturb.WORD_INSERT, p=0.5, insert_vocab=[]))


class TestAppendIrr:
    def test_p_one_appends_and_keeps_spans(self):
        s = spec(perturb.APPEND_IRR, p=1.0, sentence_pool=["by the way thanks"])
        ex = make_example(["play", "jazz"], [(1, 1, "genre")])
        out, report = apply_perturbation(ex, s)
        assert out.tokens == ("play", "jazz", "by", "the", "way", "thanks")
        assert out.spans == ex.spans
        assert report.tokens_edited == 1

    def test_p_zero_identity(self):
        s = spec(perturb.APPEND_IRR, p=0.0, sentence_pool=["hi there"])
        ex = make_example(["play", "jazz"])
        out, _ = apply_perturbation(ex, s)
        assert out.tokens == ex.tokens

    def test_empty_pool_is_config_error(self):
        with pytest.raises(ConfigError, match="pool"):
            apply_perturbation(make_example(["a"]), spec(perturb.APPEND_IRR, p=1.0, sentence_pool=[]))

    def test_gold_restricted_to_original_range_unchanged(self):
        rng = random.Random(4)
        s = spec(perturb.APPEND_IRR, p=0.7, seed=9, sentence_pool=["pad pad pad"])
        for trial in range(1000):
            ex = random_example(rng, f"a{trial}")
            out, _ = apply_perturbation(ex, s)
            n = len(ex.tokens)
            assert out.tokens[:n] == ex.tokens
            assert out.spans == ex.spans


class TestParaphrase:
    def test_identity_provider_is_exact_identity(self):
        ex = make_example(["play", "jazz", "loud", "jazz"], [(3, 3, "genre")])
        out, report = apply_perturbation(ex, spec(perturb.PARAPHRASE))
        assert out == ex
        assert report.tokens_edited == 0

    def test_shuffled_rewrite_relocates_spans(self):
        ex = make_example(["play", "abbey", "road", "on", "spotify"], [(1, 2, "album"), (4, 4, "service")])

        def provider(text: str) -> str:
            return "on Spotify please play Abbey Road"

        out, _ = apply_perturbation(ex, spec(perturb.PARAPHRASE, paraphrase_provider=provider))
        assert out.spans == (SlotSpan(1, 1, "service"), SlotSpan(4, 5, "album"))
        assert out.tokens[4:6] == ("Abbey", "Road")

    def test_lost_entity_rejects_paraphrase(self):
        ex = make_example(["play", "jazz"], [(1, 1, "genre")])

        def provider(text: str) -> str:
            return "play something nice"

        out, report = apply_perturbation(ex, spec(perturb.PARAPHRASE, paraphrase_provider=provider))
        assert out == ex
        assert any("rejected" in note for note in report.notes)

    def test_unknown_provider_name(self):
        with pytest.raises(ConfigError):
            apply_perturbation(
                make_example(["a"]), spec(perturb.PARAPHRASE, paraphrase_provider="magic")
            )


class TestComposite:
    def _members(self, p=1.0):
        return [
            spec(perturb.APPEND_IRR, p=p, seed=3, sentence_pool=["so long"]),
            spec(perturb.CHAR_TYPOS, p=p, seed=1),
            spec(perturb.WORD_HOMOPHONE, p=p, seed=2, homophone_lexicon={"two": ["too"]}),
        ]

    def test_all_p_zero_is_identity_modulo_provenance(self):
        members = self._members(p=0.0)
        ex = make_example(["play", "two", "songs"], [(2, 2, "thing")])
        out, _ = apply_perturbation(ex, compose(members))
        assert out.tokens == ex.tokens
        assert out.spans == ex.spans
        assert set(out.provenance) == {m.kind for m in members}

    def test_canonical_order_sentence_word_char(self):
        ex = make_example(["two", "cats"])
        # Members listed char-first; application order must still be
        # sentence -> word -> char, visible in provenance.
        out, _ = apply_perturbation(ex, compose(self._members()))
        assert out.provenance == (perturb.APPEND_IRR, perturb.WORD_HOMOPHONE, perturb.CHAR_TYPOS)

    def test_composite_equals_sequential_application(self):
        rng = random.Random(5)
        members = self._members()
        composite = compose(members)
        ordered = [members[0], members[2], members[1]]  # sentence, word, char
        for trial in range(1000):
            ex = random_example(rng, f"c{trial}")
            got, got_report = apply_perturbation(ex, composite)
            want = ex
            reports = PerturbationReport()
            for member in ordered:
                want, r = apply_perturbation(want, member)
                reports = reports.merged(r)
            assert got == want
            assert got_report == reports

    def test_standard_composite_display_names(self):
        typ = spec(perturb.CHAR_TYPOS)
        spe = spec(perturb.WORD_HOMOPHONE)
        app = spec(perturb.APPEND_IRR)
        assert display_name(compose([spe, typ])) == "Spe+Typ"
        assert display_name(compose([spe, app])) == "Spe+App"
        assert display_name(compose([typ, app])) == "Ent+App"
        assert display_name(compose([spe, app, typ])) == "Spe+App+Typ"
        assert display_name(typ) == "Typos"
        assert display_name(spe) == "Speech"
        assert display_name(app) == "AppendIrr"


class CountingLexicon(dict):
    """A lexicon mapping that counts how often it is walked."""

    walks = 0

    def items(self):
        self.walks += 1
        return super().items()


class TestAssets:
    def test_rewritten_lexicon_is_read_by_the_next_call(self, tmp_path):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("two\ttoo\n", encoding="utf-8")
        s = spec(perturb.WORD_HOMOPHONE, p=1.0, homophone_lexicon=str(lexicon))
        assert apply_perturbation(make_example(["two"]), s)[0].tokens == ("too",)
        lexicon.write_text("two\ttu\n", encoding="utf-8")
        assert apply_perturbation(make_example(["two"]), s)[0].tokens == ("tu",)

    @pytest.fixture
    def asset_reads(self, tmp_path, monkeypatch):
        """Asset files in tmp_path, and a counter of reads by file name."""
        (tmp_path / "lexicon.txt").write_text("play\tplae\n", encoding="utf-8")
        (tmp_path / "sentences.txt").write_text("by the way\n", encoding="utf-8")
        (tmp_path / "vocab.txt").write_text("um\nwell\n", encoding="utf-8")
        reads: dict[str, int] = {}
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            reads[path.name] = reads.get(path.name, 0) + 1
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        return tmp_path, reads

    def test_each_file_read_once_per_perturb_dataset_call(self, clean_dataset, asset_reads):
        root, reads = asset_reads
        composite = compose(
            [
                spec(perturb.WORD_HOMOPHONE, p=0.5, homophone_lexicon=str(root / "lexicon.txt")),
                spec(perturb.APPEND_IRR, p=0.5, sentence_pool=str(root / "sentences.txt")),
                spec(perturb.WORD_INSERT, p=0.5, insert_vocab=str(root / "vocab.txt")),
            ]
        )
        for calls in (1, 2):
            perturb_dataset(clean_dataset, composite)
            assert reads == {"lexicon.txt": calls, "sentences.txt": calls, "vocab.txt": calls}

    def test_each_file_read_once_per_build_pool_call(self, clean_dataset, asset_reads):
        root, reads = asset_reads
        lexicon = {"homophone_lexicon": str(root / "lexicon.txt")}
        sentences = {"sentence_pool": str(root / "sentences.txt")}
        specs = [
            PerturbationSpec(kind=perturb.WORD_HOMOPHONE, p=0.5, seed=1, assets=lexicon),
            PerturbationSpec(kind=perturb.APPEND_IRR, p=0.5, seed=2, assets=sentences),
            compose(
                [
                    PerturbationSpec(kind=perturb.WORD_HOMOPHONE, p=0.9, seed=3, assets=lexicon),
                    PerturbationSpec(kind=perturb.APPEND_IRR, p=0.9, seed=4, assets=sentences),
                ]
            ),
        ]
        build_pool(clean_dataset, specs)
        assert reads == {"lexicon.txt": 1, "sentences.txt": 1}

    def test_default_files_read_once_per_call(self, clean_dataset, asset_reads):
        _, reads = asset_reads
        specs = [spec(perturb.WORD_HOMOPHONE, p=0.5, seed=1), spec(perturb.WORD_HOMOPHONE, p=0.9, seed=2)]
        build_pool(clean_dataset, specs + [spec(perturb.APPEND_IRR), spec(perturb.APPEND_IRR, seed=3)])
        assert reads == {perturb.DEFAULT_HOMOPHONES.name: 1, perturb.DEFAULT_SENTENCE_POOL.name: 1}

    def test_in_memory_lexicon_normalized_once_per_call(self, clean_dataset):
        lexicon = CountingLexicon({"Play": ["plae"], "two": ["too"]})
        s = spec(perturb.WORD_HOMOPHONE, p=1.0, homophone_lexicon=lexicon)
        out, report = perturb_dataset(clean_dataset, s)
        assert lexicon.walks == 1
        assert report.tokens_edited > 1
        assert "plae" in {tok for ex in out for tok in ex.tokens}
        build_pool(clean_dataset, [s, replace(s, seed=1)])
        assert lexicon.walks == 2

    def test_missing_insert_vocab_is_the_perturbed_datasets_tokens(self, clean_dataset):
        vocab = sorted({tok for ex in clean_dataset for tok in ex.tokens})
        filled, _ = perturb_dataset(clean_dataset, spec(perturb.WORD_INSERT, p=0.5, seed=4))
        given, _ = perturb_dataset(
            clean_dataset, spec(perturb.WORD_INSERT, p=0.5, seed=4, insert_vocab=vocab)
        )
        assert filled == given
        out, _ = apply_perturbation(make_example(["a", "b"]), spec(perturb.WORD_INSERT, p=1.0))
        assert set(out.tokens) <= {"a", "b"} and len(out.tokens) == 5

    def test_operators_leave_the_callers_spec_unresolved(self, clean_dataset):
        s = spec(perturb.WORD_INSERT, p=0.5)
        perturb_dataset(clean_dataset, s)
        build_pool(clean_dataset, [s])
        assert s.assets == {}


class TestDatasetLevel:
    def test_same_spec_twice_is_byte_identical(self, clean_dataset):
        s = spec(perturb.CHAR_TYPOS, p=0.4, seed=17)
        first, _ = perturb_dataset(clean_dataset, s)
        second, _ = perturb_dataset(clean_dataset, s)
        assert first == second

    def test_p_zero_preserves_content(self, clean_dataset):
        s = spec(perturb.CHAR_TYPOS, p=0.0, seed=17)
        out, _ = perturb_dataset(clean_dataset, s)
        for before, after in zip(clean_dataset, out):
            assert after.tokens == before.tokens
            assert after.spans == before.spans
            assert after.provenance == before.provenance + (perturb.CHAR_TYPOS,)

    def test_shuffled_input_order_gives_same_outputs(self, clean_dataset):
        from slotnoise.corpus import Dataset

        s = spec(perturb.CHAR_TYPOS, p=0.5, seed=23)
        rng = random.Random(0)
        shuffled = list(clean_dataset.examples)
        rng.shuffle(shuffled)
        shuffled_ds = Dataset(tuple(shuffled), clean_dataset.labels, "shuffled")
        straight, _ = perturb_dataset(clean_dataset, s)
        reordered, _ = perturb_dataset(shuffled_ds, s)
        by_id = {ex.id: ex for ex in reordered}
        for ex in straight:
            assert by_id[ex.id] == ex

    def test_kind_token_round_trips_for_composites(self):
        composite = compose([spec(perturb.CHAR_TYPOS), spec(perturb.APPEND_IRR)])
        assert kind_token(composite) == "append_irr+char_typos"
        assert kind_token(spec(perturb.WORD_DELETE)) == "word_delete"
