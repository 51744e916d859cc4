from __future__ import annotations

import random

from slotnoise.client import ModelConfig, complete
from slotnoise.corpus import LabelSet, normalize_label
from slotnoise.parser import normalize_surface, parse_predictions
from slotnoise.scorer import gold_pairs

from conftest import random_example

LABELS = LabelSet(("playlist", "genre", "artist", "playlist_owner"))


class TestNormalization:
    def test_surface(self):
        assert normalize_surface('  "Rainy Day."  ') == "rainy day"
        assert normalize_surface("JAZZ!!") == "jazz"
        assert normalize_surface("a   b\tc") == "a b c"
        assert normalize_surface("'quoted'") == "quoted"

    def test_label(self):
        assert normalize_label("Playlist Owner") == "playlist_owner"
        assert normalize_label("playlist_owner.") == "playlist_owner"
        assert normalize_label(" GENRE ") == "genre"


class TestPatternOne:
    def test_quoted_line(self):
        pred = parse_predictions('"rainy day" is playlist.', LABELS)
        assert pred.pairs == (("rainy day", "playlist"),)
        assert pred.dropped_unknown_labels == 0

    def test_unquoted_line(self):
        pred = parse_predictions("jazz is genre", LABELS)
        assert pred.pairs == (("jazz", "genre"),)

    def test_semicolon_clauses(self):
        pred = parse_predictions('Entities: "jazz" is genre; "drake" is artist', LABELS)
        assert pred.pairs == (("jazz", "genre"), ("drake", "artist"))

    def test_label_case_and_separator_unification(self):
        pred = parse_predictions('"me" is Playlist Owner.', LABELS)
        assert pred.pairs == (("me", "playlist_owner"),)

    def test_unknown_label_dropped_and_counted(self):
        pred = parse_predictions('"jazz" is tempo.\n"drake" is artist.', LABELS)
        assert pred.pairs == (("drake", "artist"),)
        assert pred.dropped_unknown_labels == 1

    def test_crlf_reply(self):
        pred = parse_predictions('"jazz" is genre.\r\n"drake" is artist.\r\n', LABELS)
        assert pred.pairs == (("jazz", "genre"), ("drake", "artist"))

    def test_line_separator_in_a_label_does_not_end_the_line(self):
        pred = parse_predictions('"jazz" is genre\u2028x.\n', LabelSet(("genre\u2028x",)))
        assert pred.pairs == (("jazz", "genre\u2028x"),)

    def test_duplicates_preserved(self):
        pred = parse_predictions('"jazz" is genre.\n"jazz" is genre.', LABELS)
        assert pred.pairs == (("jazz", "genre"), ("jazz", "genre"))


class TestPatternTwo:
    def test_label_colon_enumeration(self):
        pred = parse_predictions("genre: jazz, rock", LABELS)
        assert pred.pairs == (("jazz", "genre"), ("rock", "genre"))

    def test_unknown_prefix_does_not_fire(self):
        pred = parse_predictions("Entities: none", LABELS)
        assert pred.pairs == ()
        assert pred.dropped_unknown_labels == 0


class TestPatternThree:
    def test_bracketed_tuples(self):
        pred = parse_predictions('[("jazz", "genre"), ("drake", "artist")]', LABELS)
        assert pred.pairs == (("jazz", "genre"), ("drake", "artist"))

    def test_bracketed_unknown_label_counted(self):
        pred = parse_predictions('("jazz", "mood")', LABELS)
        assert pred.pairs == ()
        assert pred.dropped_unknown_labels == 1


class TestRobustness:
    def test_unparseable_text_yields_no_pairs(self):
        pred = parse_predictions("no entities found", LABELS)
        assert pred.pairs == ()
        assert pred.dropped_unknown_labels == 0

    def test_none_answer(self):
        assert parse_predictions("none", LABELS).pairs == ()

    def test_blank_lines_and_numbering_ignored(self):
        messy = '\n\n1. "jazz" is genre.\n\n2) "drake" is artist.\n- "pop" is genre.\n'
        pred = parse_predictions(messy, LABELS)
        assert pred.pairs == (("jazz", "genre"), ("drake", "artist"), ("pop", "genre"))

    def test_parse_is_deterministic(self):
        text = '"a b" is genre.\ngenre: c\n("d", "artist")'
        assert parse_predictions(text, LABELS) == parse_predictions(text, LABELS)

    def test_output_labels_always_in_label_set(self):
        rng = random.Random(0)
        fragments = [
            '"x" is genre.', '"y" is mood.', "artist: a, b", "bogus: c",
            '("z", "playlist")', '("w", "nope")', "plain text", "none",
        ]
        for _ in range(200):
            text = "\n".join(rng.sample(fragments, rng.randint(1, len(fragments))))
            pred = parse_predictions(text, LABELS)
            for _, label in pred.pairs:
                assert label in LABELS


class TestEchoRoundTrip:
    def test_gold_recovered_exactly(self):
        rng = random.Random(1)
        labels = LabelSet(("a", "b", "c"))
        cfg = ModelConfig(kind="echo_gold")
        for trial in range(1000):
            ex = random_example(rng, f"r{trial}")
            rendered = complete("p", cfg, side_channel=ex)
            pred = parse_predictions(rendered, labels)
            assert list(pred.pairs) == gold_pairs(ex)
            assert pred.dropped_unknown_labels == 0

    def test_fuzzed_variants_parse_identically(self):
        rng = random.Random(2)
        labels = LabelSet(("a", "b", "c"))
        cfg = ModelConfig(kind="echo_gold")
        for trial in range(300):
            ex = random_example(rng, f"f{trial}")
            rendered = complete("p", cfg, side_channel=ex)
            baseline = parse_predictions(rendered, labels).pairs
            lines = rendered.splitlines()
            fuzzed_lines = []
            for i, line in enumerate(lines):
                prefix = rng.choice(["", f"{i + 1}. ", "- ", "  "])
                fuzzed_lines.append(f"{prefix}{line}   ")
                if rng.random() < 0.3:
                    fuzzed_lines.append("")
            fuzzed = "\n\n" + "\n".join(fuzzed_lines) + "\n"
            assert parse_predictions(fuzzed, labels).pairs == baseline
