#!/usr/bin/env python3
"""Regenerate the bundled desk-scale test splits into OUT_DIR (default data/).

The clean split is a 30-utterance slot-filling corpus over music, weather,
and restaurant queries. Machine-generated splits (typos, speech, append_irr,
and the four mixed composites) come from the perturbation operators with
fixed seeds. The human-style splits (paraphrase, simplification, verbose)
are produced by deterministic rewrite rules that preserve gold spans by
construction, standing in for pre-perturbed test data.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from slotnoise.corpus import Dataset, LabeledExample, LabelSet, SlotSpan, save_dataset, write_json
from slotnoise.perturb import (
    APPEND_IRR,
    CHAR_TYPOS,
    WORD_HOMOPHONE,
    PerturbationSpec,
    _remap_deleted,
    compose,
    perturb_dataset,
    spec_to_dict,
)

DATA_DIR = ROOT / "data"

# (utterance, [(start, end, slot_type)])
CLEAN_TABLE = [
    ("play some jazz for me tonight", [(2, 2, "genre")]),
    ("put the new taylor swift album on spotify", [(3, 4, "artist"), (7, 7, "service")]),
    ("add this song to my workout playlist", [(5, 5, "playlist")]),
    ("i want to hear one dance by drake", [(4, 5, "track"), (7, 7, "artist")]),
    ("book a table for two at the italian place downtown", [(7, 7, "cuisine")]),
    ("what is the weather in san francisco this week", [(5, 6, "city")]),
    ("play the latest album by the night owls", [(5, 7, "artist")]),
    ("find a sushi restaurant near union square", [(2, 2, "cuisine"), (5, 6, "city")]),
    ("start my morning coffee playlist on deezer", [(2, 3, "playlist"), (6, 6, "service")]),
    ("i would like to see the sun kings live in chicago", [(5, 7, "artist"), (10, 10, "city")]),
    ("queue up thriller by michael jackson", [(2, 2, "album"), (4, 5, "artist")]),
    ("play classical music for studying", [(1, 1, "genre")]),
    ("reserve a table at chez marie for four", [(4, 5, "restaurant_name")]),
    ("switch to my road trip playlist", [(3, 4, "playlist")]),
    ("is it going to rain in new york tonight", [(6, 7, "city")]),
    ("play abbey road on apple music", [(1, 2, "album"), (4, 5, "service")]),
    ("find me some great blues to listen to", [(4, 4, "genre")]),
    ("i need a mexican restaurant for a big group", [(3, 3, "cuisine")]),
    ("show me the weather for paris this weekend", [(5, 5, "city")]),
    ("add hotel california to the chill playlist", [(1, 2, "track"), (5, 5, "playlist")]),
    ("play the piece for two violins by bach", [(7, 7, "artist")]),
    ("what bands sound like the rolling stones", [(4, 6, "artist")]),
    ("book dinner at the steak house on main street for tonight", [(3, 5, "restaurant_name")]),
    ("stream some country music on pandora", [(2, 2, "genre"), (5, 5, "service")]),
    ("i want italian food from luigi kitchen", [(2, 2, "cuisine"), (5, 6, "restaurant_name")]),
    ("will it snow in denver next week", [(4, 4, "city")]),
    ("play dark side of the moon by pink floyd", [(1, 5, "album"), (7, 8, "artist")]),
    ("make a new playlist called summer nights", [(5, 6, "playlist")]),
    ("whats the forecast for rome today", [(4, 4, "city")]),
    ("play one more song by the weeknd", [(5, 6, "artist")]),
]

TYPOS_SPEC = PerturbationSpec(kind=CHAR_TYPOS, p=0.3, seed=11)
SPEECH_SPEC = PerturbationSpec(kind=WORD_HOMOPHONE, p=0.5, seed=22)
APPEND_SPEC = PerturbationSpec(kind=APPEND_IRR, p=1.0, seed=33)

SIMPLIFY_DROP = {
    "please", "the", "a", "an", "i", "want", "would", "like", "me", "my",
    "this", "that", "is", "are", "what", "whats", "will", "it", "to", "for",
    "on", "in", "at", "of", "from", "near", "with", "and", "some", "going",
    "called", "do", "you", "up", "need",
}

PARAPHRASE_VERBS = {
    "play": "start", "find": "locate", "book": "reserve", "reserve": "book",
    "show": "display", "add": "put", "queue": "line", "stream": "play",
    "make": "create", "switch": "change", "put": "place", "start": "begin",
}
PARAPHRASE_WORDS = {
    "want": "need", "my": "our", "me": "us", "tonight": "later",
    "today": "now", "weekend": "sunday",
}


def build_clean() -> Dataset:
    examples = []
    for i, (utterance, spans) in enumerate(CLEAN_TABLE, start=1):
        examples.append(
            LabeledExample(
                id=f"u{i:03d}",
                tokens=tuple(utterance.split()),
                spans=tuple(SlotSpan(s, e, t) for s, e, t in spans),
            )
        )
    labels = LabelSet.from_observed(examples)
    return Dataset(tuple(examples), labels, "clean")


def _span_tokens(ex: LabeledExample) -> set[int]:
    covered: set[int] = set()
    for span in ex.spans:
        covered.update(range(span.start, span.end + 1))
    return covered


def rewrite_verbose(ex: LabeledExample, index: int) -> LabeledExample:
    prefix = ("um", "could", "you", "please") if index % 2 else ("hey", "there", "i", "would", "like", "to")
    suffix = ("if", "you", "do", "not", "mind") if index % 3 == 0 else ("right", "away", "please")
    shift = len(prefix)
    spans = tuple(SlotSpan(s.start + shift, s.end + shift, s.slot_type) for s in ex.spans)
    return LabeledExample(
        id=ex.id,
        tokens=prefix + ex.tokens + suffix,
        spans=spans,
        provenance=("verbose",),
    )


def rewrite_simplification(ex: LabeledExample) -> LabeledExample:
    covered = _span_tokens(ex)
    keep = [
        i in covered or tok not in SIMPLIFY_DROP for i, tok in enumerate(ex.tokens)
    ]
    if not any(keep):
        keep[0] = True
    tokens = tuple(tok for tok, kept in zip(ex.tokens, keep) if kept)
    spans, _, _ = _remap_deleted(ex.spans, keep)
    return LabeledExample(
        id=ex.id, tokens=tokens, spans=tuple(spans), provenance=("simplification",)
    )


def rewrite_paraphrase(ex: LabeledExample) -> LabeledExample:
    covered = _span_tokens(ex)
    tokens = list(ex.tokens)
    if 0 not in covered and tokens[0] in PARAPHRASE_VERBS:
        tokens[0] = PARAPHRASE_VERBS[tokens[0]]
    for i, tok in enumerate(tokens):
        if i not in covered and tok in PARAPHRASE_WORDS:
            tokens[i] = PARAPHRASE_WORDS[tok]
    tokens.append("thanks")
    return LabeledExample(
        id=ex.id, tokens=tuple(tokens), spans=ex.spans, provenance=("paraphrase",)
    )


def main(out_dir: Path = DATA_DIR) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    clean = build_clean()
    save_dataset(clean, out_dir / "clean.jsonl")

    generated = {
        "typos": TYPOS_SPEC,
        "speech": SPEECH_SPEC,
        "append_irr": APPEND_SPEC,
        "spe_typ": compose([SPEECH_SPEC, TYPOS_SPEC]),
        "spe_app": compose([SPEECH_SPEC, APPEND_SPEC]),
        "ent_app": compose([TYPOS_SPEC, APPEND_SPEC]),
        "spe_app_typ": compose([SPEECH_SPEC, APPEND_SPEC, TYPOS_SPEC]),
    }
    manifest: dict = {"generated": {}, "rewritten": ["paraphrase", "simplification", "verbose"]}
    for name, spec in generated.items():
        perturbed, report = perturb_dataset(clean, spec)
        save_dataset(Dataset(perturbed.examples, perturbed.labels, name), out_dir / f"{name}.jsonl")
        manifest["generated"][name] = spec_to_dict(spec)
        print(f"{name}: {report.summary()}")

    rewritten = {
        "verbose": [rewrite_verbose(ex, i) for i, ex in enumerate(clean)],
        "simplification": [rewrite_simplification(ex) for ex in clean],
        "paraphrase": [rewrite_paraphrase(ex) for ex in clean],
    }
    for name, examples in rewritten.items():
        save_dataset(Dataset(tuple(examples), clean.labels, name), out_dir / f"{name}.jsonl")
        print(f"{name}: rewrote {len(examples)} examples")

    write_json(out_dir / "manifest.json", manifest)
    print(f"splits written to {out_dir}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path, default=DATA_DIR)
    main(parser.parse_args().out_dir)
