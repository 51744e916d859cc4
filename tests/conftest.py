from __future__ import annotations

import random
from pathlib import Path

import pytest

from slotnoise.corpus import Dataset, LabeledExample, LabelSet, SlotSpan

from httpfake import ScriptedServer

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "data"

SINGLE_SPLITS = (
    ("Clean", "clean.jsonl"),
    ("Typos", "typos.jsonl"),
    ("Speech", "speech.jsonl"),
    ("Paraphrase", "paraphrase.jsonl"),
    ("Simplification", "simplification.jsonl"),
    ("Verbose", "verbose.jsonl"),
)
MIXED_SPLITS = (
    ("Clean", "clean.jsonl"),
    ("Typos", "typos.jsonl"),
    ("Speech", "speech.jsonl"),
    ("AppendIrr", "append_irr.jsonl"),
    ("Spe+Typ", "spe_typ.jsonl"),
    ("Spe+App", "spe_app.jsonl"),
    ("Ent+App", "ent_app.jsonl"),
    ("Spe+App+Typ", "spe_app_typ.jsonl"),
)
ALL_SPLITS = SINGLE_SPLITS + MIXED_SPLITS[3:]


def make_example(
    tokens: list[str],
    spans: list[tuple[int, int, str]] = (),
    ex_id: str = "ex0",
    provenance: tuple[str, ...] = (),
) -> LabeledExample:
    return LabeledExample(
        id=ex_id,
        tokens=tuple(tokens),
        spans=tuple(SlotSpan(s, e, t) for s, e, t in spans),
        provenance=provenance,
    )


def make_dataset(examples, split="test") -> Dataset:
    labels = LabelSet.from_observed(examples)
    return Dataset(tuple(examples), labels, split)


def random_example(rng: random.Random, ex_id: str, unique_tokens: bool = False) -> LabeledExample:
    """Random valid example: 2-12 tokens, 0-3 non-overlapping spans."""
    n = rng.randint(2, 12)
    if unique_tokens:
        tokens = [f"t{ex_id}x{i}" for i in range(n)]
    else:
        vocab = ["play", "some", "jazz", "for", "me", "two", "night", "new", "one", "see"]
        tokens = [rng.choice(vocab) for _ in range(n)]
    spans = []
    cursor = 0
    for _ in range(rng.randint(0, 3)):
        if cursor >= n:
            break
        start = rng.randint(cursor, n - 1)
        end = min(n - 1, start + rng.randint(0, 2))
        spans.append((start, end, rng.choice(["a", "b", "c"])))
        cursor = end + 2
    return make_example(tokens, spans, ex_id=ex_id)


@pytest.fixture(scope="session")
def clean_dataset() -> Dataset:
    from slotnoise.corpus import load_dataset

    return load_dataset(DATA_DIR / "clean.jsonl", split_name="clean")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def http_server(monkeypatch) -> ScriptedServer:
    """A scripted server on 127.0.0.1; a proxy set in the environment is bypassed."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with ScriptedServer() as server:
        yield server
