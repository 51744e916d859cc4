"""Seeded input synthesizer for the benchmark.

Scales the bundled 30-utterance ``clean``/``typos``/``speech`` splits up to
N test utterances (split over the Clean/Typos/Speech groups) plus an N-example
clean demonstration pool. The bundled utterance ids are shuffled and cut in
two, so test examples and pool examples never share a base utterance. Every
written example gets a fresh id and one distinct token appended after its
last token: gold spans keep their indices and every prompt is distinct, so a
cold run misses the response cache on every example.

Reads and writes plain jsonl; the program under test only sees the files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GROUPS = (("Clean", "clean"), ("Typos", "typos"), ("Speech", "speech"))


@dataclass(frozen=True)
class Inputs:
    n: int
    splits: dict[str, str]  # group -> jsonl path
    pool: str
    answers: dict[str, str]  # test utterance -> gold answer in the demonstrated format


def _read(path: Path) -> dict[str, dict]:
    with path.open(encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {r["id"]: r for r in records}


def _write(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def gold_answer(tokens: list[str], spans: list[dict]) -> str:
    """The answer an oracle gives: one ``"surface" is type.`` line per span."""
    lines = [
        f'"{" ".join(tokens[s["start"] : s["end"] + 1])}" is {s["type"]}.'
        for s in sorted(spans, key=lambda s: s["start"])
    ]
    return "\n".join(lines) if lines else "none"


def synthesize(data_dir: Path, out_dir: Path, n: int, seed: int) -> Inputs:
    if n < len(GROUPS):
        raise ValueError(f"n must be at least {len(GROUPS)}, got {n}")
    rng = random.Random(seed)
    base = {name: _read(data_dir / f"{name}.jsonl") for _, name in GROUPS}
    ids = sorted(base["clean"])
    for _, name in GROUPS:
        if sorted(base[name]) != ids:
            raise ValueError(f"{name}.jsonl does not cover the ids of clean.jsonl")
    rng.shuffle(ids)
    cut = len(ids) * 2 // 3
    test_ids, pool_ids = ids[:cut], ids[cut:]
    tags = iter(rng.sample(range(10**7, 10**8), 2 * n))

    def _scaled(record: dict, new_id: str) -> dict:
        return {
            "id": new_id,
            "provenance": record["provenance"],
            "spans": record["spans"],
            "tokens": record["tokens"] + [f"q{next(tags)}"],
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    splits: dict[str, str] = {}
    answers: dict[str, str] = {}
    for g, (group, name) in enumerate(GROUPS):
        size = n // len(GROUPS) + (1 if g < n % len(GROUPS) else 0)
        records = [
            _scaled(base[name][rng.choice(test_ids)], f"t{g}{i:06d}") for i in range(size)
        ]
        for r in records:
            answers[" ".join(r["tokens"])] = gold_answer(r["tokens"], r["spans"])
        path = out_dir / f"{name}.jsonl"
        _write(path, records)
        splits[group] = str(path)
    pool = [_scaled(base["clean"][rng.choice(pool_ids)], f"p{i:06d}") for i in range(n)]
    pool_path = out_dir / "pool_clean.jsonl"
    _write(pool_path, pool)
    if len(answers) != n:
        raise ValueError(f"synthesized {len(answers)} distinct utterances, expected {n}")
    return Inputs(n=n, splits=splits, pool=str(pool_path), answers=answers)
