"""Acceptance suite: one test per criterion, fully offline via mock clients.

Each test prints an ``ACCEPTANCE PASS: <criterion>`` line once its assertions
hold, so a verbose run doubles as a checklist.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    canonical_bio_repair,
    full_sort_ranking,
    levenshtein,
    remap_spans_over_survivors,
)
from slotnoise import perturb
from slotnoise.cli import main as cli_main
from slotnoise.client import ModelConfig, complete
from slotnoise.corpus import SlotSpan, bio_to_spans, spans_to_bio
from slotnoise.demos import PoolIndex, embed, rank_by_similarity
from slotnoise.harness import RunConfig, render_report, run_experiment
from slotnoise.parser import parse_predictions
from slotnoise.perturb import (
    PerturbationSpec,
    apply_perturbation,
    compose,
    perturb_dataset,
)
from slotnoise.scorer import MatchCounts, aggregate, gold_pairs

from conftest import (
    ALL_SPLITS,
    DATA_DIR,
    make_dataset,
    make_example,
    random_example,
)


def ok(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


POOL_SPECS = (
    PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.3, seed=11),
    PerturbationSpec(kind=perturb.WORD_HOMOPHONE, p=0.5, seed=22),
)


def oracle_config(tmp_path: Path, tag: str, **overrides) -> RunConfig:
    defaults = dict(
        test_splits=tuple((g, str(DATA_DIR / f)) for g, f in ALL_SPLITS),
        out_dir=str(tmp_path / tag),
        name=tag,
        pool_clean=str(DATA_DIR / "clean.jsonl"),
        pool_specs=POOL_SPECS,
        demo_mode="instance",
        demo_strategy="random",
        demo_pool="clean",
        demo_k=3,
        template_id="t1_english",
        model=ModelConfig(kind="echo_gold"),
        seed=0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_oracle_end_to_end_all_splits_all_configs(tmp_path):
    """echo_gold must score micro-F1 = 100.0 exactly on every bundled split
    for every demo mode/strategy/pool, k in {0, 3}, and every template."""
    grid = []
    for mode, strategy, pool in itertools.product(
        ("entity", "instance"), ("random", "retrieve"), ("clean", "augment", "mixed")
    ):
        grid.append(dict(demo_mode=mode, demo_strategy=strategy, demo_pool=pool, demo_k=3))
    grid.append(dict(demo_k=0))
    for template in ("t2_concise", "t3_chinese"):
        grid.append(dict(template_id=template, demo_k=3))

    started = time.perf_counter()
    for i, overrides in enumerate(grid):
        cfg = oracle_config(tmp_path, f"g{i}", **overrides)
        result = run_experiment(cfg)
        for split_name, _ in ALL_SPLITS:
            assert result.per_group[split_name].f1 == 100.0, (overrides, split_name)
        assert result.overall.micro_f1 == 100.0
        assert result.overall.macro_f1 == 100.0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle grid took {elapsed:.2f}s (budget 10s)"
    ok(f"oracle end-to-end ({len(grid)} configs x {len(ALL_SPLITS)} splits in {elapsed:.2f}s)")


@pytest.mark.parametrize("error_rate", [0.1, 0.3, 0.5])
def test_noisy_oracle_recall_calibration(tmp_path, error_rate):
    from slotnoise.corpus import Dataset, LabeledExample, LabelSet, save_dataset

    labels = ["alpha", "beta", "gamma", "delta"]
    examples = []
    for i in range(300):  # 600 gold pairs
        examples.append(
            LabeledExample(
                f"syn{i:04d}",
                (f"w{i}a", f"w{i}b"),
                (SlotSpan(0, 0, labels[i % 4]), SlotSpan(1, 1, labels[(i + 1) % 4])),
            )
        )
    split = tmp_path / "syn.jsonl"
    save_dataset(Dataset(tuple(examples), LabelSet(tuple(labels)), "syn"), split)
    cfg = oracle_config(
        tmp_path,
        f"noisy{error_rate}",
        test_splits=(("Synthetic", str(split)),),
        demo_k=0,
        model=ModelConfig(kind="noisy_oracle", error_rate=error_rate, seed=41),
    )
    result = run_experiment(cfg)
    n = result.per_group["Synthetic"].support
    assert n >= 500
    recall = result.overall.micro_recall / 100.0
    se = math.sqrt(error_rate * (1 - error_rate) / n)
    assert abs(recall - (1 - error_rate)) <= 3 * se
    ok(f"noisy-oracle calibration (e={error_rate}, recall={recall:.3f} on {n} pairs)")


@pytest.mark.parametrize("p", [0.1, 0.3, 1.0])
def test_perturbation_rate_binomial_band(p):
    n_tokens = 10_000
    band = 3 * math.sqrt(p * (1 - p) / n_tokens)

    ds = make_dataset([make_example(["word"] * 20, ex_id=f"c{i}") for i in range(n_tokens // 20)])
    _, report = perturb_dataset(ds, PerturbationSpec(kind=perturb.CHAR_TYPOS, p=p, seed=1))
    assert report.eligible_tokens == n_tokens
    assert abs(report.realized_edit_rate - p) <= band

    lexicon = {"word": ["ward"]}
    _, report = perturb_dataset(
        ds,
        PerturbationSpec(
            kind=perturb.WORD_HOMOPHONE, p=p, seed=2, assets={"homophone_lexicon": lexicon}
        ),
    )
    assert report.eligible_tokens == n_tokens
    assert abs(report.realized_edit_rate - p) <= band
    ok(f"perturbation rate binomial band (p={p})")


def test_char_typos_edit_distance_exactly_one():
    rng = random.Random(3)
    checked = 0
    for trial in range(400):
        ex = random_example(rng, f"lev{trial}")
        out, _ = apply_perturbation(ex, PerturbationSpec(kind=perturb.CHAR_TYPOS, p=1.0, seed=trial))
        for before, after in zip(ex.tokens, out.tokens):
            assert levenshtein(before, after) == 1
            checked += 1
    ok(f"edit-distance property ({checked} tokens at p=1)")


def test_span_remap_matches_survivor_oracle():
    rng = random.Random(4)
    for trial in range(1000):
        ex = random_example(rng, f"del{trial}", unique_tokens=True)
        out, _ = apply_perturbation(
            ex, PerturbationSpec(kind=perturb.WORD_DELETE, p=0.4, seed=trial)
        )
        survivors = set(out.tokens)
        kept = [tok in survivors for tok in ex.tokens]
        expected = remap_spans_over_survivors(
            [(s.start, s.end, s.slot_type) for s in ex.spans], kept
        )
        assert [(s.start, s.end, s.slot_type) for s in out.spans] == expected

    for trial in range(1000):
        ex = random_example(rng, f"ins{trial}", unique_tokens=True)
        out, _ = apply_perturbation(
            ex,
            PerturbationSpec(
                kind=perturb.WORD_INSERT, p=0.4, seed=trial, assets={"insert_vocab": ["pad"]}
            ),
        )
        # Unique original tokens let the oracle recover each token's new
        # position independently of the operator's bookkeeping.
        position = {tok: i for i, tok in enumerate(out.tokens) if tok != "pad"}
        expected = [
            (position[ex.tokens[s.start]], position[ex.tokens[s.end]], s.slot_type)
            for s in ex.spans
        ]
        assert [(s.start, s.end, s.slot_type) for s in out.spans] == expected
    ok("span-remap equivalence (1000 cases per word-level operator)")


def test_bio_round_trip_exhaustive_and_random():
    alphabet = ["O", "B-x", "I-x", "B-y"]
    total = 0
    for n in range(7):
        for tags in itertools.product(alphabet, repeat=n):
            spans, _ = bio_to_spans(tags)
            assert spans_to_bio(spans, n) == canonical_bio_repair(tags)
            total += 1

    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 10)
        spans = []
        cursor = 0
        while cursor < n and rng.random() < 0.6:
            start = rng.randint(cursor, n - 1)
            end = min(n - 1, start + rng.randint(0, 2))
            spans.append(SlotSpan(start, end, rng.choice(["x", "y"])))
            cursor = end + 2
        recovered, repairs = bio_to_spans(spans_to_bio(spans, n))
        assert repairs == 0
        assert recovered == spans
    ok(f"BIO round-trip (exhaustive over {total} sequences + 500 random span sets)")


def test_retrieval_matches_full_sort():
    rng = random.Random(6)
    vocab = ["play", "jazz", "rock", "sun", "rome", "paris", "book", "table", "two", "for"]
    candidates = [
        make_example([rng.choice(vocab) for _ in range(rng.randint(2, 8))], ex_id=f"r{i:04d}")
        for i in range(1000)
    ]
    query = make_example(["play", "rock", "for", "two", "in", "paris"])
    qv = embed(query.utterance)
    sims = [float(np.dot(qv, embed(c.utterance))) for c in candidates]
    order = full_sort_ranking(sims, [c.id for c in candidates])
    for k in (1, 5, 10):
        got = [c.id for c in rank_by_similarity(query, PoolIndex(candidates), k=k)]
        assert got == [candidates[i].id for i in order[:k]]
    shuffled = candidates[:]
    rng.shuffle(shuffled)
    for k in (1, 5, 10):
        got = [c.id for c in rank_by_similarity(query, PoolIndex(shuffled), k=k)]
        assert got == [candidates[i].id for i in order[:k]]
    ok("retrieval correctness (top-k = full-sort prefix, order-invariant)")


def _hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_cli_determinism(tmp_path):
    clean = str(DATA_DIR / "clean.jsonl")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    members = [
        {"kind": "word_homophone", "p": 0.4, "seed": 9},
        {"kind": "char_typos", "p": 0.4, "seed": 10},
    ]
    spec = json.dumps({"kind": "composite", "members": members})
    for out in (a, b):
        code = cli_main(["augment", "--in", clean, "--out", str(out), "--spec", spec])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "name": "det",
                "test_splits": {"Clean": clean, "Typos": str(DATA_DIR / "typos.jsonl")},
                "out_dir": str(tmp_path / "run"),
                "pool_clean": clean,
                "demo_mode": "instance",
                "demo_strategy": "retrieve",
                "demo_pool": "clean",
                "demo_k": 2,
                "model": {"kind": "echo_gold"},
                "seed": 1,
            }
        ),
        encoding="utf-8",
    )
    assert cli_main(["eval", "--config", str(config)]) == 0
    first = _hash_tree(tmp_path / "run")
    assert cli_main(["eval", "--config", str(config)]) == 0
    assert _hash_tree(tmp_path / "run") == first
    ok("determinism (cmd_augment and mock cmd_eval byte-identical)")


def test_composite_equals_sequential_members():
    rng = random.Random(7)
    members = [
        PerturbationSpec(kind=perturb.APPEND_IRR, p=0.8, seed=31, assets={"sentence_pool": ["and so on"]}),
        PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.6, seed=32),
        PerturbationSpec(
            kind=perturb.WORD_HOMOPHONE, p=0.7, seed=33,
            assets={"homophone_lexicon": {"two": ["too"], "see": ["sea"], "new": ["knew"]}},
        ),
    ]
    composite = compose(members)
    canonical = [members[0], members[2], members[1]]  # sentence -> word -> char
    for trial in range(1000):
        ex = random_example(rng, f"cmp{trial}")
        got, _ = apply_perturbation(ex, composite)
        want = ex
        for member in canonical:
            want, _ = apply_perturbation(want, member)
        assert got == want
    ok("composite semantics (1000 random examples)")


def test_report_fidelity_layouts_and_deltas():
    single_groups = ["Clean", "Typos", "Speech", "Paraphrase", "Simplification", "Verbose"]
    mixed_groups = [
        "Clean", "Typos", "Speech", "AppendIrr", "Spe+Typ", "Spe+App", "Ent+App", "Spe+App+Typ",
    ]
    for groups in (single_groups, mixed_groups):
        counts = {f"e{i}": MatchCounts(2, 1, 1) for i in range(len(groups))}
        mapping = {f"e{i}": g for i, g in enumerate(groups)}
        result = aggregate(counts, mapping)
        text = render_report({"run": result})
        assert text.splitlines()[0].split() == ["Method", *groups, "Overall"]
        tsv = render_report({"run": result}).splitlines()[0]

    base = aggregate({"x": MatchCounts(50, 73, 73)}, {"x": "Typos"})  # 40.65
    plus = aggregate({"x": MatchCounts(13, 7, 7)}, {"x": "Typos"})  # 65.00
    annotated = render_report({"base": base, "plus": plus}, baseline="base")
    assert "65.00(+24.3)" in annotated
    assert "40.65(+0.0)" in annotated
    ok("report fidelity (single + mixed layouts, (+24.3)-style deltas)")


def test_parser_round_trip_with_fuzz():
    rng = random.Random(8)
    from slotnoise.corpus import LabelSet

    labels = LabelSet(("a", "b", "c"))
    cfg = ModelConfig(kind="echo_gold")
    for trial in range(1000):
        ex = random_example(rng, f"pr{trial}")
        rendered = complete("p", cfg, side_channel=ex)
        parsed = parse_predictions(rendered, labels)
        assert list(parsed.pairs) == gold_pairs(ex)

        lines = rendered.splitlines()
        fuzzed = []
        for i, line in enumerate(lines):
            fuzzed.append(rng.choice(["", f"{i + 1}. ", "- "]) + line + "  ")
            if rng.random() < 0.25:
                fuzzed.append("")
        variant = "\n" + "\n".join(fuzzed) + "\n\n"
        assert parse_predictions(variant, labels).pairs == parsed.pairs
    ok("parser round trip (1000 examples + fuzzed variants)")
