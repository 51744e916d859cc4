from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from slotnoise import perturb
from slotnoise.corpus import load_dataset, save_dataset
from slotnoise.errors import ConfigError
from slotnoise.perturb import (
    PerturbationSpec,
    compose,
    perturb_dataset,
    spec_from_dict,
    spec_to_dict,
)
from slotnoise.pools import build_pool, save_pool


def specs_for(kinds, p=0.3):
    return [PerturbationSpec(kind=k, p=p, seed=i) for i, k in enumerate(kinds)]


def test_empty_specs_gives_empty_augmented(clean_dataset):
    pool = build_pool(clean_dataset, [])
    assert len(pool.augmented) == 0
    assert pool.mixed.examples == clean_dataset.examples


def test_counts_with_one_spec(clean_dataset):
    pool = build_pool(clean_dataset, specs_for([perturb.CHAR_TYPOS]))
    assert len(pool.augmented) == len(clean_dataset)
    assert len(pool.mixed) == 2 * len(clean_dataset)


def test_mixed_has_no_id_collisions(clean_dataset):
    pool = build_pool(
        clean_dataset,
        specs_for([perturb.CHAR_TYPOS, perturb.WORD_HOMOPHONE, perturb.APPEND_IRR]),
    )
    ids = [ex.id for ex in pool.mixed]
    assert len(ids) == len(set(ids))
    assert len(pool.mixed) == len(pool.clean) + len(pool.augmented)


def test_suffix_round_trips_to_generating_kind(clean_dataset):
    kinds = [perturb.CHAR_TYPOS, perturb.WORD_HOMOPHONE, perturb.WORD_DELETE]
    pool = build_pool(clean_dataset, specs_for(kinds))
    for ex in pool.augmented:
        base, _, suffix = ex.id.rpartition("__")
        assert base in {c.id for c in pool.clean}
        assert suffix in kinds
        # Provenance agrees with the id suffix.
        assert ex.provenance == (suffix,)


def test_composite_suffix_round_trip(clean_dataset):
    composite = compose(
        [PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.2, seed=1),
         PerturbationSpec(kind=perturb.APPEND_IRR, p=1.0, seed=2)]
    )
    pool = build_pool(clean_dataset, [composite])
    suffix = pool.augmented.examples[0].id.rpartition("__")[2]
    assert set(suffix.split("+")) == {perturb.CHAR_TYPOS, perturb.APPEND_IRR}


def test_duplicate_kinds_stay_unique(clean_dataset):
    twice = [
        PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.2, seed=1),
        PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.8, seed=2),
    ]
    pool = build_pool(clean_dataset, twice)
    ids = [ex.id for ex in pool.augmented]
    assert len(ids) == len(set(ids)) == 2 * len(clean_dataset)


def test_augmented_examples_equal_revalidated_copies(clean_dataset, tmp_path):
    """Renamed copies equal copies rebuilt through the validating constructor."""
    specs = [
        PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.3, seed=1),
        PerturbationSpec(kind=perturb.WORD_HOMOPHONE, p=0.5, seed=2),
        PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.8, seed=3),
        compose(
            [PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.2, seed=4),
             PerturbationSpec(kind=perturb.APPEND_IRR, p=1.0, seed=5)]
        ),
        PerturbationSpec(kind=perturb.WORD_INSERT, p=0.3, seed=6),
    ]
    suffixes = ["char_typos", "word_homophone", "char_typos#2", "append_irr+char_typos", "word_insert"]
    pool = build_pool(clean_dataset, specs)
    expected = []
    for spec, suffix in zip(specs, suffixes):
        perturbed, _ = perturb_dataset(clean_dataset, spec)
        expected.extend(replace(ex, id=f"{ex.id}__{suffix}") for ex in perturbed)
    assert len(pool.augmented) == len(expected)
    for got, want in zip(pool.augmented, expected):
        assert got == want and type(got) is type(want)
    # Pinned digest of the written augmented set: pool bytes must not drift.
    save_dataset(pool.augmented, tmp_path / "augmented.jsonl")
    digest = hashlib.sha256((tmp_path / "augmented.jsonl").read_bytes()).hexdigest()
    assert digest == "375385d84592dbb9dec39347da3890473cc7ed79656bc31a0e92723987f0c1d9"


def test_pool_construction_deterministic(clean_dataset):
    kinds = [perturb.CHAR_TYPOS, perturb.WORD_HOMOPHONE]
    first = build_pool(clean_dataset, specs_for(kinds))
    second = build_pool(clean_dataset, specs_for(kinds))
    assert first.augmented == second.augmented


def test_select_labels(clean_dataset):
    pool = build_pool(clean_dataset, specs_for([perturb.CHAR_TYPOS]))
    assert pool.select("clean") is pool.clean
    assert pool.select("augment") is pool.augmented
    assert len(pool.select("mixed")) == len(pool.mixed)
    with pytest.raises(ConfigError):
        pool.select("everything")


def test_save_and_load_round_trip(clean_dataset, tmp_path):
    specs = specs_for([perturb.CHAR_TYPOS, perturb.APPEND_IRR])
    pool = build_pool(clean_dataset, specs)
    save_pool(pool, tmp_path / "pool", specs)
    assert load_dataset(tmp_path / "pool" / "clean.jsonl").examples == pool.clean.examples
    augmented = load_dataset(tmp_path / "pool" / "augmented.jsonl")
    assert augmented.examples == pool.augmented.examples
    manifest = json.loads((tmp_path / "pool" / "manifest.json").read_text(encoding="utf-8"))
    assert [spec_from_dict(d) for d in manifest["specs"]] == specs


def test_manifest_holds_the_specs_only(clean_dataset, tmp_path):
    composite = compose(
        [PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.2, seed=1),
         PerturbationSpec(kind=perturb.WORD_INSERT, p=0.5, seed=2)]
    )
    save_pool(build_pool(clean_dataset, [composite]), tmp_path / "pool", [composite])
    manifest = json.loads((tmp_path / "pool" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest == {"specs": [spec_to_dict(composite)]}
    assert "insert_vocab" not in json.dumps(manifest)
    assert [spec_from_dict(d) for d in manifest["specs"]] == [composite]
