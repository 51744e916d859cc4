"""Candidate demonstration pools: clean, augmented, and their union."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import Dataset, save_dataset, write_json
from .perturb import (
    PerturbationSpec,
    _perturb_examples,
    _resolve_assets,
    kind_token,
    spec_to_dict,
)
from .schema import check_choice

POOL_LABELS = ("clean", "augment", "mixed")


@dataclass(frozen=True)
class DataPool:
    """Clean and augmented example collections plus their mixed union.

    Augmented example ids carry a ``__<kind>`` suffix naming the generating
    perturbation, so ids stay globally unique across the mixed view.
    """

    clean: Dataset
    augmented: Dataset
    mixed: Dataset = field(init=False, compare=False)

    def __post_init__(self):
        mixed = Dataset(
            self.clean.examples + self.augmented.examples,
            self.clean.labels,
            "mixed",
        )
        object.__setattr__(self, "mixed", mixed)

    def select(self, pool_label: str) -> Dataset:
        views = dict(zip(POOL_LABELS, (self.clean, self.augmented, self.mixed)))
        check_choice(pool_label, views, "pool label")
        return views[pool_label]


def build_pool(clean: Dataset, specs: Sequence[PerturbationSpec]) -> DataPool:
    """Produce one perturbed copy of the clean set per spec and merge them.

    The specs' assets are loaded once for the whole pool (_resolve_assets).
    """
    copies = []
    seen_tokens: dict[str, int] = {}
    for spec in _resolve_assets(specs, clean.examples):
        token = kind_token(spec)
        ordinal = seen_tokens.get(token, 0)
        seen_tokens[token] = ordinal + 1
        suffix = token if ordinal == 0 else f"{token}#{ordinal + 1}"
        copies.extend(ex.with_id(f"{ex.id}__{suffix}") for ex, _ in _perturb_examples(clean, spec))
    augmented = Dataset(tuple(copies), clean.labels, "augment")
    return DataPool(clean=clean, augmented=augmented)


def save_pool(pool: DataPool, out_dir: str | Path, specs: Sequence[PerturbationSpec]) -> None:
    """Persist a pool as jsonl files plus a manifest of its specs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(pool.clean, out / "clean.jsonl")
    save_dataset(pool.augmented, out / "augmented.jsonl")
    write_json(out / "manifest.json", {"specs": [spec_to_dict(spec) for spec in specs]})
