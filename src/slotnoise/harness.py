"""Experiment orchestration: config, execution, logging, sweeps, reports.

A run walks its test splits' examples in chunks of ``corpus.CHUNK_SIZE``
through the pipeline (demonstrations -> prompt -> cached completion -> parse
-> score), appends each chunk's records to the logs in the run directory and
aggregates an :class:`EvalResult` per perturbation group. An interrupted run
leaves partial logs, which the rerun overwrites while its cache resumes.
With mock clients the pipeline is bit-deterministic under a fixed config, and
a warm cache reproduces the identical result with zero chat-completion calls.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .client import ModelConfig, ResponseCache, cached_complete
from .corpus import Dataset, LabeledExample, LabelSet, chunked, derive_seed, dump_jsonl
from .corpus import jsonl_lines, load_dataset, save_dataset, write_json
from .demos import (
    DemonstrationSet,
    ENTITY_MODE,
    INSTANCE_MODE,
    MODES as DEMO_MODES,
    RETRIEVE_STRATEGY,
    STRATEGIES,
    PoolIndex,
    build_entity_demos,
    build_instance_demos,
    http_embedding_provider,
)
from .errors import ConfigError, DataError, HarnessError
from .parser import parse_predictions
from .perturb import PerturbationSpec, spec_from_dict, spec_to_dict
from .pools import POOL_LABELS, build_pool
from .prompts import PromptTemplate, bundled_registry, load_registry, render_prompt
from .schema import check_choice, check_unique, fields_to_dict, parse_json, read_input
from .schema import resolve_path, scalars_from_dict
from .scorer import MODES as SCORING_MODES, CLEAN_GROUP, EvalResult, MatchCounts, aggregate
from .scorer import score_example

# Config fields holding paths, resolved against the config file's directory.
_PATH_FIELDS = ("out_dir", "pool_clean", "templates_dir", "labels_path", "cache_dir")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; serializable to/from JSON."""

    test_splits: tuple[tuple[str, str], ...]
    out_dir: str
    name: str = "run"
    pool_clean: str = ""
    pool_specs: tuple[PerturbationSpec, ...] = ()
    demo_mode: str = INSTANCE_MODE
    demo_strategy: str = "random"
    demo_pool: str = "clean"
    demo_k: int = 0
    template_id: str = "t1_english"
    templates_dir: str = ""
    model: ModelConfig = field(default_factory=ModelConfig)
    scoring_mode: str = "text_match"
    seed: int = 0
    labels_path: str = ""
    embed_endpoint: str = ""
    max_error_fraction: float = 0.1
    cache_dir: str = ""  # empty -> <out_dir>/cache

    def __post_init__(self):
        object.__setattr__(
            self, "test_splits", tuple((str(g), str(p)) for g, p in self.test_splits)
        )
        object.__setattr__(self, "pool_specs", tuple(self.pool_specs))
        if not self.test_splits:
            raise ConfigError("config needs at least one test split")
        check_unique(
            (group for group, _ in self.test_splits),
            lambda group: f"test split group {group!r} is listed more than once",
        )
        if self.demo_k < 0:
            raise ConfigError(f"demo_k must be >= 0, got {self.demo_k}")
        if not 0 <= self.max_error_fraction <= 1:
            raise ConfigError(f"max_error_fraction {self.max_error_fraction} is outside [0, 1]")
        if self.demo_k > 0 and not self.pool_clean:
            raise ConfigError("demo_k > 0 requires pool_clean in the config")
        check_choice(self.demo_mode, DEMO_MODES, "demo_mode")
        check_choice(self.demo_strategy, STRATEGIES, "demo_strategy")
        check_choice(self.demo_pool, POOL_LABELS, "demo_pool")
        check_choice(self.scoring_mode, SCORING_MODES, "scoring_mode")

    def to_dict(self) -> dict:
        out = fields_to_dict(self)
        out["test_splits"] = dict(self.test_splits)
        out["pool_specs"] = [spec_to_dict(s) for s in self.pool_specs]
        out["model"] = fields_to_dict(self.model)
        return out

    @classmethod
    def from_dict(cls, data: Mapping, base_dir: Path | None = None) -> "RunConfig":
        kwargs = scalars_from_dict(cls, data, "config")
        for key in _PATH_FIELDS:
            if key in kwargs:
                kwargs[key] = resolve_path(kwargs[key], base_dir)
        splits = data["test_splits"]
        pairs = list(splits.items()) if isinstance(splits, Mapping) else splits
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in pairs
        ):
            raise ConfigError(
                f"config key 'test_splits' must be an object or a list of pairs, got {splits!r}"
            )
        kwargs["test_splits"] = tuple((str(g), resolve_path(str(p), base_dir)) for g, p in pairs)
        specs = data.get("pool_specs", ())
        if not isinstance(specs, (list, tuple)):
            raise ConfigError(f"config key 'pool_specs' must be a list, got {specs!r}")
        kwargs["pool_specs"] = tuple(spec_from_dict(s, base_dir) for s in specs)
        model = scalars_from_dict(ModelConfig, data.get("model", {}), "model")
        kwargs["model"] = ModelConfig(**model)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        data = parse_json(read_input(path, "config file"), str(path))
        return cls.from_dict(data, base_dir=path.parent)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _build_demos(
    cfg: RunConfig, ex: LabeledExample, candidates: PoolIndex, labels: LabelSet
) -> DemonstrationSet:
    demo_seed = derive_seed(cfg.seed, f"demos:{ex.id}")
    if cfg.demo_mode == ENTITY_MODE:
        return build_entity_demos(ex, candidates, labels, cfg.demo_strategy, demo_seed)
    return build_instance_demos(ex, candidates, cfg.demo_strategy, cfg.demo_k, demo_seed)


def run_experiment(cfg: RunConfig) -> EvalResult:
    """Execute a full run and write its logs and report to cfg.out_dir."""
    return _run([cfg])[0]


def _run(subs: Sequence[RunConfig]) -> list[EvalResult]:
    """Run variants of one config that differ only in demo_k, template_id and out paths."""
    prepared = _prepare(subs)
    return [_execute(sub, *prepared) for sub in subs]


def _prepare(subs: Sequence[RunConfig]) -> tuple:
    """What the variants share, settled before any write.

    The template registry; the label file's labels, else those observed over the
    pool's mixed set and then the splits; the splits; and one PoolIndex over the
    demo_pool candidates, None unless a variant has demo_k > 0. An empty test
    split or demo_pool is a DataError, and so is, in entity mode, a label that
    no candidate carries.
    """
    cfg = subs[0]
    registry = load_registry(cfg.templates_dir) if cfg.templates_dir else bundled_registry()
    for sub in subs:
        check_choice(sub.template_id, registry, "template id")
    labels = LabelSet.load(cfg.labels_path) if cfg.labels_path else None
    splits = [(group, load_dataset(path, split_name=group)) for group, path in cfg.test_splits]
    for (group, path), (_, ds) in zip(cfg.test_splits, splits):
        if not ds.examples:
            raise DataError(f"test split {group!r} ({path}) holds no examples")
    for group, ds in splits if labels is not None else ():
        missing = [name for name in ds.labels if name not in labels]
        if missing:
            raise ConfigError(
                f"slot type {missing[0]!r} of split {group!r} is not in {cfg.labels_path}"
            )
    pool = None
    if any(sub.demo_k > 0 for sub in subs):
        pool = build_pool(load_dataset(cfg.pool_clean, split_name="clean"), cfg.pool_specs)
    if labels is None:
        datasets = ([] if pool is None else [pool.mixed]) + [ds for _, ds in splits]
        labels = LabelSet.from_observed(ex for ds in datasets for ex in ds)
    if pool is None:
        return registry, labels, splits, None
    where = f"demo_pool {cfg.demo_pool!r} of {cfg.pool_clean}"
    examples = pool.select(cfg.demo_pool).examples
    if not examples:
        raise DataError(f"{where} holds no candidates to demonstrate from")
    endpoint = cfg.embed_endpoint if cfg.demo_strategy == RETRIEVE_STRATEGY else ""
    provider = http_embedding_provider(endpoint) if endpoint else None
    try:
        # checks entity mode's labels before a provider embeds the pool
        candidates = PoolIndex(examples, provider, labels if cfg.demo_mode == ENTITY_MODE else ())
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    return registry, labels, splits, candidates


def preview_demos(cfg: RunConfig, count: int) -> list[tuple[str, LabeledExample, DemonstrationSet]]:
    """(run id, example, demonstrations) of the first count examples, as a run builds them."""
    if cfg.demo_k == 0:
        raise ConfigError("previewing demonstrations needs demo_k > 0 in the config")
    _, labels, splits, candidates = _prepare([cfg])
    examples = islice(_run_order(splits), count)
    return [(rid, ex, _build_demos(cfg, ex, candidates, labels)) for rid, _, ex in examples]


def _run_order(splits: Sequence[tuple[str, Dataset]]) -> Iterator[tuple[str, str, LabeledExample]]:
    """(run id, group, example) of every example, split by split."""
    return ((f"{group}/{ex.id}", group, ex) for group, ds in splits for ex in ds)


def _execute(
    cfg: RunConfig,
    registry: Mapping[str, PromptTemplate],
    labels: LabelSet,
    splits: Sequence[tuple[str, Dataset]],
    candidates: PoolIndex | None,
) -> EvalResult:
    out = Path(cfg.out_dir)
    cache = ResponseCache(Path(cfg.cache_dir) if cfg.cache_dir else out / "cache")
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", cfg.to_dict())
    template = registry[cfg.template_id]
    # Only these outlive a chunk; prompts, responses and log records do not.
    gold_examples: list[LabeledExample] = []
    counts: dict[str, MatchCounts] = {}
    groups: dict[str, str] = {}
    prompt_errors: list[dict] = []
    complete_errors: list[dict] = []

    def _prompt(rid: str, ex: LabeledExample) -> str:
        try:
            demos = _build_demos(cfg, ex, candidates, labels) if cfg.demo_k else None
            return render_prompt(template, labels, demos, ex)
        except ConfigError:
            raise
        except Exception as exc:  # logged per example, budgeted below
            prompt_errors.append({"id": rid, "stage": "prompt", "error": str(exc)})
            return render_prompt(template, labels, None, ex)

    names = ("prompts.jsonl", "responses.jsonl", "predictions.jsonl")
    with ExitStack() as stack:
        logs = [stack.enter_context((out / name).open("w", encoding="utf-8")) for name in names]
        workers = cfg.model.max_in_flight
        mapper = stack.enter_context(ThreadPoolExecutor(workers)).map if workers > 1 else map
        for chunk in chunked(_run_order(splits)):
            prompts = [_prompt(rid, ex) for rid, _, ex in chunk]
            exs = [ex for _, _, ex in chunk]
            outcomes = cached_complete(prompts, cfg.model, cache, exs, labels.names, mapper)
            records: tuple[list[dict], list[dict], list[dict]] = ([], [], [])
            for (rid, group, ex), prompt, (response, error) in zip(chunk, prompts, outcomes):
                if error is not None:
                    complete_errors.append({"id": rid, "stage": "complete", "error": error})
                gold_examples.append(ex.with_id(rid))
                groups[rid] = group
                prediction = parse_predictions(response, labels)
                counts[rid] = score_example(ex, prediction, cfg.scoring_mode)
                sha = _sha(prompt)
                pairs, dropped = prediction.pairs, prediction.dropped_unknown_labels
                records[0].append({"id": rid, "prompt_sha": sha, "prompt": prompt})
                records[1].append({"id": rid, "prompt_sha": sha, "response": response})
                records[2].append(
                    {"id": rid, "group": group, "pairs": pairs, "dropped_unknown_labels": dropped}
                )
            for handle, chunk_records in zip(logs, records):
                handle.write(jsonl_lines(chunk_records))

    save_dataset(Dataset(tuple(gold_examples), labels, "gold"), out / "gold.jsonl")
    errors = prompt_errors + complete_errors
    if errors:
        dump_jsonl(out / "errors.jsonl", errors)
    else:
        (out / "errors.jsonl").unlink(missing_ok=True)
    failed = count_failed(errors)
    if counts and failed / len(counts) > cfg.max_error_fraction:
        raise HarnessError(
            f"{failed}/{len(counts)} examples failed "
            f"(budget {cfg.max_error_fraction:.0%}); see {out / 'errors.jsonl'}"
        )

    result = aggregate(counts, groups, cfg.scoring_mode)
    payload = {"name": cfg.name, "config_hash": config_hash(cfg), "result": result.to_dict()}
    write_json(out / "result.json", payload)
    render_report({cfg.name: result}, out_dir=out)
    return result


def count_failed(errors: Iterable[Mapping]) -> int:
    """Examples among the error records; an example may fail in two stages."""
    return len({error["id"] for error in errors})


def sweep_demo_count(cfg: RunConfig, ks: Sequence[int]) -> dict[int, EvalResult]:
    """One run per demonstration count, sharing the response cache."""
    if cfg.demo_mode != INSTANCE_MODE:
        raise ConfigError("demo-count sweeps require instance mode")
    if not ks:
        raise ConfigError("sweep needs at least one k")
    out = Path(cfg.out_dir)
    variants = {k: dict(demo_k=k, out_dir=str(out / f"k{k}"), name=f"{cfg.name}_k{k}") for k in ks}
    results = _run_variants(cfg, variants)
    _write_sweep_table(out, results)
    return results


def _run_variants(cfg: RunConfig, variants: Mapping[object, dict]) -> dict:
    """Run replace(cfg, **changes) per key, sharing one response cache; all built first."""
    shared_cache = cfg.cache_dir or str(Path(cfg.out_dir) / "cache")
    subs = [replace(cfg, cache_dir=shared_cache, **changes) for changes in variants.values()]
    return dict(zip(variants, _run(subs)))


def _write_sweep_table(out: Path, results: Mapping[int, EvalResult]) -> None:
    columns = list(next(iter(results.values())).per_group)
    rows = [[str(k), *map(_cell, _f1s(results[k], columns))] for k in sorted(results)]
    (out / "sweep.tsv").write_text(_tsv([["k", *columns, "Overall"], *rows]), encoding="utf-8")


def _tsv(rows: Iterable[Sequence[str]]) -> str:
    """rows as tab-separated lines, each newline-terminated."""
    return "".join("\t".join(row) + "\n" for row in rows)


def compare_templates(cfg: RunConfig, template_ids: Sequence[str]) -> dict[str, EvalResult]:
    """One run per template with fixed seed and demo configuration."""
    if not template_ids:
        raise ConfigError("compare_templates needs at least one template id")
    out = Path(cfg.out_dir)
    variants = {
        tid: dict(template_id=tid, out_dir=str(out / f"tmpl_{tid}"), name=tid)
        for tid in template_ids
    }
    results = _run_variants(cfg, variants)
    render_report(results, out_dir=out)
    return results


def _f1s(result: EvalResult, columns: Sequence[str]) -> list[float | None]:
    """F1 per column (None where the run lacks that group), then the overall micro F1."""
    per_group = [result.per_group[c].f1 if c in result.per_group else None for c in columns]
    return per_group + [result.overall.micro_f1]


def _cell(value: float | None, base_value: float | None = None) -> str:
    if value is None:
        return "-"
    text = f"{value:.2f}"
    if base_value is not None:
        text += f"({value - base_value:+.1f})"
    return text


def _column_order(result: EvalResult) -> list[str]:
    """The clean group first, then the others in run order."""
    return sorted(result.per_group, key=lambda name: name.lower() != CLEAN_GROUP)


def render_report(
    results: Mapping[str, EvalResult],
    baseline: str | None = None,
    out_dir: str | Path | None = None,
) -> str:
    """Render per-group F1 tables (text and TSV) across one or more runs.

    Columns are Clean, then the perturbation groups in run order, then
    Overall (micro over the non-clean groups; the macro aggregate is listed
    below the table). With a baseline name given, every cell is annotated
    with its delta against the baseline run in ``(+24.3)`` style.
    """
    if not results:
        raise ConfigError("render_report needs at least one result")
    first = next(iter(results.values()))
    columns = _column_order(first)
    if baseline is not None:
        check_choice(baseline, results, "baseline run")
    base = results[baseline] if baseline is not None else None

    header = ["Method", *columns, "Overall"]
    base_f1s = _f1s(base, columns) if base is not None else [None] * (len(columns) + 1)
    rows = [[name, *map(_cell, _f1s(r, columns), base_f1s)] for name, r in results.items()]

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]

    def _aligned(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    text_lines = [_aligned(header), "  ".join("-" * width for width in widths)]
    text_lines.extend(map(_aligned, rows))
    text_lines.append("")
    for name, result in results.items():
        text_lines.append(f"{name} Overall(macro): {result.overall.macro_f1:.2f}")
    text = "\n".join(text_lines) + "\n"

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text, encoding="utf-8")
        (out / "report.tsv").write_text(_tsv([header, *rows]), encoding="utf-8")
    return text
