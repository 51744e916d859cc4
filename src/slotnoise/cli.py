"""Command-line surface binding all modules into user workflows.

Exit codes: 0 success, 1 data error, 2 configuration error. No command
mutates its input files. All randomness flows from the run config's seeds,
or from augment's --seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus, harness, perturb, pools, scorer
from .errors import ConfigError, DataError, SlotNoiseError
from .parser import Prediction
from .prompts import bundled_registry
from .scorer import MatchCounts, aggregate, score_example


# PerturbationSpec.assets key -> the argparse dest of the flag giving it
_ASSET_FLAGS = {
    "homophone_lexicon": "homophones",
    "sentence_pool": "sentences",
    "insert_vocab": "vocab",
    "paraphrase_provider": "paraphrase_provider",
}


def _spec(args: argparse.Namespace, kind: str, seed: int) -> perturb.PerturbationSpec:
    """A spec of kind holding only the asset flag its operator reads."""
    key = perturb.asset_key(kind)
    value = getattr(args, _ASSET_FLAGS[key]) if key else ""
    assets = {key: value} if value else {}
    return perturb.PerturbationSpec(kind=kind, p=args.p, seed=seed, assets=assets)


def _check_asset_flags(args: argparse.Namespace, kinds: list[str]) -> None:
    """Reject an asset flag that none of the kinds built reads."""
    read = {perturb.asset_key(kind) for kind in kinds}
    for key, dest in _ASSET_FLAGS.items():
        if getattr(args, dest) and key not in read:
            flag = "--" + dest.replace("_", "-")
            built = ", ".join(kinds) or "no kind"
            raise ConfigError(f"{flag} is read by none of the kinds built ({built})")


def _build_spec(args: argparse.Namespace) -> perturb.PerturbationSpec:
    """The --kind spec; each --members kind is seeded from --seed and 'member:<kind>'."""
    kind = perturb.kind_from_name(args.kind)
    if kind != perturb.COMPOSITE:
        _check_asset_flags(args, [kind])
        return _spec(args, kind, args.seed)
    kinds: list[str] = []
    for name in filter(str.strip, args.members.split(",")):
        member = perturb.kind_from_name(name)
        if member == perturb.COMPOSITE:
            raise ConfigError("composite members must not be composites")
        if member in kinds:
            raise ConfigError(f"--members: {name.strip()!r} repeats kind {member}")
        kinds.append(member)
    _check_asset_flags(args, kinds)
    if not kinds:
        raise ConfigError("composite kind requires --members")
    seeds = [perturb.derive_seed(args.seed, f"member:{k}") for k in kinds]
    return perturb.compose([_spec(args, k, seed) for k, seed in zip(kinds, seeds)])


def cmd_augment(args: argparse.Namespace) -> int:
    in_path = Path(args.in_path)
    out_path = Path(args.out)
    if in_path.resolve() == out_path.resolve():
        raise ConfigError("--out must differ from --in (inputs are never mutated)")
    ds = corpus.load_dataset(in_path)
    spec = _build_spec(args)
    perturbed, report = perturb.perturb_dataset(ds, spec)
    name = perturb.display_name(spec)
    perturbed = corpus.Dataset(perturbed.examples, perturbed.labels, name)
    corpus.save_dataset(perturbed, out_path)
    print(f"{name}: {report.summary()}", file=sys.stderr)
    print(f"wrote {len(perturbed)} examples to {out_path}", file=sys.stderr)
    return 0


def cmd_pool(args: argparse.Namespace) -> int:
    cfg = harness.RunConfig.from_json(args.config)
    if not cfg.pool_clean:
        raise ConfigError(f"{args.config} names no pool_clean to build the pool from")
    clean = corpus.load_dataset(cfg.pool_clean, split_name="clean")
    pool = pools.build_pool(clean, cfg.pool_specs)
    pools.save_pool(pool, args.out, cfg.pool_specs)
    print(
        f"pool written to {args.out}: clean={len(pool.clean)} "
        f"augmented={len(pool.augmented)} mixed={len(pool.mixed)}",
        file=sys.stderr,
    )
    return 0


def cmd_demo_preview(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    cfg = harness.RunConfig.from_json(args.config)
    for rid, ex, selected in harness.preview_demos(cfg, args.count):
        print(f"# {rid}: {ex.utterance}")
        print(selected.text())
        print()
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = harness.RunConfig.from_json(args.config)
    result = harness.run_experiment(cfg)
    errors_log = Path(cfg.out_dir) / "errors.jsonl"
    if errors_log.exists():
        lines = errors_log.read_text(encoding="utf-8").splitlines()
        # an example may fail in two stages, so count ids, not lines
        n_failed = len({json.loads(line)["id"] for line in lines if line})
        print(f"partial failures: {n_failed} examples errored; see {errors_log}", file=sys.stderr)
    print(harness.render_report({cfg.name: result}), end="")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = harness.RunConfig.from_json(args.config)
    try:
        ks = [int(k) for k in args.ks.split(",") if k.strip()]
    except ValueError as exc:
        raise ConfigError(f"--ks: {exc}") from None
    for i, k in enumerate(ks):
        if k in ks[:i]:
            raise ConfigError(f"--ks: repeated k {k}")
    harness.sweep_demo_count(cfg, ks)
    print((Path(cfg.out_dir) / "sweep.tsv").read_text(encoding="utf-8"), end="")
    return 0


def cmd_templates(args: argparse.Namespace) -> int:
    if args.list:
        for tid, template in bundled_registry().items():
            print(f"{tid}\t{template.language_tag}")
        return 0
    if not args.config or not args.ids:
        raise ConfigError("templates requires --config and --ids (or --list)")
    cfg = harness.RunConfig.from_json(args.config)
    ids = [t.strip() for t in args.ids.split(",") if t.strip()]
    baseline = args.baseline.strip() if args.baseline is not None else None
    if baseline is not None and baseline not in ids:
        raise ConfigError(f"--baseline {baseline!r} is not one of --ids")
    results = harness.compare_templates(cfg, ids)
    print(harness.render_report(results, baseline=baseline), end="")
    return 0


def _read_groups(path: Path) -> dict[str, str]:
    groups: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'id<TAB>group'")
        groups[parts[0]] = parts[1]
    return groups


def _read_predictions(path: Path) -> dict[str, Prediction]:
    predictions: dict[str, Prediction] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            pairs = tuple((str(s), str(t)) for s, t in record.get("pairs", []))
            predictions[str(record["id"])] = Prediction(
                pairs=pairs,
                dropped_unknown_labels=int(record.get("dropped_unknown_labels", 0)),
            )
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad prediction record: {exc}") from exc
    return predictions


def cmd_score(args: argparse.Namespace) -> int:
    gold = corpus.load_dataset(args.gold)
    predictions = _read_predictions(Path(args.predictions))
    groups = _read_groups(Path(args.groups))
    gold_ids = {ex.id for ex in gold}
    orphans = sorted(gold_ids.symmetric_difference(predictions))
    if orphans:
        raise DataError(f"gold/prediction id mismatch: {', '.join(orphans[:10])}")
    counts: dict[str, MatchCounts] = {}
    for ex in gold:
        counts[ex.id] = score_example(ex, predictions[ex.id], args.mode)
    result = aggregate(counts, groups, args.mode)
    print(harness.render_report({"rescored": result}), end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results = {}
    for path in map(Path, args.results):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            result = harness.EvalResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError, ConfigError) as exc:
            raise DataError(f"{path}: bad result file: {exc!r}") from exc
        name = str(payload.get("name", path.stem))
        if name in results:
            name = f"{name}:{path.stem}"
        unique, n = name, 1
        while unique in results:
            n += 1
            unique = f"{name}#{n}"
        results[unique] = result
    text = harness.render_report(results, baseline=args.baseline, out_dir=args.out)
    print(text, end="")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="slotnoise",
        description="Slot-filling robustness evaluation harness",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="write a perturbed copy of a dataset")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--p", type=float, default=0.1, help="perturbation probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--members", default="", help="comma-separated member kinds")
    p.add_argument("--homophones", default="", help="homophone lexicon path")
    p.add_argument("--sentences", default="", help="irrelevant-sentence pool path")
    p.add_argument("--vocab", default="", help="insertion vocabulary path")
    p.add_argument("--paraphrase-provider", default="", dest="paraphrase_provider")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("pool", help="build and persist a run config's demonstration pool")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pool)

    p = sub.add_parser("demo-preview", help="print a run config's first demonstrations")
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=int, default=3, help="test examples to preview")
    p.set_defaults(func=cmd_demo_preview)

    p = sub.add_parser("eval", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sweep the demonstration count")
    p.add_argument("--config", required=True)
    p.add_argument("--ks", required=True, help="comma-separated k values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("templates", help="compare prompt templates or list bundled ones")
    p.add_argument("--config")
    p.add_argument("--ids", help="comma-separated template ids")
    p.add_argument("--baseline")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_templates)

    p = sub.add_parser("score", help="rescore logged predictions offline")
    p.add_argument("--gold", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--mode", choices=scorer.MODES, default=scorer.TEXT_MATCH)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="render report tables from stored results")
    p.add_argument("results", nargs="+", help="result.json paths")
    p.add_argument("--baseline")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return root


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlotNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
