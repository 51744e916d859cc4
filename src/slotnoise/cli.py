"""Command-line surface binding all modules into user workflows.

Exit codes: 0 success, 1 data error, 2 configuration error; an input path
that is missing or a directory exits 2, an unreadable input file or an
unwritable output path exits 1. No command mutates its input files. All
randomness flows from the seeds a run config's specs or augment's --spec state.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus, harness, perturb, pools, scorer
from .errors import ConfigError, DataError, SlotNoiseError
from .parser import Prediction
from .prompts import bundled_registry
from .schema import check_choice, check_unique, parse_json, read_input
from .scorer import aggregate, score_example


def cmd_augment(args: argparse.Namespace) -> int:
    in_path = Path(args.in_path)
    out_path = Path(args.out)
    if in_path.resolve() == out_path.resolve():
        raise ConfigError("--out must differ from --in (inputs are never mutated)")
    spec = perturb.spec_from_dict(parse_json(args.spec, "--spec"))
    ds = corpus.load_dataset(in_path)
    perturbed, report = perturb.perturb_dataset(ds, spec)
    name = perturb.display_name(spec)
    corpus.save_dataset(perturbed, out_path)
    print(f"{name}: {report.summary()}", file=sys.stderr)
    print(f"wrote {len(perturbed)} examples to {out_path}", file=sys.stderr)
    return 0


def cmd_pool(args: argparse.Namespace) -> int:
    cfg = harness.RunConfig.from_json(args.config)
    if not cfg.pool_clean:
        raise ConfigError(f"{args.config} names no pool_clean to build the pool from")
    if Path(args.out).resolve() == Path(cfg.pool_clean).resolve().parent:
        raise ConfigError("--out must not be pool_clean's directory (inputs are never mutated)")
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
        records = corpus.jsonl_records(read_input(errors_log, "errors log"), errors_log)
        n_failed = harness.count_failed(record for _, record in records)
        print(f"partial failures: {n_failed} examples errored; see {errors_log}", file=sys.stderr)
    print(harness.render_report({cfg.name: result}), end="")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = harness.RunConfig.from_json(args.config)
    try:
        ks = [int(k) for k in args.ks.split(",") if k.strip()]
    except ValueError as exc:
        raise ConfigError(f"--ks: {exc}") from None
    check_unique(ks, lambda k: f"--ks: repeated k {k}")
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
    check_unique(ids, lambda tid: f"--ids: repeated id {tid!r}")
    baseline = args.baseline.strip() if args.baseline is not None else None
    if baseline is not None:
        check_choice(baseline, ids, "--baseline id")
    results = harness.compare_templates(cfg, ids)
    print(harness.render_report(results, baseline=baseline), end="")
    return 0


def _read_predictions(path: Path) -> tuple[dict[str, Prediction], dict[str, str]]:
    """The prediction and the group of each run id in a predictions.jsonl."""
    predictions: dict[str, Prediction] = {}
    groups: dict[str, str] = {}
    for lineno, record in corpus.jsonl_records(read_input(path, "predictions file"), path):
        try:
            rid = str(record["id"])
            groups[rid] = str(record["group"])
            pairs = tuple((str(s), str(t)) for s, t in record.get("pairs", []))
            predictions[rid] = Prediction(pairs, int(record.get("dropped_unknown_labels", 0)))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise DataError(f"{path}:{lineno}: bad prediction record: {exc!r}") from exc
    return predictions, groups


def cmd_score(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    gold = corpus.load_dataset(run_dir / "gold.jsonl")
    predictions, groups = _read_predictions(run_dir / "predictions.jsonl")
    orphans = sorted({ex.id for ex in gold}.symmetric_difference(predictions))
    if orphans:
        raise DataError(f"gold/prediction id mismatch: {', '.join(orphans[:10])}")
    counts = {ex.id: score_example(ex, predictions[ex.id], args.mode) for ex in gold}
    result = aggregate(counts, groups, args.mode)
    print(harness.render_report({"rescored": result}), end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results = {}
    for path in map(Path, args.results):
        text = read_input(path, "result file")
        try:
            payload = parse_json(text, str(path))
            result = harness.EvalResult.from_dict(payload["result"])
        except (KeyError, TypeError, AttributeError, ConfigError) as exc:
            why = exc if isinstance(exc, ConfigError) else repr(exc)
            raise DataError(f"{path}: bad result file: {why}") from exc
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
    p.add_argument("--spec", required=True, help="one pool_specs entry, as JSON text")
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

    p = sub.add_parser("score", help="rescore a run directory's predictions offline")
    p.add_argument("run_dir", help="the out_dir of an eval run")
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
    except (SlotNoiseError, OSError) as exc:  # an OSError here is an output write's
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
