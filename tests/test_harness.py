from __future__ import annotations

import hashlib
import json
import math
import random
import threading
from collections import Counter
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from slotnoise import client as client_mod
from slotnoise import corpus as corpus_mod
from slotnoise import demos as demos_mod
from slotnoise import harness as harness_mod
from slotnoise import perturb
from slotnoise.client import ModelConfig, ResponseCache
from slotnoise.corpus import (
    Dataset,
    LabeledExample,
    LabelSet,
    SlotSpan,
    load_dataset,
    save_dataset,
)
from slotnoise.demos import PoolIndex, embed
from slotnoise.errors import ConfigError, HarnessError
from slotnoise.perturb import PerturbationSpec
from slotnoise.pools import build_pool
from slotnoise.harness import (
    RunConfig,
    compare_templates,
    config_hash,
    preview_demos,
    render_report,
    run_experiment,
    sweep_demo_count,
)
from slotnoise.scorer import MatchCounts, aggregate

from conftest import DATA_DIR, ROOT, SINGLE_SPLITS
from httpfake import chat_reply
from test_scorer import TABLE_FIXTURE_ROW, table_fixture_result


def base_config(tmp_path: Path, **overrides) -> RunConfig:
    defaults = dict(
        test_splits=tuple((g, str(DATA_DIR / f)) for g, f in SINGLE_SPLITS[:3]),
        out_dir=str(tmp_path / "run"),
        name="test",
        pool_clean=str(DATA_DIR / "clean.jsonl"),
        demo_mode="instance",
        demo_strategy="random",
        demo_pool="clean",
        demo_k=2,
        model=ModelConfig(kind="echo_gold"),
        seed=7,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def synthetic_split(path: Path, n_examples: int = 300) -> None:
    labels = ["alpha", "beta", "gamma", "delta"]
    examples = []
    for i in range(n_examples):
        tokens = (f"w{i}a", f"w{i}b")
        spans = (
            SlotSpan(0, 0, labels[i % 4]),
            SlotSpan(1, 1, labels[(i + 1) % 4]),
        )
        examples.append(LabeledExample(f"syn{i:04d}", tokens, spans))
    ds = Dataset(tuple(examples), LabelSet(tuple(labels)), "synthetic")
    save_dataset(ds, path)


class TestRunExperiment:
    def test_echo_gold_scores_100_everywhere(self, tmp_path):
        result = run_experiment(base_config(tmp_path))
        for name, group in result.per_group.items():
            assert group.f1 == 100.0, name
        assert result.overall.micro_f1 == 100.0
        assert result.overall.macro_f1 == 100.0

    def test_zero_shot_prompts_have_no_demo_block(self, tmp_path):
        cfg = base_config(tmp_path, demo_k=0)
        run_experiment(cfg)
        prompts = [
            json.loads(line)["prompt"]
            for line in (tmp_path / "run" / "prompts.jsonl").read_text().splitlines()
        ]
        assert prompts
        for prompt in prompts:
            assert prompt.count("Sentence:") == 1

    def test_k_positive_prompts_contain_demos(self, tmp_path):
        cfg = base_config(tmp_path, demo_k=3)
        run_experiment(cfg)
        prompts = [
            json.loads(line)["prompt"]
            for line in (tmp_path / "run" / "prompts.jsonl").read_text().splitlines()
        ]
        for prompt in prompts:
            assert prompt.count("Sentence:") == 4

    def test_run_dir_layout(self, tmp_path):
        cfg = base_config(tmp_path)
        run_experiment(cfg)
        out = tmp_path / "run"
        for name in (
            "config.json",
            "gold.jsonl",
            "prompts.jsonl",
            "responses.jsonl",
            "predictions.jsonl",
            "result.json",
            "report.txt",
            "report.tsv",
        ):
            assert (out / name).exists(), name
        assert not (out / "groups.tsv").exists()  # each prediction record carries its group
        payload = json.loads((out / "result.json").read_text())
        assert payload["config_hash"] == config_hash(cfg)

    def test_cold_run_makes_the_cache_directory_once(self, tmp_path, monkeypatch):
        made = []
        real = client_mod.os.makedirs

        def counting(path, *args, **kwargs):
            made.append(Path(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(client_mod.os, "makedirs", counting)
        clean = (("Clean", str(DATA_DIR / "clean.jsonl")),)
        run_experiment(base_config(tmp_path, test_splits=clean, demo_k=0))
        assert made.count(tmp_path / "run" / "cache") == 1
        assert len(list((tmp_path / "run" / "cache").iterdir())) == 30

    def test_responses_attributable_to_example_and_prompt(self, tmp_path):
        run_experiment(base_config(tmp_path))
        out = tmp_path / "run"
        prompts = {
            json.loads(line)["id"]: json.loads(line)
            for line in (out / "prompts.jsonl").read_text().splitlines()
        }
        seen = set()
        for line in (out / "responses.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert record["id"] not in seen
            seen.add(record["id"])
            assert prompts[record["id"]]["prompt_sha"] == record["prompt_sha"]

    def test_rerun_is_bit_deterministic_with_zero_backend_calls(self, tmp_path, monkeypatch):
        cfg = base_config(tmp_path)
        first = run_experiment(cfg)
        out = tmp_path / "run"
        tracked = sorted(p for p in out.rglob("*") if p.is_file())
        snapshot = {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in tracked}

        calls = []
        real = client_mod.complete

        def counting(prompt, cfg_, side_channel=None, labels=()):
            calls.append(prompt)
            return real(prompt, cfg_, side_channel, labels)

        monkeypatch.setattr(client_mod, "complete", counting)
        second = run_experiment(cfg)
        assert second == first
        assert calls == []  # warm cache: no backend invocations
        for path, digest in snapshot.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path

    def test_missing_template_is_config_error(self, tmp_path):
        cfg = base_config(tmp_path, template_id="t9_missing")
        with pytest.raises(ConfigError, match="t9_missing"):
            run_experiment(cfg)

    def test_demos_without_pool_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="pool_clean"):
            run_experiment(base_config(tmp_path, pool_clean="", demo_k=3))
        assert not (tmp_path / "run").exists()

    def test_threaded_completion_matches_sequential(self, tmp_path):
        sequential = run_experiment(base_config(tmp_path, out_dir=str(tmp_path / "seq")))
        threaded = run_experiment(
            base_config(
                tmp_path,
                out_dir=str(tmp_path / "par"),
                model=ModelConfig(kind="echo_gold", max_in_flight=4),
            )
        )
        assert threaded.per_group == sequential.per_group
        assert [e.id for e in threaded.per_example] == [e.id for e in sequential.per_example]

    def test_error_budget_enforced(self, tmp_path, monkeypatch):
        def exploding(prompt, cfg_, side_channel=None, labels=()):
            raise RuntimeError("backend down")

        monkeypatch.setattr(client_mod, "complete", exploding)
        cfg = base_config(tmp_path, demo_k=0)
        with pytest.raises(HarnessError, match="failed"):
            run_experiment(cfg)

    def test_errors_within_budget_score_as_empty(self, tmp_path, monkeypatch):
        real = client_mod.complete
        failures = {"Clean/u001"}

        def flaky(prompt, cfg_, side_channel=None, labels=()):
            if side_channel is not None and f"Clean/{side_channel.id}" in failures and "u001" in side_channel.id:
                raise RuntimeError("transient")
            return real(prompt, cfg_, side_channel, labels)

        monkeypatch.setattr(client_mod, "complete", flaky)
        cfg = base_config(tmp_path, demo_k=0, max_error_fraction=0.5)
        result = run_experiment(cfg)
        scores = {e.id: e for e in result.per_example}
        failed = scores["Clean/u001"]
        assert failed.tp == 0 and failed.fn > 0
        assert (tmp_path / "run" / "errors.jsonl").exists()


    # 2 of 30 examples within the 10% budget, 4 of 30 beyond it. Each failing
    # example fails its prompt stage and its completion: two error records.
    @pytest.mark.parametrize("n_failing, over_budget", [(2, False), (4, True)])
    def test_error_budget_counts_examples_not_stages(
        self, tmp_path, monkeypatch, n_failing, over_budget
    ):
        failing = {f"u{i:03d}" for i in range(1, n_failing + 1)}
        real_demos, real_complete = harness_mod._build_demos, client_mod.complete

        def broken_demos(cfg_, ex, *args):
            if ex.id in failing:
                raise RuntimeError("no demonstrations")
            return real_demos(cfg_, ex, *args)

        def broken_complete(prompt, cfg_, side_channel=None, labels=()):
            if side_channel.id in failing:
                raise RuntimeError("backend down")
            return real_complete(prompt, cfg_, side_channel, labels)

        monkeypatch.setattr(harness_mod, "_build_demos", broken_demos)
        monkeypatch.setattr(client_mod, "complete", broken_complete)
        cfg = base_config(tmp_path, test_splits=(("Clean", str(DATA_DIR / "clean.jsonl")),))
        assert cfg.max_error_fraction == 0.1
        if over_budget:
            with pytest.raises(HarnessError, match=f"{n_failing}/30 examples failed"):
                run_experiment(cfg)
        else:
            run_experiment(cfg)
        errors = (tmp_path / "run" / "errors.jsonl").read_text(encoding="utf-8")
        records = [json.loads(line) for line in errors.splitlines()]
        assert sorted((r["id"], r["stage"]) for r in records) == sorted(
            (f"Clean/{i}", stage) for i in failing for stage in ("prompt", "complete")
        )

    @pytest.mark.parametrize(
        "model", [ModelConfig(kind="echo_gold"), ModelConfig(kind="noisy_oracle", error_rate=0.0)]
    )
    def test_gold_fix_is_answered_anew_in_the_same_out_dir(self, tmp_path, model):
        clean = load_dataset(DATA_DIR / "clean.jsonl")
        labels = tmp_path / "labels.txt"  # fixed label list: the prompts cannot change
        labels.write_text("\n".join(clean.labels) + "\n", encoding="utf-8")
        split = tmp_path / "clean.jsonl"
        save_dataset(clean, split)
        cfg = base_config(
            tmp_path,
            test_splits=(("Clean", str(split)),),
            labels_path=str(labels),
            model=model,
            demo_k=0,
        )
        run_experiment(cfg)
        ex = next(e for e in clean if e.spans)
        old = ex.spans[0]
        new_type = next(name for name in clean.labels if name != old.slot_type)
        fixed = replace(ex, spans=(replace(old, slot_type=new_type),) + ex.spans[1:])
        save_dataset(
            Dataset(tuple(fixed if e.id == ex.id else e for e in clean), clean.labels, "clean"),
            split,
        )
        prompts = (tmp_path / "run" / "prompts.jsonl").read_bytes()
        result = run_experiment(cfg)
        assert (tmp_path / "run" / "prompts.jsonl").read_bytes() == prompts
        assert result.overall.micro_f1 == 100.0
        lines = (tmp_path / "run" / "responses.jsonl").read_text(encoding="utf-8").splitlines()
        responses = {r["id"]: r["response"] for r in map(json.loads, lines)}
        assert f'"{ex.surface(old)}" is {new_type}.' in responses[f"Clean/{ex.id}"]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestChunks:
    """Walking examples in chunks of 7 instead of CHUNK_SIZE changes no byte."""

    def test_failures_spread_across_chunks(self, tmp_path, monkeypatch):
        # 90 examples in 13 chunks of 7; each failing id fails in all three splits.
        prompt_failing, complete_failing = {"u004", "u020"}, {"u009", "u020", "u027"}
        real_demos, real_complete = harness_mod._build_demos, client_mod.complete

        def broken_demos(cfg_, ex, *args):
            if ex.id in prompt_failing:
                raise RuntimeError("no demonstrations")
            return real_demos(cfg_, ex, *args)

        def broken_complete(prompt, cfg_, side_channel=None, labels=()):
            if side_channel.id in complete_failing:
                raise RuntimeError("backend down")
            return real_complete(prompt, cfg_, side_channel, labels)

        monkeypatch.setattr(harness_mod, "_build_demos", broken_demos)
        monkeypatch.setattr(client_mod, "complete", broken_complete)
        runs = {}
        for chunk_size in (corpus_mod.CHUNK_SIZE, 7):
            monkeypatch.setattr(corpus_mod, "CHUNK_SIZE", chunk_size)
            out = tmp_path / f"chunk{chunk_size}"
            run_experiment(base_config(tmp_path, out_dir=str(out), max_error_fraction=0.2))
            runs[chunk_size] = tree_bytes(out)
            with pytest.raises(HarnessError, match="12/90 examples failed"):
                run_experiment(base_config(tmp_path, out_dir=str(tmp_path / "over")))
        assert runs[7] == runs[corpus_mod.CHUNK_SIZE]
        records = [json.loads(line) for line in runs[7]["errors.jsonl"].decode().splitlines()]
        stages = [r["stage"] for r in records]
        assert stages == ["prompt"] * 6 + ["complete"] * 9
        assert [r["id"] for r in records[:6]] == [
            f"{group}/{i}" for group in ("Clean", "Typos", "Speech") for i in ("u004", "u020")
        ]

    def test_remote_model_in_flight(self, tmp_path, monkeypatch, http_server):
        http_server.script(chat_reply('"jazz" is genre.'))
        model = ModelConfig(kind="remote", endpoint=http_server.url, max_in_flight=2)
        runs = {}
        for chunk_size in (corpus_mod.CHUNK_SIZE, 7):
            monkeypatch.setattr(corpus_mod, "CHUNK_SIZE", chunk_size)
            out = tmp_path / f"chunk{chunk_size}"
            sent = len(http_server.seen)
            run_experiment(base_config(tmp_path, out_dir=str(out), model=model))
            assert len(http_server.seen) > sent  # each run has its own cache
            runs[chunk_size] = tree_bytes(out)
        assert runs[7] == runs[corpus_mod.CHUNK_SIZE]


class TestInFlight:
    """The cache stays on the calling thread; the workers only call the backend."""

    def _remote(self, server, max_in_flight=2):
        return ModelConfig(kind="remote", endpoint=server.url, max_in_flight=max_in_flight)

    def test_a_repeated_prompt_is_sent_once(self, tmp_path, http_server):
        copy = tmp_path / "copy.jsonl"
        save_dataset(load_dataset(DATA_DIR / "clean.jsonl"), copy)
        splits = (("Clean", str(DATA_DIR / "clean.jsonl")), ("Copy", str(copy)))
        http_server.script(chat_reply('"jazz" is genre.'))
        runs = {}
        for workers in (1, 2):
            out = tmp_path / f"run{workers}"
            sent = len(http_server.seen)
            model = self._remote(http_server, workers)
            cfg = base_config(tmp_path, out_dir=str(out), test_splits=splits, demo_k=0, model=model)
            run_experiment(cfg)
            bodies = [seen.body for seen in http_server.seen[sent:]]
            assert len(bodies) == len(set(bodies)) == 30
            runs[workers] = tree_bytes(out)
        # Only the settings differ: config.json and the config hash in result.json.
        for tree in runs.values():
            del tree["config.json"]
            tree["result.json"] = json.loads(tree["result.json"])["result"]
        assert runs[1] == runs[2]

    def test_workers_only_call_the_backend(self, tmp_path, monkeypatch, http_server):
        threads: dict[str, set[bool]] = {"get": set(), "put": set(), "complete": set()}
        real_get, real_put, real_complete = ResponseCache.get, ResponseCache.put, client_mod.complete

        def on_main(name):
            threads[name].add(threading.current_thread() is threading.main_thread())

        def get(self, key):
            on_main("get")
            return real_get(self, key)

        def put(self, *args):
            on_main("put")
            return real_put(self, *args)

        def complete(*args):
            on_main("complete")
            return real_complete(*args)

        monkeypatch.setattr(ResponseCache, "get", get)
        monkeypatch.setattr(ResponseCache, "put", put)
        monkeypatch.setattr(client_mod, "complete", complete)
        http_server.script(chat_reply('"jazz" is genre.'))
        run_experiment(base_config(tmp_path, model=self._remote(http_server)))
        assert threads == {"get": {True}, "put": {True}, "complete": {False}}

    @pytest.mark.parametrize("budget", [0.1, 0.0])
    def test_an_unstorable_response_is_a_failed_completion(self, tmp_path, monkeypatch, budget):
        real_put = ResponseCache.put
        puts = []

        def put(self, *args):
            puts.append(args[0])
            if len(puts) == 1:
                raise OSError("no space left on device")
            return real_put(self, *args)

        monkeypatch.setattr(ResponseCache, "put", put)
        cfg = base_config(
            tmp_path,
            test_splits=(("Clean", str(DATA_DIR / "clean.jsonl")),),
            demo_k=0,
            model=ModelConfig(kind="echo_gold", max_in_flight=2),
            max_error_fraction=budget,
        )
        if budget == 0.0:
            with pytest.raises(HarnessError, match="1/30 examples failed"):
                run_experiment(cfg)
        else:
            failed = next(e for e in run_experiment(cfg).per_example if e.id == "Clean/u001")
            assert (failed.tp, failed.fp, failed.fn) == (0, 0, 1)
        out = tmp_path / "run"
        errors = (out / "errors.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in errors] == [
            {"id": "Clean/u001", "stage": "complete", "error": "no space left on device"}
        ]
        first = json.loads((out / "responses.jsonl").read_text(encoding="utf-8").splitlines()[0])
        assert (first["id"], first["response"]) == ("Clean/u001", "")
        assert not (out / "cache" / f"{puts[0]}.json").exists()

    def test_warm_threaded_rerun_sends_nothing(self, tmp_path, http_server):
        http_server.script(chat_reply('"jazz" is genre.'))
        cfg = base_config(tmp_path, model=self._remote(http_server))

        def outputs():
            tree = tree_bytes(tmp_path / "run")
            return {name: data for name, data in tree.items() if not name.startswith("cache/")}

        run_experiment(cfg)
        cold = outputs()
        prompts = {json.loads(line)["prompt_sha"] for line in cold["prompts.jsonl"].splitlines()}
        assert len(http_server.seen) == len(prompts)
        sent = len(http_server.seen)
        run_experiment(cfg)
        assert len(http_server.seen) == sent
        assert outputs() == cold


class TestRetrieval:
    @pytest.mark.parametrize("demo_mode", ["instance", "entity"])
    def test_pool_candidates_embedded_once_per_run(self, tmp_path, monkeypatch, demo_mode):
        embedded: Counter[str] = Counter()

        def counting_provider(endpoint, timeout=30.0):
            def provider(texts):
                embedded.update(texts)
                return np.stack([embed(text) for text in texts])

            return provider

        monkeypatch.setattr(harness_mod, "http_embedding_provider", counting_provider)
        clean = load_dataset(DATA_DIR / "clean.jsonl")
        # One extra token keeps every query utterance out of the pool.
        queries = [replace(ex, tokens=ex.tokens + ("now",)) for ex in clean]
        split = tmp_path / "queries.jsonl"
        save_dataset(Dataset(tuple(queries), clean.labels, "queries"), split)
        cfg = base_config(
            tmp_path,
            test_splits=(("Clean", str(split)),),
            pool_specs=(PerturbationSpec(kind=perturb.CHAR_TYPOS, p=0.3, seed=1),),
            demo_mode=demo_mode,
            demo_strategy="retrieve",
            demo_pool="mixed",
            embed_endpoint="http://embeddings.test",
        )
        result = run_experiment(cfg)
        assert result.overall.micro_f1 == 100.0
        assert not (tmp_path / "run" / "errors.jsonl").exists()
        candidates = Counter(
            ex.utterance for ex in build_pool(clean, cfg.pool_specs).mixed.examples
        )
        assert not candidates.keys() & {ex.utterance for ex in queries}
        assert {u: embedded[u] for u in candidates} == dict(candidates)


class TestNoisyOracleCalibration:
    @pytest.mark.parametrize("error_rate", [0.1, 0.3, 0.5])
    def test_recall_tracks_survival_rate(self, tmp_path, error_rate):
        split = tmp_path / "syn.jsonl"
        synthetic_split(split, n_examples=300)  # 600 gold pairs
        cfg = base_config(
            tmp_path,
            test_splits=(("Synthetic", str(split)),),
            out_dir=str(tmp_path / f"run_e{error_rate}"),
            demo_k=0,
            model=ModelConfig(kind="noisy_oracle", error_rate=error_rate, seed=13),
        )
        result = run_experiment(cfg)
        n = result.per_group["Synthetic"].support
        assert n >= 500
        expected = 1.0 - error_rate
        se = math.sqrt(error_rate * (1.0 - error_rate) / n)
        recall = result.overall.micro_recall / 100.0
        assert abs(recall - expected) <= 3 * se

    def test_precision_tracks_swap_rate(self, tmp_path):
        # With drop/swap equiprobable at e=0.3: keep 0.70, swap 0.15, so
        # precision ~ 0.70 / (0.70 + 0.15); tolerance by delta-method SE.
        split = tmp_path / "syn.jsonl"
        synthetic_split(split, n_examples=300)
        cfg = base_config(
            tmp_path,
            test_splits=(("Synthetic", str(split)),),
            out_dir=str(tmp_path / "run_prec"),
            demo_k=0,
            model=ModelConfig(kind="noisy_oracle", error_rate=0.3, seed=29),
        )
        result = run_experiment(cfg)
        n = result.per_group["Synthetic"].support
        keep, swap = 0.70, 0.15
        expected = keep / (keep + swap)
        var_keep = n * keep * (1 - keep)
        var_swap = n * swap * (1 - swap)
        mean_keep, mean_swap = n * keep, n * swap
        se = math.sqrt(
            (mean_swap**2 * var_keep + mean_keep**2 * var_swap)
            / (mean_keep + mean_swap) ** 4
        )
        precision = result.overall.micro_precision / 100.0
        assert abs(precision - expected) <= 3 * se


class TestSweep:
    def test_single_k_matches_run_experiment(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        results = sweep_demo_count(cfg, [1])
        solo = run_experiment(base_config(tmp_path, demo_k=1, out_dir=str(tmp_path / "solo")))
        assert results[1].per_group == solo.per_group
        assert results[1].overall == solo.overall

    def test_echo_gold_curve_is_flat_100(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        results = sweep_demo_count(cfg, [0, 1, 3])
        assert [results[k].overall.micro_f1 for k in (0, 1, 3)] == [100.0, 100.0, 100.0]
        sweep_file = tmp_path / "sweep" / "sweep.tsv"
        lines = sweep_file.read_text().splitlines()
        assert lines[0].startswith("k\t")
        assert len(lines) == 4

    def test_noisy_oracle_curve_flat_within_noise(self, tmp_path):
        # The oracle ignores demonstrations, so the sweep must isolate demo
        # effects: identical prompts per k differ only in the demo block,
        # which perturbs the per-prompt rng stream but not the error rate.
        split = tmp_path / "syn.jsonl"
        synthetic_split(split, n_examples=200)
        cfg = base_config(
            tmp_path,
            test_splits=(("Synthetic", str(split)),),
            out_dir=str(tmp_path / "sweep"),
            model=ModelConfig(kind="noisy_oracle", error_rate=0.3, seed=5),
        )
        results = sweep_demo_count(cfg, [0, 2, 5])
        recalls = [results[k].overall.micro_recall / 100.0 for k in (0, 2, 5)]
        n = 400
        band = 3 * math.sqrt(0.3 * 0.7 / n)
        for recall in recalls:
            assert abs(recall - 0.7) <= band

    def test_entity_mode_rejected(self, tmp_path):
        cfg = base_config(tmp_path, demo_mode="entity")
        with pytest.raises(ConfigError, match="instance"):
            sweep_demo_count(cfg, [1])

    def test_runs_share_one_cache(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        sweep_demo_count(cfg, [0, 1])
        assert (tmp_path / "sweep" / "cache").is_dir()
        for k in (0, 1):
            assert not (tmp_path / "sweep" / f"k{k}" / "cache").exists()


class TestCompareTemplates:
    def test_identical_templates_identical_rows(self, tmp_path):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        body = "Labels: {labels}\n{demonstrations}\nSentence: {input}\nEntities:\n"
        (tdir / "a.txt").write_text(f"id: ta lang: en\n{body}", encoding="utf-8")
        (tdir / "b.txt").write_text(f"id: tb lang: en\n{body}", encoding="utf-8")
        cfg = base_config(
            tmp_path,
            templates_dir=str(tdir),
            template_id="ta",
            out_dir=str(tmp_path / "cmp"),
            model=ModelConfig(kind="noisy_oracle", error_rate=0.4, seed=3),
        )
        results = compare_templates(cfg, ["ta", "tb"])
        assert results["ta"].per_group == results["tb"].per_group

    def test_single_template_single_row(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        results = compare_templates(cfg, ["t1_english"])
        report = render_report(results)
        data_rows = [
            line for line in report.splitlines()[2:] if line and "Overall(macro)" not in line
        ]
        assert len(data_rows) == 1

    def test_echo_gold_rows_template_invariant(self, tmp_path):
        cfg = base_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        results = compare_templates(cfg, ["t1_english", "t2_concise", "t3_chinese"])
        rows = {tid: r.per_group for tid, r in results.items()}
        assert rows["t1_english"] == rows["t2_concise"] == rows["t3_chinese"]


class TestPrepareOnce:
    """A sweep or a template comparison prepares one input for all its sub-runs."""

    @pytest.fixture
    def calls(self, monkeypatch) -> Counter:
        calls: Counter = Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key(*args, **kwargs)] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, key in [
            ("load_dataset", lambda path, split_name="": ("load", str(path), split_name)),
            ("build_pool", lambda *a: "build_pool"),
            ("bundled_registry", lambda: "registry"),
        ]:
            monkeypatch.setattr(harness_mod, name, counted(key, getattr(harness_mod, name)))
        monkeypatch.setattr(
            PoolIndex, "__init__", counted(lambda *a: "PoolIndex", PoolIndex.__init__)
        )
        return calls

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg: sweep_demo_count(cfg, [0, 1, 5, 10]),
            lambda cfg: compare_templates(cfg, ["t1_english", "t2_concise", "t3_chinese"]),
        ],
        ids=["sweep", "templates"],
    )
    def test_pool_index_registry_and_splits_built_once(self, tmp_path, calls, run):
        cfg = base_config(tmp_path, demo_strategy="retrieve", out_dir=str(tmp_path / "multi"))
        run(cfg)
        expected = {("load", path, group): 1 for group, path in cfg.test_splits}
        expected[("load", cfg.pool_clean, "clean")] = 1
        expected.update(build_pool=1, PoolIndex=1, registry=1)
        assert dict(calls) == expected


class TestOneIndex:
    """A run lists each label's candidates and embeds its pool at most once."""

    @pytest.mark.parametrize("mode", ["instance", "entity"])
    def test_random_run_and_preview_never_embed(self, tmp_path, monkeypatch, mode):
        embedded = []
        embed_texts = demos_mod._embed_texts

        def recording(texts, *args):
            embedded.append(list(texts))
            return embed_texts(texts, *args)

        monkeypatch.setattr(demos_mod, "_embed_texts", recording)
        cfg = base_config(tmp_path, demo_mode=mode)
        run_experiment(cfg)
        assert len(preview_demos(cfg, 5)) == 5
        assert embedded == []

    def test_entity_random_run_lists_labels_once(self, tmp_path, monkeypatch):
        listed = []
        label_spans = PoolIndex.label_spans.func

        def counting(index):
            listed.append(len(index))
            return label_spans(index)

        counted = cached_property(counting)
        counted.__set_name__(PoolIndex, "label_spans")
        monkeypatch.setattr(PoolIndex, "label_spans", counted)
        cfg = RunConfig.from_json(ROOT / "configs" / "mock_mixed.json")
        assert (cfg.demo_mode, cfg.demo_strategy) == ("entity", "random")
        result = run_experiment(replace(cfg, out_dir=str(tmp_path / "run")))
        assert len(result.per_example) > 1
        assert listed == [len(load_dataset(cfg.pool_clean))]


class TestRenderReport:
    def test_single_result_single_data_row(self):
        result = table_fixture_result()
        text = render_report({"only": result})
        lines = text.splitlines()
        data = [l for l in lines[2:] if l and "Overall(macro)" not in l]
        assert len(data) == 1
        assert data[0].startswith("only")

    def test_fixture_row_renders_reference_numbers_in_order(self):
        result = table_fixture_result()
        text = render_report({"ChatGPT": result})
        row = next(l for l in text.splitlines() if l.startswith("ChatGPT"))
        cells = row.split()
        assert cells == ["ChatGPT", *TABLE_FIXTURE_ROW]
        header = text.splitlines()[0].split()
        assert header == [
            "Method", "Clean", "Typos", "Speech", "Paraphrase",
            "Simplification", "Verbose", "Overall",
        ]

    def test_baseline_self_all_deltas_zero(self):
        result = table_fixture_result()
        text = render_report({"only": result}, baseline="only")
        row = next(l for l in text.splitlines() if l.startswith("only"))
        assert row.count("(+0.0)") == len(table_fixture_result().per_group) + 1

    def test_delta_annotation_style(self):
        base_counts = {"c0": MatchCounts(50, 73, 73)}  # 40.65 F1
        improved_counts = {"c0": MatchCounts(13, 7, 7)}  # 65.00 F1
        base = aggregate(base_counts, {"c0": "Typos"})
        improved = aggregate(improved_counts, {"c0": "Typos"})
        text = render_report({"base": base, "plus_demos": improved}, baseline="base")
        row = next(l for l in text.splitlines() if l.startswith("plus_demos"))
        assert "65.00(+24.3)" in row

    def test_mixed_layout_columns(self):
        groups = ["Clean", "Typos", "Speech", "AppendIrr", "Spe+Typ", "Spe+App", "Ent+App", "Spe+App+Typ"]
        counts = {f"e{i}": MatchCounts(1, 1, 1) for i in range(len(groups))}
        mapping = {f"e{i}": g for i, g in enumerate(groups)}
        result = aggregate(counts, mapping)
        text = render_report({"run": result})
        header = text.splitlines()[0].split()
        assert header == ["Method", *groups, "Overall"]

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            render_report({"a": table_fixture_result()}, baseline="nope")

    def test_missing_group_renders_dash(self):
        a = aggregate({"x": MatchCounts(1, 0, 0)}, {"x": "Typos"})
        b = aggregate({"y": MatchCounts(1, 0, 0)}, {"y": "Speech"})
        text = render_report({"a": a, "b": b})
        row_b = next(l for l in text.splitlines() if l.startswith("b"))
        assert "-" in row_b.split()


class TestRunConfig:
    def test_from_json_resolves_relative_paths(self, tmp_path):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        payload = {
            "name": "rel",
            "test_splits": {"Clean": "../data/clean.jsonl"},
            "out_dir": "../runs/rel",
            "pool_clean": "../data/clean.jsonl",
            "model": {"kind": "echo_gold"},
        }
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "clean.jsonl").write_text("", encoding="utf-8")
        path = config_dir / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        cfg = RunConfig.from_json(path)
        assert Path(cfg.test_splits[0][1]).resolve() == (tmp_path / "data" / "clean.jsonl").resolve()
        assert Path(cfg.out_dir).resolve() == (tmp_path / "runs" / "rel").resolve()

    def test_asset_paths_resolve_against_the_config_file(self, tmp_path):
        lexicon = {"kind": "word_homophone", "assets": {"homophone_lexicon": "lex.txt"}}
        members = [
            {"kind": "word_insert", "assets": {"insert_vocab": ["a", "b"]}},
            {"kind": "append_irr", "assets": {"sentence_pool": "/abs/sentences.txt"}},
            {"kind": "paraphrase", "assets": {"paraphrase_provider": "identity"}},
            {"kind": "word_homophone", "assets": {"homophone_lexicon": {"two": ["too"]}}},
            {"kind": "char_typos"},
        ]
        payload = {
            "test_splits": {"Clean": "clean.jsonl"},
            "out_dir": "run",
            "pool_specs": [lexicon, {"kind": "composite", "members": members}],
        }
        cfg = RunConfig.from_dict(payload, base_dir=tmp_path / "cfg")
        single, composite = cfg.pool_specs
        assert single.assets == {"homophone_lexicon": str(tmp_path / "cfg" / "lex.txt")}
        assert [m.assets for m in composite.members] == [
            {"insert_vocab": ["a", "b"]},
            {"sentence_pool": "/abs/sentences.txt"},
            {"paraphrase_provider": "identity"},
            {"homophone_lexicon": {"two": ["too"]}},
            {},
        ]

    def test_config_hash_stable_and_sensitive(self, tmp_path):
        a = base_config(tmp_path)
        b = base_config(tmp_path)
        c = base_config(tmp_path, seed=8)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    @pytest.mark.parametrize("name", ["mock_single.json", "mock_mixed.json"])
    def test_bundled_config_round_trips(self, name):
        cfg = RunConfig.from_json(DATA_DIR.parent / "configs" / name)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_model_labels_are_not_configurable(self, tmp_path):
        data = base_config(tmp_path).to_dict()
        data["model"]["labels"] = ["genre"]
        with pytest.raises(ConfigError, match="unknown model key 'labels'"):
            RunConfig.from_dict(data)

    def test_pool_specs_round_trip_through_json(self, tmp_path):
        from slotnoise.perturb import CHAR_TYPOS, PerturbationSpec

        cfg = base_config(
            tmp_path, pool_specs=(PerturbationSpec(kind=CHAR_TYPOS, p=0.25, seed=3),)
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        loaded = RunConfig.from_json(path)
        assert loaded.pool_specs == cfg.pool_specs
