from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from slotnoise import harness
from slotnoise.cli import main
from slotnoise.corpus import LabelSet, load_dataset
from slotnoise.demos import PoolIndex, embed
from slotnoise.harness import RunConfig
from slotnoise.perturb import spec_from_dict
from slotnoise.pools import build_pool, save_pool
from slotnoise.prompts import bundled_registry

from conftest import DATA_DIR, ROOT, SINGLE_SPLITS
from httpfake import Reply

CLEAN = str(DATA_DIR / "clean.jsonl")
# The spec of each machine-generated bundled split, by file stem.
GENERATED = json.loads((DATA_DIR / "manifest.json").read_text(encoding="utf-8"))["generated"]


def run_cli(*argv: str) -> int:
    return main(list(argv))


def eval_config(tmp_path: Path, **overrides) -> Path:
    payload = {
        "name": "cli-run",
        "test_splits": {g: str(DATA_DIR / f) for g, f in SINGLE_SPLITS[:3]},
        "out_dir": str(tmp_path / "run"),
        "pool_clean": CLEAN,
        "demo_mode": "instance",
        "demo_strategy": "random",
        "demo_pool": "clean",
        "demo_k": 2,
        "model": {"kind": "echo_gold"},
        "seed": 3,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def file_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def augment(out: Path, spec: dict) -> int:
    return run_cli("augment", "--in", CLEAN, "--out", str(out), "--spec", json.dumps(spec))


SPEECH = {"kind": "word_homophone", "p": 0.5, "seed": 22}
TYPOS = {"kind": "char_typos", "p": 0.3, "seed": 11}


class TestAugment:
    def test_p_zero_preserves_content(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        code = augment(out, {"kind": "char_typos", "p": 0})
        assert code == 0
        original = load_dataset(CLEAN)
        written = load_dataset(out)
        for before, after in zip(original, written):
            assert after.tokens == before.tokens
            assert after.spans == before.spans
            assert after.provenance != before.provenance
        assert "Typos" in capsys.readouterr().err

    def test_composite_members_column_naming(self, tmp_path, capsys):
        out = tmp_path / "mix.jsonl"
        code = augment(out, {"kind": "composite", "members": [SPEECH, TYPOS]})
        assert code == 0
        assert "Spe+Typ" in capsys.readouterr().err

    def test_same_flags_twice_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        append = {"kind": "append_irr", "p": 0.4, "seed": 5}
        for out in (a, b):
            assert augment(out, {"kind": "composite", "members": [SPEECH, TYPOS, append]}) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        code = augment(tmp_path / "x.jsonl", {"kind": "mystery"})
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_asset_flag_goes_only_to_the_kind_reading_it(self, tmp_path):
        lexicon = tmp_path / "homophones.txt"
        lexicon.write_text("play\tpleigh\n", encoding="utf-8")
        speech = {**SPEECH, "assets": {"homophone_lexicon": str(lexicon)}}
        composite = {"kind": "composite", "members": [TYPOS, speech]}
        spec = spec_from_dict(composite)
        assert [member.assets for member in spec.members] == [
            {}, {"homophone_lexicon": str(lexicon)}
        ]
        assert [member.seed for member in spec.members] == [11, 22]
        out = tmp_path / "mix.jsonl"
        assert augment(out, composite) == 0
        assert "pleigh" in out.read_text(encoding="utf-8")

    def test_refuses_to_overwrite_input(self, tmp_path):
        code = run_cli("augment", "--in", CLEAN, "--out", CLEAN, "--spec", json.dumps(TYPOS))
        assert code == 2

    def test_input_file_never_mutated(self, tmp_path):
        before = Path(CLEAN).read_bytes()
        augment(tmp_path / "o.jsonl", TYPOS)
        assert Path(CLEAN).read_bytes() == before

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_manifest_spec_replays_the_bundled_split(self, tmp_path, name):
        out = tmp_path / f"{name}.jsonl"
        assert augment(out, GENERATED[name]) == 0
        assert out.read_bytes() == (DATA_DIR / f"{name}.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("{kind", "--spec is not valid JSON"),
            ('{"kind": "char_typos", "p": 0.1, "p": 0.2}', "key 'p' is repeated in --spec"),
            (
                '{"kind": "composite", "members": '
                '[{"kind": "composite", "members": [{"kind": "char_typos"}]}]}',
                "must not be composites",
            ),
            ('{"kind": "composite", "members": "char_typos"}', "'members' must be a list"),
        ],
        ids=["json", "repeated", "nested", "members"],
    )
    def test_bad_spec_exits_2_before_any_write(self, tmp_path, capsys, text, named):
        out = tmp_path / "x.jsonl"
        assert run_cli("augment", "--in", CLEAN, "--out", str(out), "--spec", text) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_multi_token_insert_vocab_entry_exits_2_before_any_write(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("well\nby the way\n", encoding="utf-8")
        spec = {"kind": "word_insert", "p": 0.5, "seed": 1, "assets": {"insert_vocab": str(vocab)}}
        out = tmp_path / "out.jsonl"
        assert augment(out, spec) == 2
        err = capsys.readouterr().err
        assert err == "config error: insertion vocabulary entry 'by the way' is not one token\n"
        assert not out.exists()

    def test_spec_asset_paths_resolve_against_the_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "lex.txt").write_text("play\tpleigh\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        spec = {"kind": "word_homophone", "p": 1.0, "assets": {"homophone_lexicon": "lex.txt"}}
        assert augment(tmp_path / "o.jsonl", spec) == 0
        assert "pleigh" in (tmp_path / "o.jsonl").read_text(encoding="utf-8")


class TestPool:
    def test_pool_writes_files_and_manifest(self, tmp_path):
        specs = [{"kind": "char_typos", "p": 0.2, "seed": 1}, {"kind": "word_homophone", "p": 0.2}]
        config = eval_config(tmp_path, pool_specs=specs)
        out = tmp_path / "pool"
        assert run_cli("pool", "--config", str(config), "--out", str(out)) == 0
        assert (out / "clean.jsonl").exists()
        assert (out / "augmented.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["specs"]) == 2
        assert len(load_dataset(out / "augmented.jsonl")) == 60

    def test_pool_is_the_run_configs_pool(self, tmp_path):
        lexicon = tmp_path / "homophones.txt"
        lexicon.write_text("play\tpleigh\n", encoding="utf-8")
        specs = [
            {"kind": "char_typos", "p": 0.3, "seed": 1},
            {"kind": "word_homophone", "p": 1.0, "seed": 2, "assets": {"homophone_lexicon": str(lexicon)}},
            {"kind": "char_typos", "p": 0.5, "seed": 3},
        ]
        config = eval_config(tmp_path, pool_specs=specs)
        out = tmp_path / "pool"
        assert run_cli("pool", "--config", str(config), "--out", str(out)) == 0
        cfg = RunConfig.from_json(config)
        expected = build_pool(load_dataset(cfg.pool_clean, split_name="clean"), cfg.pool_specs)
        save_pool(expected, tmp_path / "expected", cfg.pool_specs)
        for name in ("augmented.jsonl", "manifest.json"):
            assert (tmp_path / "expected" / name).read_bytes() == (out / name).read_bytes()
        augmented = (out / "augmented.jsonl").read_text(encoding="utf-8")
        assert "__char_typos#2" in augmented and "pleigh" in augmented
        manifest = json.loads((out / "manifest.json").read_text())
        assert [spec_from_dict(d) for d in manifest["specs"]] == list(cfg.pool_specs)

    def test_manifest_records_no_p_or_seed_for_a_paraphrase_spec(self, tmp_path):
        spec = {"kind": "paraphrase", "assets": {"paraphrase_provider": "identity"}}
        config = eval_config(tmp_path, pool_specs=[spec])
        out = tmp_path / "pool"
        assert run_cli("pool", "--config", str(config), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest == {"specs": [spec]}

    def test_manifest_keeps_a_non_ascii_asset_path_as_is(self, tmp_path):
        lexicon = tmp_path / "homophones_café.txt"
        lexicon.write_text("play\tpleigh\n", encoding="utf-8")
        spec = {"kind": "word_homophone", "p": 1.0, "assets": {"homophone_lexicon": str(lexicon)}}
        config = eval_config(tmp_path, pool_specs=[spec])
        out = tmp_path / "pool"
        assert run_cli("pool", "--config", str(config), "--out", str(out)) == 0
        text = (out / "manifest.json").read_text(encoding="utf-8")
        assert f'"homophone_lexicon": "{lexicon}"' in text
        (entry,) = json.loads(text)["specs"]
        assert spec_from_dict(entry) == RunConfig.from_json(config).pool_specs[0]

    def test_out_at_pool_clean_directory_exits_2_before_any_write(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        clean = data / "clean.jsonl"
        # compact separators, which save_pool would rewrite in its canonical form
        records = map(json.loads, Path(CLEAN).read_text(encoding="utf-8").splitlines())
        clean.write_text(
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records), encoding="utf-8"
        )
        before = clean.read_bytes()
        config = eval_config(tmp_path, pool_clean=str(clean), pool_specs=[TYPOS])
        out = tmp_path / "data" / ".." / "data"
        assert run_cli("pool", "--config", str(config), "--out", str(out)) == 2
        assert "pool_clean" in capsys.readouterr().err
        assert clean.read_bytes() == before
        assert sorted(p.name for p in data.iterdir()) == ["clean.jsonl"]

    def test_config_without_pool_clean_exits_2_before_any_write(self, tmp_path, capsys):
        config = eval_config(tmp_path, pool_clean="", demo_k=0)
        out = tmp_path / "pool"
        assert run_cli("pool", "--config", str(config), "--out", str(out)) == 2
        assert "pool_clean" in capsys.readouterr().err
        assert not out.exists()


def test_config_assets_resolve_against_the_config_file(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "lex.txt").write_text("play\tpleigh\n", encoding="utf-8")
    (cfg_dir / "sentences.txt").write_text("by the way it is sunny\n", encoding="utf-8")
    speech = {**SPEECH, "p": 1.0, "assets": {"homophone_lexicon": "lex.txt"}}
    append = {"kind": "append_irr", "p": 1.0, "assets": {"sentence_pool": "sentences.txt"}}
    specs = [speech, {"kind": "composite", "members": [TYPOS, append]}]
    config = eval_config(cfg_dir, pool_specs=specs, demo_pool="augment", out_dir="run")
    trees = []
    for cwd in (cfg_dir, tmp_path):
        monkeypatch.chdir(cwd)
        shutil.rmtree(cfg_dir / "run", ignore_errors=True)
        assert run_cli("eval", "--config", str(config)) == 0
        assert run_cli("demo-preview", "--config", str(config), "--count", "1") == 0
        trees.append(file_hashes(cfg_dir / "run"))
    assert trees[0] == trees[1]
    prompts = (cfg_dir / "run" / "prompts.jsonl").read_text(encoding="utf-8")
    assert "pleigh" in prompts and "sunny" in prompts


@pytest.mark.parametrize(
    "spec, key",
    [
        ({**TYPOS, "assets": {"homophone_lexicon": "/no/such/file"}}, "homophone_lexicon"),
        (
            {
                "kind": "composite",
                "members": [
                    {"kind": "char_typos"},
                    {"kind": "word_delete", "assets": {"insert_vocab": "/no/such/file"}},
                ],
            },
            "insert_vocab",
        ),
    ],
)
def test_asset_flag_no_built_kind_reads_exits_2_naming_it(tmp_path, capsys, spec, key):
    out = tmp_path / "out"
    assert augment(out, spec) == 2
    captured = capsys.readouterr()
    assert repr(key) in captured.err and not captured.out
    assert not out.exists()


def split_prompt(prompt: str, body: str) -> tuple[str, str]:
    """The demonstrations block and the input utterance of a prompt rendered from body."""
    head, tail = body.split("{demonstrations}")
    before_labels, after_labels = head.split("{labels}")
    before_input, after_input = tail.split("{input}")
    assert prompt.startswith(before_labels) and prompt.endswith(after_input)
    rest = prompt[len(before_labels) : len(prompt) - len(after_input)]
    demonstrations, utterance = rest.split(after_labels, 1)[1].rsplit(before_input, 1)
    return demonstrations, utterance


class TestDemoPreview:
    def test_preview_prints_demos(self, tmp_path, capsys):
        config = eval_config(tmp_path, demo_mode="entity")
        assert run_cli("demo-preview", "--config", str(config), "--count", "2") == 0
        out = capsys.readouterr().out
        assert out.startswith("# Clean/u001: ") and "# Clean/u002: " in out
        assert '" is ' in out
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "name, strategy, label_file",
        [
            ("mock_single", "random", False),
            ("mock_single", "retrieve", False),
            ("mock_mixed", "random", False),
            ("mock_mixed", "retrieve", False),
            ("mock_mixed", "random", True),
        ],
    )
    def test_preview_prints_the_demonstrations_eval_prompts_hold(
        self, tmp_path, capsys, name, strategy, label_file
    ):
        cfg = RunConfig.from_json(ROOT / "configs" / f"{name}.json")
        payload = {**cfg.to_dict(), "out_dir": str(tmp_path / "run"), "demo_strategy": strategy}
        if label_file:  # entity demonstrations follow the label order; reverse it
            observed = LabelSet.from_observed(ex for _, p in cfg.test_splits for ex in load_dataset(p))
            labels = tmp_path / "labels.txt"
            labels.write_text("\n".join(reversed(observed.names)), encoding="utf-8")
            payload["labels_path"] = str(labels)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("eval", "--config", str(config)) == 0
        lines = (tmp_path / "run" / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
        body = bundled_registry()[cfg.template_id].body
        expected = ""
        for record in map(json.loads, lines[:5]):
            demonstrations, utterance = split_prompt(record["prompt"], body)
            expected += f"# {record['id']}: {utterance}\n{demonstrations}\n\n"
        capsys.readouterr()
        assert run_cli("demo-preview", "--config", str(config), "--count", "5") == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("mode", ["instance", "entity"])
    def test_retrieve_preview_embeds_the_pool_once(self, tmp_path, monkeypatch, capsys, mode):
        built = []
        init = PoolIndex.__init__

        def counting_init(self, *args, **kwargs):
            built.append(len(args[0]))
            init(self, *args, **kwargs)

        monkeypatch.setattr(PoolIndex, "__init__", counting_init)
        config = eval_config(tmp_path, demo_mode=mode, demo_strategy="retrieve")
        assert run_cli("demo-preview", "--config", str(config), "--count", "3") == 0
        assert capsys.readouterr().out.count("# Clean/u") == 3
        assert built == [len(load_dataset(CLEAN))]

    def test_preview_pool_uses_custom_lexicon(self, tmp_path, capsys):
        lexicon = tmp_path / "homophones.txt"
        lexicon.write_text("play\tpleigh\n", encoding="utf-8")
        spec = {"kind": "word_homophone", "p": 1.0, "assets": {"homophone_lexicon": str(lexicon)}}
        config = eval_config(tmp_path, pool_specs=[spec], demo_pool="augment", demo_k=30)
        assert run_cli("demo-preview", "--config", str(config), "--count", "1") == 0
        assert "pleigh" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_1_exits_2(self, tmp_path, capsys, count):
        assert run_cli("demo-preview", "--config", str(eval_config(tmp_path)), "--count", count) == 2
        captured = capsys.readouterr()
        assert f"--count must be >= 1, got {count}" in captured.err and not captured.out

    def test_config_without_demonstrations_exits_2(self, tmp_path, capsys):
        assert run_cli("demo-preview", "--config", str(eval_config(tmp_path, demo_k=0))) == 2
        captured = capsys.readouterr()
        assert "demo_k > 0" in captured.err and not captured.out


class TestEval:
    def test_mock_eval_prints_100(self, tmp_path, capsys):
        code = run_cli("eval", "--config", str(eval_config(tmp_path)))
        assert code == 0
        out = capsys.readouterr().out
        assert "100.00" in out
        assert out.splitlines()[0].split() == ["Method", "Clean", "Typos", "Speech", "Overall"]

    def test_missing_template_exits_2_naming_id(self, tmp_path, capsys):
        config = eval_config(tmp_path, template_id="t7_absent")
        code = run_cli("eval", "--config", str(config))
        assert code == 2
        assert "t7_absent" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_identical_flags_byte_identical_outputs(self, tmp_path):
        config = eval_config(tmp_path)
        assert run_cli("eval", "--config", str(config)) == 0
        first = file_hashes(tmp_path / "run")
        assert run_cli("eval", "--config", str(config)) == 0
        assert file_hashes(tmp_path / "run") == first

    def test_resume_after_interrupt_reproduces_responses(self, tmp_path):
        config = eval_config(tmp_path)
        assert run_cli("eval", "--config", str(config)) == 0
        run_dir = tmp_path / "run"
        responses = (run_dir / "responses.jsonl").read_bytes()
        # Simulate an interrupt: logs lost, cache intact.
        for name in ("responses.jsonl", "predictions.jsonl", "result.json", "report.txt"):
            (run_dir / name).unlink()
        assert run_cli("eval", "--config", str(config)) == 0
        assert (run_dir / "responses.jsonl").read_bytes() == responses

    def test_resume_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("eval", "--config", str(eval_config(tmp_path)), "--resume")
        assert exit_info.value.code == 2
        assert "--resume" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_example_failing_in_two_stages_is_counted_once(self, tmp_path, capsys, http_server):
        # The pool is embedded in one request, then each query in one; three
        # queries are refused (prompt stage) and every completion fails.
        pool = Reply(200, {"vectors": [[1.0, 0.0]] * 30})
        query = Reply(200, {"vectors": [[1.0, 0.0]]})
        refused = Reply(400, {"error": "bad query"})
        http_server.script(pool, refused, refused, refused, query)
        config = eval_config(
            tmp_path,
            test_splits={"Clean": CLEAN},
            demo_strategy="retrieve",
            embed_endpoint=http_server.url,
            model={"kind": "remote", "endpoint": "http://127.0.0.1:9/v1/chat/completions"},
            max_error_fraction=1.0,
        )
        assert run_cli("eval", "--config", str(config)) == 0
        log = (tmp_path / "run" / "errors.jsonl").read_text(encoding="utf-8").splitlines()
        stages = [json.loads(line)["stage"] for line in log]
        assert (stages.count("prompt"), stages.count("complete")) == (3, 30)
        assert "partial failures: 30 examples errored" in capsys.readouterr().err

    @pytest.mark.parametrize("provider", ["embedding", "paraphrase"])
    @pytest.mark.parametrize("body", [b"not json", {"other": 1}, [1, 2]], ids=["text", "keys", "list"])
    def test_malformed_provider_reply_exits_1(self, tmp_path, capsys, http_server, provider, body):
        http_server.script(Reply(200, body))
        if provider == "embedding":
            overrides = {"demo_strategy": "retrieve", "embed_endpoint": http_server.url}
        else:
            spec = {"kind": "paraphrase", "assets": {"paraphrase_provider": http_server.url}}
            overrides = {"pool_specs": [spec], "demo_pool": "augment"}
        assert run_cli("eval", "--config", str(eval_config(tmp_path, **overrides))) == 1
        assert "malformed response" in capsys.readouterr().err
        assert len(http_server.seen) == 1


class TestConfigSchema:
    @pytest.mark.parametrize(
        "overrides, key, suggestion",
        [
            ({"modle": {"kind": "remote"}}, "modle", "model"),
            ({"demo_K": 5}, "demo_K", "demo_k"),
            ({"model": {"kind": "echo_gold", "temprature": 0.7}}, "temprature", "temperature"),
            ({"pool_specs": [{"kind": "char_typos", "seeed": 1}]}, "seeed", "seed"),
            ({"pool_specs": [{"kind": "char_typos", "prob": 0.9}]}, "prob", "p"),
            (
                {"pool_specs": [{"kind": "word_homophone", "assets": {"homophone_lexcon": "x"}}]},
                "homophone_lexcon",
                "homophone_lexicon",
            ),
        ],
    )
    def test_unknown_key_exits_2_naming_key(self, tmp_path, capsys, overrides, key, suggestion):
        config = eval_config(tmp_path, **overrides)
        assert run_cli("eval", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and repr(suggestion) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("demo_mode", "entities"),
            ("demo_strategy", "retrieval"),
            ("demo_pool", "augmented"),
            ("scoring_mode", "strict"),
            ("demo_k", "five"),
            ("demo_k", 5.7),
            ("seed", True),
            ("max_error_fraction", True),
            ("max_error_fraction", -0.5),
            ("max_error_fraction", 1.5),
            ("max_error_fraction", float("nan")),
            ("test_splits", ["abc"]),
            ("test_splits", "clean.jsonl"),
            ("pool_specs", 5),
            ("pool_specs", None),
            ("pool_specs", "abc"),
            ("pool_specs", {"kind": "char_typos"}),
        ],
    )
    def test_bad_value_exits_2_before_any_write(self, tmp_path, capsys, key, value):
        cache = tmp_path / "cache"
        config = eval_config(tmp_path, cache_dir=str(cache), **{key: value})
        assert run_cli("eval", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert key in err and repr(value) in err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, float("nan")])
    def test_bad_model_timeout_exits_2_before_any_write(self, tmp_path, capsys, timeout):
        cache = tmp_path / "cache"
        model = {"kind": "echo_gold", "timeout": timeout}
        config = eval_config(tmp_path, cache_dir=str(cache), model=model)
        assert run_cli("eval", "--config", str(config)) == 2
        assert f"timeout must be > 0, got {timeout!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    @pytest.mark.parametrize(
        "key, value", [("p", 1.0), ("seed", 101), ("assets", {"homophone_lexicon": "/no/such/file"})]
    )
    def test_composite_with_own_setting_exits_2_before_any_write(self, tmp_path, capsys, key, value):
        cache = tmp_path / "cache"
        member = {"kind": "char_typos", "p": 0.3, "seed": 11}
        composite = {"kind": "composite", "members": [member], key: value}
        config = eval_config(tmp_path, cache_dir=str(cache), pool_specs=[composite])
        assert run_cli("eval", "--config", str(config)) == 2
        assert f"composite pool spec key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    def test_remote_model_without_endpoint_exits_2_before_any_write(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        config = eval_config(tmp_path, cache_dir=str(cache), model={"kind": "remote"})
        assert run_cli("eval", "--config", str(config)) == 2
        assert "remote client requires an endpoint" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    def test_multi_token_insert_vocab_entry_exits_2_before_any_write(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("well\nby the way\n", encoding="utf-8")
        spec = {"kind": "word_insert", "p": 0.5, "seed": 1, "assets": {"insert_vocab": str(vocab)}}
        config = eval_config(tmp_path, cache_dir=str(cache), pool_specs=[spec])
        assert run_cli("eval", "--config", str(config)) == 2
        assert "insertion vocabulary entry 'by the way'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    def test_cache_dir_that_is_a_file_exits_1_once_before_any_write(self, tmp_path, capsys, caplog):
        cache = tmp_path / "cachefile"
        cache.write_text("kept\n", encoding="utf-8")
        config = eval_config(tmp_path, cache_dir=str(cache))
        assert run_cli("eval", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and str(cache) in err
        assert caplog.records == []
        assert not (tmp_path / "run").exists()
        assert cache.read_text(encoding="utf-8") == "kept\n"

    def test_demos_without_pool_clean_exits_2_before_any_write(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        config = eval_config(tmp_path, cache_dir=str(cache), pool_clean="")
        assert run_cli("eval", "--config", str(config)) == 2
        assert "pool_clean" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    def test_asset_the_kind_does_not_read_exits_2_before_any_write(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        spec = {"kind": "char_typos", "p": 0.3, "seed": 1, "assets": {"homophone_lexicon": "/no/such/file"}}
        config = eval_config(tmp_path, cache_dir=str(cache), pool_specs=[spec])
        assert run_cli("eval", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert "'homophone_lexicon'" in err and "char_typos" in err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    def test_unknown_pool_spec_kind_names_the_closest_kind_before_any_write(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        config = eval_config(tmp_path, cache_dir=str(cache), pool_specs=[{"kind": "typos"}])
        assert run_cli("eval", "--config", str(config)) == 2
        assert "unknown perturbation kind: 'typos' (did you mean 'char_typos'?)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    @pytest.mark.parametrize("key, value", [("p", 0.1), ("seed", 7)])
    def test_paraphrase_spec_with_p_or_seed_exits_2_before_any_request(
        self, tmp_path, capsys, http_server, key, value
    ):
        # a paraphrase rewrites every example, so a rate or a seed would mislead
        cache = tmp_path / "cache"
        spec = {"kind": "paraphrase", "assets": {"paraphrase_provider": http_server.url}, key: value}
        config = eval_config(tmp_path, cache_dir=str(cache), pool_specs=[spec], demo_pool="augment")
        assert run_cli("eval", "--config", str(config)) == 2
        assert f"unknown paraphrase pool spec key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()
        out = tmp_path / "out.jsonl"
        assert augment(out, spec) == 2
        assert f"unknown paraphrase pool spec key {key!r}" in capsys.readouterr().err
        assert not out.exists()
        assert http_server.seen == []

    @pytest.mark.parametrize("command", [["eval"], ["sweep", "--ks", "0,2"]])
    def test_missing_labels_file_exits_2_before_any_write(self, tmp_path, capsys, command):
        cache = tmp_path / "cache"
        missing = tmp_path / "no_labels.txt"
        config = eval_config(tmp_path, cache_dir=str(cache), labels_path=str(missing))
        assert run_cli(command[0], "--config", str(config), *command[1:]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    def test_repeated_split_group_exits_2_before_any_request(self, tmp_path, capsys, http_server):
        splits = [["Clean", CLEAN], ["Clean", str(DATA_DIR / "typos.jsonl")]]
        model = {"kind": "remote", "endpoint": http_server.url}
        config = eval_config(tmp_path, test_splits=splits, model=model)
        assert run_cli("eval", "--config", str(config)) == 2
        assert "test split group 'Clean'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert http_server.seen == []

    @pytest.mark.parametrize(
        "overrides, field, repeated",
        [
            ({}, '"seed": 3', '"seed": 4'),
            ({"test_splits": {"Clean": CLEAN}}, f'"Clean": "{CLEAN}"', '"Clean": "typos.jsonl"'),
            ({}, '"kind": "echo_gold"', '"kind": "echo_gold"'),
            ({"pool_specs": [{"kind": "char_typos", "p": 0.3}]}, '"p": 0.3', '"p": 0.5'),
        ],
        ids=["top", "test_splits", "model", "pool_spec"],
    )
    def test_repeated_key_exits_2_before_any_write(
        self, tmp_path, capsys, overrides, field, repeated
    ):
        cache = tmp_path / "cache"
        config = eval_config(tmp_path, cache_dir=str(cache), **overrides)
        text = config.read_text(encoding="utf-8")
        assert text.count(field) == 1
        config.write_text(text.replace(field, f"{field}, {repeated}"), encoding="utf-8")
        assert run_cli("eval", "--config", str(config)) == 2
        key = repeated.split('"')[1]
        assert f"key {key!r} is repeated in {config}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not cache.exists()

    def test_label_file_missing_a_split_slot_type_exits_2_before_any_request(
        self, tmp_path, capsys, http_server
    ):
        labels = tmp_path / "labels.txt"
        labels.write_text("artist\n", encoding="utf-8")
        missing = next(name for name in load_dataset(CLEAN).labels if name != "artist")
        config = eval_config(
            tmp_path,
            test_splits={"Clean": CLEAN},
            labels_path=str(labels),
            model={"kind": "remote", "endpoint": http_server.url},
        )
        assert run_cli("eval", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert f"slot type {missing!r} of split 'Clean'" in err and str(labels) in err
        assert not (tmp_path / "run").exists()
        assert http_server.seen == []

    def test_label_file_line_keeps_a_line_separator_a_slot_type_holds(self, tmp_path):
        # JSONL splits at "\n" alone, so a slot type may hold U+2028; so may a label line
        label = "genre\u2028x"
        split = tmp_path / "split.jsonl"
        record = {"id": "e1", "tokens": ["play", "jazz"], "spans": [{"start": 1, "end": 1, "type": label}]}
        split.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        labels = tmp_path / "labels.txt"
        labels.write_text(label + "\n", encoding="utf-8")
        config = eval_config(tmp_path, test_splits={"Clean": str(split)}, labels_path=str(labels), demo_k=0)
        assert run_cli("eval", "--config", str(config)) == 0
        [line] = (tmp_path / "run" / "prompts.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
        assert f"allowed slot types are: {label}.\n" in json.loads(line)["prompt"]
        # and the answer line "jazz" is genre\u2028x parses back whole
        result = json.loads((tmp_path / "run" / "result.json").read_text(encoding="utf-8"))
        assert result["result"]["per_group"]["Clean"]["f1"] == 100.0

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        config = eval_config(tmp_path)
        payload = json.loads(config.read_text(encoding="utf-8"))
        del payload["test_splits"]
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("eval", "--config", str(config)) == 2
        assert "'test_splits'" in capsys.readouterr().err


def entity_config_with_unseen_label(tmp_path: Path, **overrides) -> Path:
    """An entity run whose label file adds a label no pool candidate carries."""
    splits = {g: str(DATA_DIR / f) for g, f in SINGLE_SPLITS[:2]}
    observed = LabelSet.from_observed(ex for path in splits.values() for ex in load_dataset(path))
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join([*observed.names, "unseen_label"]) + "\n", encoding="utf-8")
    return eval_config(
        tmp_path,
        test_splits=splits,
        labels_path=str(labels),
        demo_mode="entity",
        demo_k=1,
        max_error_fraction=1.0,
        **overrides,
    )


class TestRunLabelSet:
    def test_uncovered_label_exits_1_before_any_embedding_request(
        self, tmp_path, capsys, monkeypatch
    ):
        requests = []

        def counting_provider(endpoint):
            def embed_texts(texts):
                requests.append(list(texts))
                return np.stack([embed(text) for text in texts])

            return embed_texts

        monkeypatch.setattr(harness, "http_embedding_provider", counting_provider)
        names = load_dataset(CLEAN).labels.names
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join([*names, "unseen_label"]) + "\n", encoding="utf-8")
        config = eval_config(
            tmp_path,
            test_splits={"Clean": CLEAN},
            labels_path=str(labels),
            demo_mode="entity",
            demo_strategy="retrieve",
            demo_k=1,
            embed_endpoint="http://127.0.0.1:9/embed",
        )
        assert run_cli("eval", "--config", str(config)) == 1
        assert "unseen_label" in capsys.readouterr().err
        assert requests == []
        assert not (tmp_path / "run").exists()
        # the same run over labels every candidate carries embeds the pool first
        labels.write_text("\n".join(names) + "\n", encoding="utf-8")
        assert run_cli("eval", "--config", str(config)) == 0
        assert len(requests[0]) == len(load_dataset(CLEAN))

    @pytest.mark.parametrize("strategy", ["random", "retrieve"])
    def test_label_no_candidate_carries_exits_1_before_any_write(self, tmp_path, capsys, strategy):
        config = entity_config_with_unseen_label(tmp_path, demo_strategy=strategy)
        assert run_cli("eval", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.count("unseen_label") == 1 and "'clean'" in err
        assert not (tmp_path / "run").exists()

    def test_template_comparison_with_unsupported_label_writes_nothing(self, tmp_path, capsys):
        config = entity_config_with_unseen_label(tmp_path)
        assert run_cli("templates", "--config", str(config), "--ids", "t1_english,t2_concise") == 1
        assert capsys.readouterr().err.count("unseen_label") == 1
        assert not (tmp_path / "run").exists()  # so no tmpl_* sub-run directory either

    def test_preview_with_unsupported_label_exits_1_naming_it(self, tmp_path, capsys):
        config = entity_config_with_unseen_label(tmp_path)
        assert run_cli("demo-preview", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert "unseen_label" in captured.err and not captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval"],
            ["sweep", "--ks", "0,5"],
            ["templates", "--ids", "t1_english,t2_concise"],
            ["demo-preview"],
        ],
        ids=["eval", "sweep", "templates", "demo-preview"],
    )
    def test_empty_demo_pool_exits_1_before_any_request(self, tmp_path, capsys, http_server, argv):
        # "augment" without pool_specs holds no candidate
        config = eval_config(
            tmp_path,
            demo_pool="augment",
            demo_k=5,
            max_error_fraction=1.0,
            model={"kind": "remote", "endpoint": http_server.url},
        )
        assert run_cli(argv[0], "--config", str(config), *argv[1:]) == 1
        captured = capsys.readouterr()
        assert f"demo_pool 'augment' of {CLEAN} holds no candidates" in captured.err
        assert not captured.out
        assert not (tmp_path / "run").exists()
        assert http_server.seen == []

    def test_every_sweep_sub_run_lists_the_same_labels(self, tmp_path):
        # the pool carries a label that no test split holds
        pool = tmp_path / "pool.jsonl"
        extra = {"id": "x1", "tokens": ["book", "a", "pod"], "spans": [{"start": 2, "end": 2, "type": "vehicle"}]}
        pool.write_text(Path(CLEAN).read_text(encoding="utf-8") + json.dumps(extra) + "\n", encoding="utf-8")
        config = eval_config(tmp_path, out_dir=str(tmp_path / "sweep"), pool_clean=str(pool))
        assert run_cli("sweep", "--config", str(config), "--ks", "0,1") == 0
        listed = {}
        for k in ("k0", "k1"):
            lines = (tmp_path / "sweep" / k / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
            prompts = [json.loads(line)["prompt"] for line in lines]
            listed[k] = {p.split("allowed slot types are: ", 1)[1].split(".\n", 1)[0] for p in prompts}
        assert len(listed["k0"]) == 1 and listed["k0"] == listed["k1"]
        assert "vehicle" in next(iter(listed["k0"])).split(", ")


class TestEmptyTestSplit:
    @pytest.mark.parametrize(
        "splits", [{"Typos": None}, {"Clean": CLEAN, "Typos": None}], ids=["alone", "mixed"]
    )
    def test_empty_split_exits_1_before_any_write(self, tmp_path, capsys, splits):
        empty = tmp_path / "typos.jsonl"
        empty.write_text("", encoding="utf-8")
        splits = {group: path or str(empty) for group, path in splits.items()}
        config = eval_config(tmp_path, test_splits=splits)
        assert run_cli("eval", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err == f"error: test split 'Typos' ({empty}) holds no examples\n"
        assert not (tmp_path / "run").exists()

    def test_score_over_empty_logs_exits_1(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ("gold.jsonl", "predictions.jsonl"):
            (run_dir / name).write_text("", encoding="utf-8")
        assert run_cli("score", str(run_dir)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no scored examples to aggregate\n"
        assert not captured.out


def _eval(tmp_path: Path, **overrides) -> list[str]:
    return ["eval", "--config", str(eval_config(tmp_path, **overrides))]


def _augment_in(tmp_path: Path, in_path: Path) -> list[str]:
    out = str(tmp_path / "out.jsonl")
    return ["augment", "--in", str(in_path), "--out", out, "--spec", json.dumps(TYPOS)]


def _gold_only(tmp_path: Path) -> Path:
    run_dir = tmp_path / "gold_only"
    run_dir.mkdir()
    shutil.copy(CLEAN, run_dir / "gold.jsonl")
    return run_dir


# Each case: (argv given tmp_path and a missing path, a directory and a
# non-UTF-8 file; what the one error line must say).
BAD_INPUTS = {
    "config-missing": lambda t, m, d, b: (
        ["eval", "--config", str(m)], f"config file not found: {m}"),
    "config-directory": lambda t, m, d, b: (
        ["eval", "--config", str(d)], f"config file not found: {d}"),
    "config-not-utf8": lambda t, m, d, b: (["eval", "--config", str(b)], f"{b}: cannot read"),
    "split-directory": lambda t, m, d, b: (
        _eval(t, test_splits={"Clean": str(d)}), f"dataset file not found: {d}"),
    "split-not-utf8": lambda t, m, d, b: (
        _eval(t, test_splits={"Clean": str(b)}), f"{b}: cannot read"),
    "labels-directory": lambda t, m, d, b: (
        _eval(t, labels_path=str(d)), f"label file not found: {d}"),
    "empty-homophone-lexicon": lambda t, m, d, b: (
        _eval(t, pool_specs=[{**SPEECH, "assets": {"homophone_lexicon": ""}}]),
        "homophone lexicon not found: ."),
    "augment-in-directory": lambda t, m, d, b: (
        _augment_in(t, d), f"dataset file not found: {d}"),
    "augment-in-not-utf8": lambda t, m, d, b: (_augment_in(t, b), f"{b}: cannot read"),
    "score-without-predictions": lambda t, m, d, b: (
        ["score", str(_gold_only(t))],
        f"predictions file not found: {t / 'gold_only' / 'predictions.jsonl'}"),
    "report-missing": lambda t, m, d, b: (["report", str(m)], f"result file not found: {m}"),
}


@pytest.mark.parametrize(
    "case, code", [(case, 1 if case.endswith("not-utf8") else 2) for case in BAD_INPUTS]
)
def test_bad_input_path_exits_with_one_line_naming_it(tmp_path, capsys, case, code):
    missing, directory, binary = tmp_path / "missing.json", tmp_path / "dir", tmp_path / "bin.jsonl"
    directory.mkdir()
    binary.write_bytes(b'{"id": "u\xff"}\n')
    argv, message = BAD_INPUTS[case](tmp_path, missing, directory, binary)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == 2 else "error: "
    assert err.count("\n") == 1 and err.startswith(prefix) and message in err
    assert sorted(tmp_path.rglob("*")) == before


# Each case: (argv given tmp_path, an existing directory and an existing file;
# the output path that argv cannot write).
BAD_OUTPUTS = {
    "augment-out-directory": lambda t, d, f: (
        ["augment", "--in", CLEAN, "--out", str(d), "--spec", json.dumps(TYPOS)], d),
    "eval-out-dir-file": lambda t, d, f: (_eval(t, out_dir=str(f)), f),
    "pool-out-file": lambda t, d, f: (["pool", "--config", str(eval_config(t)), "--out", str(f)], f),
}


@pytest.mark.parametrize("case", BAD_OUTPUTS)
def test_unwritable_output_path_exits_1_with_one_line_naming_it(tmp_path, capsys, case):
    directory, file = tmp_path / "dir", tmp_path / "file.txt"
    directory.mkdir()
    file.write_text("kept\n", encoding="utf-8")
    argv, path = BAD_OUTPUTS[case](tmp_path, directory, file)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err
    assert sorted(tmp_path.rglob("*")) == before
    assert file.read_text(encoding="utf-8") == "kept\n"


def _stored_result(tmp_path: Path, name: str = "cli-run") -> str:
    """The result.json of an eval run named name, outside tmp_path / "run"."""
    stored = tmp_path / "stored" / name
    assert run_cli(*_eval(tmp_path, name=name, out_dir=str(stored))) == 0
    return str(stored / "result.json")


# Each case: (argv given tmp_path; the message naming the setting, the bad
# value and the closest valid value).
BAD_CHOICES = {
    "demo_mode": lambda t: (
        _eval(t, demo_mode="entities"), "unknown demo_mode: 'entities' (did you mean 'entity'?)"),
    "demo_strategy": lambda t: (
        _eval(t, demo_strategy="retrieval"),
        "unknown demo_strategy: 'retrieval' (did you mean 'retrieve'?)"),
    "demo_pool": lambda t: (
        _eval(t, demo_pool="augmented"), "unknown demo_pool: 'augmented' (did you mean 'augment'?)"),
    "scoring_mode": lambda t: (
        _eval(t, scoring_mode="strict"),
        "unknown scoring_mode: 'strict' (did you mean 'strict_span'?)"),
    "model-kind": lambda t: (
        _eval(t, model={"kind": "echo"}), "unknown model kind: 'echo' (did you mean 'echo_gold'?)"),
    "template_id": lambda t: (
        _eval(t, template_id="t1_englsh"),
        "unknown template id: 't1_englsh' (did you mean 't1_english'?)"),
    "templates-baseline": lambda t: (
        ["templates", "--config", str(eval_config(t)), "--ids", "t1_english,t2_concise",
         "--baseline", "t2_consise"],
        "unknown --baseline id: 't2_consise' (did you mean 't2_concise'?)"),
    "report-baseline": lambda t: (
        ["report", _stored_result(t), "--baseline", "cli_run"],
        "unknown baseline run: 'cli_run' (did you mean 'cli-run'?)"),
    "report-baseline-case": lambda t: (
        ["report", _stored_result(t, "runA"), _stored_result(t, "runB"), "--baseline", "runa"],
        "unknown baseline run: 'runa' (did you mean 'runA'?)"),
}


@pytest.mark.parametrize("case", BAD_CHOICES)
def test_bad_named_value_exits_2_naming_the_closest_valid_one(tmp_path, capsys, case):
    argv, message = BAD_CHOICES[case](tmp_path)
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))  # so no run directory and no cache/
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


class TestSweepAndTemplates:
    def test_sweep_prints_table(self, tmp_path, capsys):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        code = run_cli("sweep", "--config", str(config), "--ks", "0,2")
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("k\t")
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize(
        "ks, named", [("1,x", "'x'"), ("0,2.5", "'2.5'"), ("0,2,0", "repeated k 0")]
    )
    def test_sweep_bad_ks_exit_2_naming_value(self, tmp_path, capsys, ks, named):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        assert run_cli("sweep", "--config", str(config), "--ks", ks) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    # Every sub-config is built before the first sub-run, so a later bad k
    # leaves no earlier k's directory and no shared cache behind.
    @pytest.mark.parametrize(
        "overrides, ks, named",
        [({"pool_clean": "", "demo_k": 0}, "0,5", "pool_clean"), ({}, "1,-2", "demo_k")],
    )
    def test_sweep_later_bad_k_fails_before_any_run(self, tmp_path, capsys, overrides, ks, named):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "sweep"), **overrides)
        assert run_cli("sweep", "--config", str(config), "--ks", ks) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_templates_list(self, capsys):
        assert run_cli("templates", "--list") == 0
        out = capsys.readouterr().out
        assert "t1_english" in out and "t3_chinese" in out

    def test_templates_compare(self, tmp_path, capsys):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        code = run_cli("templates", "--config", str(config), "--ids", "t1_english,t2_concise")
        assert code == 0
        out = capsys.readouterr().out
        assert "t1_english" in out and "t2_concise" in out

    def test_templates_ids_tolerate_spaces(self, tmp_path):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        assert run_cli("templates", "--config", str(config), "--ids", "t1_english,t2_concise") == 0
        unspaced = file_hashes(tmp_path / "cmp")
        shutil.rmtree(tmp_path / "cmp")
        spaced = " t1_english, t2_concise "
        assert run_cli("templates", "--config", str(config), "--ids", spaced) == 0
        assert file_hashes(tmp_path / "cmp") == unspaced

    def test_templates_unknown_id_fails_before_any_run(self, tmp_path, capsys):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        code = run_cli("templates", "--config", str(config), "--ids", "t1_english,bogus")
        assert code == 2
        assert "bogus" in capsys.readouterr().err
        assert not list(tmp_path.glob("cmp/tmpl_*"))

    def test_templates_repeated_id_exits_2_before_any_run(self, tmp_path, capsys):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        code = run_cli("templates", "--config", str(config), "--ids", "t1_english, t1_english")
        assert code == 2
        assert "repeated id 't1_english'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_templates_baseline_tolerates_spaces(self, tmp_path, capsys):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        code = run_cli(
            "templates", "--config", str(config), "--ids", "t1_english, t2_concise",
            "--baseline", " t2_concise",
        )
        assert code == 0
        assert "(+0.0)" in capsys.readouterr().out

    def test_templates_unknown_baseline_fails_before_any_run(self, tmp_path, capsys):
        config = eval_config(tmp_path, out_dir=str(tmp_path / "cmp"))
        code = run_cli(
            "templates", "--config", str(config), "--ids", "t1_english,t2_concise",
            "--baseline", "nope",
        )
        assert code == 2
        assert "'nope'" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


class TestScoreAndReport:
    def test_rescoring_run_logs_reproduces_report(self, tmp_path, capsys):
        config = eval_config(tmp_path)
        assert run_cli("eval", "--config", str(config)) == 0
        capsys.readouterr()
        run_dir = tmp_path / "run"
        code = run_cli("score", str(run_dir))
        assert code == 0
        rescored = capsys.readouterr().out
        original = (run_dir / "report.txt").read_text()
        # Same cells, different method name column.
        assert [l.split()[1:] for l in rescored.splitlines()[2:3]] == [
            l.split()[1:] for l in original.splitlines()[2:3]
        ]

    def test_empty_predictions_all_zero(self, tmp_path, capsys):
        config = eval_config(tmp_path)
        assert run_cli("eval", "--config", str(config)) == 0
        capsys.readouterr()
        run_dir = shutil.copytree(tmp_path / "run", tmp_path / "empty")
        empty = run_dir / "predictions.jsonl"
        lines = []
        for line in empty.read_text().splitlines():
            record = json.loads(line)
            record["pairs"] = []
            lines.append(json.dumps(record))
        empty.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli("score", str(run_dir))
        assert code == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("rescored"))
        assert set(row.split()[1:]) == {"0.00"}

    def test_strict_span_never_beats_text_match(self, tmp_path, capsys):
        config = eval_config(tmp_path)
        assert run_cli("eval", "--config", str(config)) == 0
        run_dir = tmp_path / "run"
        scores = {}
        for mode in ("text_match", "strict_span"):
            capsys.readouterr()
            assert run_cli("score", str(run_dir), "--mode", mode) == 0
            out = capsys.readouterr().out
            row = next(l for l in out.splitlines() if l.startswith("rescored"))
            scores[mode] = [float(c) for c in row.split()[1:]]
        for strict, text in zip(scores["strict_span"], scores["text_match"]):
            assert strict <= text

    def test_id_mismatch_lists_orphans(self, tmp_path, capsys):
        config = eval_config(tmp_path)
        assert run_cli("eval", "--config", str(config)) == 0
        run_dir = shutil.copytree(tmp_path / "run", tmp_path / "truncated")
        truncated = run_dir / "predictions.jsonl"
        lines = truncated.read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = run_cli("score", str(run_dir))
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(lines[-1])["id"] in err

    def test_prediction_record_without_group_exits_1_naming_the_line(self, tmp_path, capsys):
        assert run_cli("eval", "--config", str(eval_config(tmp_path))) == 0
        run_dir = shutil.copytree(tmp_path / "run", tmp_path / "ungrouped")
        predictions = run_dir / "predictions.jsonl"
        lines = predictions.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        del record["group"]
        lines[1] = json.dumps(record)
        predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("score", str(run_dir)) == 1
        assert f"{predictions}:2: bad prediction record: KeyError('group')" in capsys.readouterr().err

    def test_prediction_line_not_json_exits_1_naming_the_line(self, tmp_path, capsys):
        assert run_cli("eval", "--config", str(eval_config(tmp_path))) == 0
        run_dir = shutil.copytree(tmp_path / "run", tmp_path / "garbled")
        predictions = run_dir / "predictions.jsonl"
        lines = predictions.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rstrip("}")
        predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("score", str(run_dir)) == 1
        assert f"{predictions}:2: invalid JSON" in capsys.readouterr().err

    def test_score_keeps_a_record_whose_id_holds_a_line_separator(self, tmp_path, capsys):
        split = tmp_path / "split.jsonl"
        clean = (DATA_DIR / "clean.jsonl").read_text(encoding="utf-8")
        split.write_text(clean.replace('"id": "u001"', '"id": "u\u2028001"'), encoding="utf-8")
        config = eval_config(tmp_path, test_splits={"Clean": str(split)}, demo_k=0)
        assert run_cli("eval", "--config", str(config)) == 0
        capsys.readouterr()
        assert run_cli("score", str(tmp_path / "run")) == 0
        row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("rescored"))
        assert row.split()[1] == "100.00"

    def test_report_from_stored_results(self, tmp_path, capsys):
        config_a = eval_config(tmp_path, name="runA")
        assert run_cli("eval", "--config", str(config_a)) == 0
        config_b = eval_config(tmp_path, name="runB", out_dir=str(tmp_path / "runB"))
        assert run_cli("eval", "--config", str(config_b)) == 0
        capsys.readouterr()
        code = run_cli(
            "report",
            str(tmp_path / "run" / "result.json"),
            str(tmp_path / "runB" / "result.json"),
            "--baseline", "runA",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runA" in out and "runB" in out
        assert "(+0.0)" in out
        # Runs sharing a name keep a row each.
        stored = (tmp_path / "runB" / "result.json").read_text(encoding="utf-8")
        paths = []
        for i, micro in enumerate((100.0, 0.0, 100.0)):
            payload = json.loads(stored)
            payload["name"] = "run"
            payload["result"]["overall"]["micro_f1"] = micro
            path = tmp_path / f"r{i}" / "result.json"
            path.parent.mkdir()
            path.write_text(json.dumps(payload), encoding="utf-8")
            paths.append(str(path))
        capsys.readouterr()
        assert run_cli("report", *paths[:2]) == 0
        rows = capsys.readouterr().out.splitlines()[2:4]
        assert [row.split()[0] for row in rows] == ["run", "run:result"]
        assert run_cli("report", *paths) == 0
        rows = capsys.readouterr().out.splitlines()[2:5]
        assert [row.split()[0] for row in rows] == ["run", "run:result", "run:result#2"]
        assert [row.split()[-1] for row in rows] == ["100.00", "0.00", "100.00"]

    @pytest.mark.parametrize(
        "text, named",
        [("{not json", "JSONDecodeError"), ('{"name": "x"}', "KeyError('result')")],
    )
    def test_report_on_malformed_result_exits_1_naming_path(self, tmp_path, capsys, text, named):
        bad = tmp_path / "result.json"
        bad.write_text(text, encoding="utf-8")
        assert run_cli("report", str(bad)) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and named in err

    @pytest.mark.parametrize(
        "block, key, change",
        [
            ("overall", "micro_f2", "add"),
            ("overall", "macro_f1", "drop"),
            ("per_group", "supprt", "add"),
            ("per_example", "fn", "drop"),
            ("per_example", "tp", "retype"),
            (None, "modes", "add"),
        ],
    )
    def test_report_on_unknown_or_missing_key_exits_1_naming_it(
        self, tmp_path, capsys, block, key, change
    ):
        assert run_cli("eval", "--config", str(eval_config(tmp_path))) == 0
        path = tmp_path / "run" / "result.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        record = payload["result"]
        if block == "overall":
            record = record["overall"]
        elif block == "per_group":
            record = next(iter(record["per_group"].values()))
        elif block == "per_example":
            record = record["per_example"][0]
        if change == "add":
            record[key] = 0
        elif change == "retype":
            record[key] = True
        else:
            del record[key]
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("report", str(path)) == 1
        assert f"'{key}'" in capsys.readouterr().err
