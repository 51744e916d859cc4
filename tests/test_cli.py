from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from slotnoise.cli import _build_spec, build_arg_parser, main
from slotnoise.corpus import LabelSet, load_dataset
from slotnoise.demos import PoolIndex
from slotnoise.harness import RunConfig
from slotnoise.perturb import derive_seed, spec_from_dict
from slotnoise.pools import build_pool, save_pool
from slotnoise.prompts import bundled_registry

from conftest import DATA_DIR, ROOT, SINGLE_SPLITS
from httpfake import Reply

CLEAN = str(DATA_DIR / "clean.jsonl")


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


class TestAugment:
    def test_p_zero_preserves_content(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        code = run_cli("augment", "--in", CLEAN, "--out", str(out), "--kind", "char_typos", "--p", "0")
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
        code = run_cli(
            "augment", "--in", CLEAN, "--out", str(out),
            "--kind", "composite", "--members", "speech,typos", "--p", "0.3",
        )
        assert code == 0
        assert "Spe+Typ" in capsys.readouterr().err

    def test_same_flags_twice_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli(
                "augment", "--in", CLEAN, "--out", str(out),
                "--kind", "composite", "--members", "speech,typos,append_irr",
                "--p", "0.4", "--seed", "11",
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        code = run_cli("augment", "--in", CLEAN, "--out", str(tmp_path / "x.jsonl"), "--kind", "mystery")
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("members", ["typos,typos", "typos,char_typos"])
    def test_repeated_member_kind_exits_2_naming_it(self, tmp_path, capsys, members):
        out = tmp_path / "mix.jsonl"
        code = run_cli(
            "augment", "--in", CLEAN, "--out", str(out),
            "--kind", "composite", "--members", members,
        )
        assert code == 2
        assert "repeats kind char_typos" in capsys.readouterr().err
        assert not out.exists()

    def test_asset_flag_goes_only_to_the_kind_reading_it(self, tmp_path):
        lexicon = tmp_path / "homophones.txt"
        lexicon.write_text("play\tpleigh\n", encoding="utf-8")
        argv = [
            "augment", "--in", CLEAN, "--out", str(tmp_path / "mix.jsonl"),
            "--kind", "composite", "--members", "typos,speech", "--homophones", str(lexicon),
        ]
        spec = _build_spec(build_arg_parser().parse_args(argv))
        assert [member.assets for member in spec.members] == [
            {}, {"homophone_lexicon": str(lexicon)}
        ]
        assert [member.seed for member in spec.members] == [
            derive_seed(0, "member:char_typos"), derive_seed(0, "member:word_homophone")
        ]
        assert run_cli(*argv) == 0

    def test_refuses_to_overwrite_input(self, tmp_path):
        code = run_cli("augment", "--in", CLEAN, "--out", CLEAN, "--kind", "typos")
        assert code == 2

    def test_input_file_never_mutated(self, tmp_path):
        before = Path(CLEAN).read_bytes()
        run_cli("augment", "--in", CLEAN, "--out", str(tmp_path / "o.jsonl"), "--kind", "typos")
        assert Path(CLEAN).read_bytes() == before


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

    def test_config_without_pool_clean_exits_2_before_any_write(self, tmp_path, capsys):
        config = eval_config(tmp_path, pool_clean="", demo_k=0)
        out = tmp_path / "pool"
        assert run_cli("pool", "--config", str(config), "--out", str(out)) == 2
        assert "pool_clean" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        (["augment", "--out", "OUT", "--kind", "typos", "--homophones", "/no/such/file"], "--homophones"),
        (
            ["augment", "--out", "OUT", "--kind", "composite", "--members", "typos,delete", "--vocab", "/no/such/file"],
            "--vocab",
        ),
    ],
)
def test_asset_flag_no_built_kind_reads_exits_2_naming_it(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    argv = [str(out) if arg == "OUT" else arg for arg in command]
    assert run_cli(argv[0], "--in", CLEAN, *argv[1:]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and not captured.out
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
            spec = {"kind": "paraphrase", "p": 1.0, "assets": {"paraphrase_provider": http_server.url}}
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

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        config = eval_config(tmp_path)
        payload = json.loads(config.read_text(encoding="utf-8"))
        del payload["test_splits"]
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("eval", "--config", str(config)) == 2
        assert "'test_splits'" in capsys.readouterr().err


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
        code = run_cli(
            "score",
            "--gold", str(run_dir / "gold.jsonl"),
            "--predictions", str(run_dir / "predictions.jsonl"),
            "--groups", str(run_dir / "groups.tsv"),
        )
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
        run_dir = tmp_path / "run"
        empty = tmp_path / "empty_predictions.jsonl"
        lines = []
        for line in (run_dir / "predictions.jsonl").read_text().splitlines():
            record = json.loads(line)
            record["pairs"] = []
            lines.append(json.dumps(record))
        empty.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(
            "score",
            "--gold", str(run_dir / "gold.jsonl"),
            "--predictions", str(empty),
            "--groups", str(run_dir / "groups.tsv"),
        )
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
            assert run_cli(
                "score",
                "--gold", str(run_dir / "gold.jsonl"),
                "--predictions", str(run_dir / "predictions.jsonl"),
                "--groups", str(run_dir / "groups.tsv"),
                "--mode", mode,
            ) == 0
            out = capsys.readouterr().out
            row = next(l for l in out.splitlines() if l.startswith("rescored"))
            scores[mode] = [float(c) for c in row.split()[1:]]
        for strict, text in zip(scores["strict_span"], scores["text_match"]):
            assert strict <= text

    def test_id_mismatch_lists_orphans(self, tmp_path, capsys):
        config = eval_config(tmp_path)
        assert run_cli("eval", "--config", str(config)) == 0
        run_dir = tmp_path / "run"
        truncated = tmp_path / "some_predictions.jsonl"
        lines = (run_dir / "predictions.jsonl").read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = run_cli(
            "score",
            "--gold", str(run_dir / "gold.jsonl"),
            "--predictions", str(truncated),
            "--groups", str(run_dir / "groups.tsv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(lines[-1])["id"] in err

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
