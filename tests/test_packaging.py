"""Guards on what the package needs and on the bundled data it ships."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

import pytest

from slotnoise import perturb
from slotnoise.cli import build_arg_parser, main, main_entry

from conftest import DATA_DIR, ROOT


def test_cli_import_pulls_in_no_requests():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import slotnoise.cli, sys; assert 'requests' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_src_keeps_no_process_wide_cache():
    pattern = re.compile(r"lru_cache|functools\.cache|from functools import[^\n]*\bcache\b")
    for path in sorted((ROOT / "src").rglob("*.py")):
        assert not pattern.search(path.read_text(encoding="utf-8")), path


def test_every_benchmark_trace_hook_resolves_to_a_callable(monkeypatch):
    # perfbench/spans.py wraps these names by lookup and only reports a
    # vanished one, so a renamed or moved function would go unnoticed.
    spec = importlib.util.spec_from_file_location("_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.HOOKS:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert spans.HOOKS and missing == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


def test_make_splits_reproduces_the_bundled_data(tmp_path):
    script = ROOT / "scripts" / "make_splits.py"
    subprocess.run(
        [sys.executable, str(script), str(tmp_path)], check=True, capture_output=True, timeout=120
    )
    bundled = sorted(p.name for p in DATA_DIR.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name


def test_console_entry_point_lists_the_bundled_templates(monkeypatch, capsys):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'slotnoise = "slotnoise.cli:main_entry"' in pyproject
    monkeypatch.setattr(sys, "argv", ["slotnoise", "templates", "--list"])
    with pytest.raises(SystemExit) as exit_info:
        main_entry()
    assert exit_info.value.code == 0
    ids = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    assert ids == ["t1_english", "t2_concise", "t3_chinese"]


def test_readme_names_every_perturbation_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [kind for kind in perturb.KINDS if f"`{kind}`" not in readme] == []


def readme_cli_commands() -> list[list[str]]:
    """The argv of each `slotnoise` line in the README's CLI block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("slotnoise ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert len(commands) >= 8
    parser, rejected = build_arg_parser(), []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(shlex.join(argv))
    assert rejected == []


def test_readme_augment_examples_run(tmp_path, monkeypatch):
    commands = [argv for argv in readme_cli_commands() if argv[0] == "augment"]
    assert len(commands) == 2
    (tmp_path / "data").mkdir()
    shutil.copy(DATA_DIR / "clean.jsonl", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    assert [main(argv) for argv in commands] == [0, 0]
    # the README says the composite line writes the bundled Spe+Typ split
    assert (tmp_path / "mix.jsonl").read_bytes() == (DATA_DIR / "spe_typ.jsonl").read_bytes()


def test_readme_score_example_runs(tmp_path, monkeypatch, capsys):
    [argv] = [argv for argv in readme_cli_commands() if argv[0] == "score"]
    splits = {"Clean": str(DATA_DIR / "clean.jsonl"), "Typos": str(DATA_DIR / "typos.jsonl")}
    config = {"test_splits": splits, "out_dir": "run", "model": {"kind": "echo_gold"}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--config", "config.json"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("rescored"))
    assert row.split()[1:] == ["100.00"] * 3


def test_readme_lists_the_files_of_a_run_directory(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("The run directory", 1)[1].split("receives", 1)[1].split("`cache/`", 1)[0]
    listed = set(re.findall(r"`([^`]+)`", sentence))
    splits = {"Clean": str(DATA_DIR / "clean.jsonl"), "Typos": str(DATA_DIR / "typos.jsonl")}
    config = {"test_splits": splits, "out_dir": "run", "model": {"kind": "echo_gold"}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--config", "config.json"]) == 0
    assert "partial failures" not in capsys.readouterr().err
    written = {p.name for p in (tmp_path / "run").iterdir()} - {"cache"}
    assert listed == written


def test_src_modules_use_every_name_they_import():
    # __init__.py is left out: it imports names to re-export them.
    unused = []
    for path in sorted((ROOT / "src" / "slotnoise").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)
    assert unused == []


def test_src_modules_define_no_unreferenced_names():
    # A module-level function, class or assigned name must be read somewhere in
    # src/, by name or as an attribute of an imported name, or be listed in
    # slotnoise.__all__. Dunder names such as __version__ are read by tools.
    import slotnoise

    defined = {}
    referenced = set(slotnoise.__all__)
    for path in sorted((ROOT / "src" / "slotnoise").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, f"{path.name}:{node.lineno}") for name in names)
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        modules = {alias.asname or alias.name.split(".")[0] for node in imports for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                referenced.add(node.attr)
    assert len(defined) > 200
    unreferenced = [f"{where} {name}" for name, where in defined.items() if name not in referenced]
    assert [line for line in unreferenced if not line.split()[1].startswith("__")] == []
