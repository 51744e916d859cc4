"""Guards on what the package needs and on the bundled data it ships."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys

import pytest

from slotnoise import perturb
from slotnoise.cli import build_arg_parser

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


def test_readme_names_every_perturbation_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = [perturb.COMPOSITE]
    for kind, entry in perturb._TABLE.items():
        names.extend((kind, *entry.aliases))
    assert [name for name in names if f"`{name}`" not in readme] == []


def test_readme_cli_examples_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("slotnoise ")]
    assert len(commands) >= 8
    parser, rejected = build_arg_parser(), []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(shlex.join(argv))
    assert rejected == []


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
