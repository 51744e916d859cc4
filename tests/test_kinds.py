"""Pins the perturbation vocabulary: accepted names, display names, kind tokens."""

from __future__ import annotations

import pytest

from slotnoise.cli import main
from slotnoise.perturb import PerturbationSpec, compose, display_name, kind_token

from conftest import DATA_DIR

CLEAN = str(DATA_DIR / "clean.jsonl")

# Every accepted CLI name, the kind it resolves to and the name augment prints.
CLI_NAMES = (
    ("typos", "char_typos", "Typos"),
    ("char_typos", "char_typos", "Typos"),
    ("speech", "word_homophone", "Speech"),
    ("word_homophone", "word_homophone", "Speech"),
    ("homophone", "word_homophone", "Speech"),
    ("delete", "word_delete", "WordDelete"),
    ("word_delete", "word_delete", "WordDelete"),
    ("insert", "word_insert", "WordInsert"),
    ("word_insert", "word_insert", "WordInsert"),
    ("appendirr", "append_irr", "AppendIrr"),
    ("append_irr", "append_irr", "AppendIrr"),
    ("paraphrase", "paraphrase", "Paraphrase"),
)
ABBREVIATIONS = {
    "char_typos": "Typ",
    "word_homophone": "Spe",
    "word_delete": "Del",
    "word_insert": "Ins",
    "append_irr": "App",
    "paraphrase": "Par",
}


def spec(kind: str) -> PerturbationSpec:
    return PerturbationSpec(kind=kind, p=0.2, seed=1)


@pytest.mark.parametrize("name,kind,display", CLI_NAMES)
def test_augment_kind_name(tmp_path, capsys, name, kind, display):
    out = tmp_path / "out.jsonl"
    assert main(["augment", "--in", CLEAN, "--out", str(out), "--kind", name]) == 0
    assert capsys.readouterr().err.startswith(f"{display}: ")
    assert display_name(spec(kind)) == display


@pytest.mark.parametrize("name,kind,display", CLI_NAMES)
def test_composite_member_name(tmp_path, capsys, name, kind, display):
    out = tmp_path / "out.jsonl"
    argv = ["augment", "--in", CLEAN, "--out", str(out), "--kind", "composite", "--members", name]
    assert main(argv) == 0
    assert capsys.readouterr().err.startswith(f"{ABBREVIATIONS[kind]}: ")


def test_names_are_case_and_space_insensitive(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["augment", "--in", CLEAN, "--out", str(out), "--kind", " Typos "]) == 0
    assert capsys.readouterr().err.startswith("Typos: ")


def test_unknown_name_keeps_the_raw_text(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["augment", "--in", CLEAN, "--out", str(out), "--kind", "Typo "]) == 2
    assert "'Typo '" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kinds,display",
    [
        (("word_homophone", "char_typos"), "Spe+Typ"),
        (("word_homophone", "append_irr"), "Spe+App"),
        (("char_typos", "append_irr"), "Ent+App"),
        (("append_irr", "char_typos", "word_homophone"), "Spe+App+Typ"),
        (("char_typos", "word_insert", "word_delete"), "Ins+Del+Typ"),
        (("word_delete", "paraphrase"), "Par+Del"),
    ],
)
def test_composite_display_name(kinds, display):
    assert display_name(compose([spec(k) for k in kinds])) == display


@pytest.mark.parametrize("kind", sorted(ABBREVIATIONS))
def test_single_kind_token_is_the_kind(kind):
    assert kind_token(spec(kind)) == kind


@pytest.mark.parametrize(
    "kinds,token",
    [
        (("char_typos", "word_homophone", "append_irr"), "append_irr+word_homophone+char_typos"),
        (("word_insert", "char_typos", "word_delete"), "word_insert+word_delete+char_typos"),
        (("char_typos", "paraphrase", "append_irr"), "paraphrase+append_irr+char_typos"),
    ],
)
def test_composite_kind_token_in_canonical_order(kinds, token):
    assert kind_token(compose([spec(k) for k in kinds])) == token
