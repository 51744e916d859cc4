"""Pins the perturbation vocabulary: kind names, display names, kind tokens."""

from __future__ import annotations

import json

import pytest

from slotnoise.cli import main
from slotnoise.perturb import KINDS, PerturbationSpec, compose, display_name, kind_token

from conftest import DATA_DIR

CLEAN = str(DATA_DIR / "clean.jsonl")

# Every kind a spec names, the kind it is and the name augment prints.
CLI_NAMES = (
    ("char_typos", "char_typos", "Typos"),
    ("word_homophone", "word_homophone", "Speech"),
    ("word_delete", "word_delete", "WordDelete"),
    ("word_insert", "word_insert", "WordInsert"),
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


def augment(out, spec: dict) -> int:
    return main(["augment", "--in", CLEAN, "--out", str(out), "--spec", json.dumps(spec)])


@pytest.mark.parametrize("name,kind,display", CLI_NAMES)
def test_augment_kind_name(tmp_path, capsys, name, kind, display):
    out = tmp_path / "out.jsonl"
    assert augment(out, {"kind": name}) == 0
    assert capsys.readouterr().err.startswith(f"{display}: ")
    assert display_name(spec(kind)) == display


@pytest.mark.parametrize("name,kind,display", CLI_NAMES)
def test_composite_member_name(tmp_path, capsys, name, kind, display):
    out = tmp_path / "out.jsonl"
    assert augment(out, {"kind": "composite", "members": [{"kind": name}]}) == 0
    assert capsys.readouterr().err.startswith(f"{ABBREVIATIONS[kind]}: ")


def test_unknown_name_keeps_the_raw_text(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert augment(out, {"kind": "Typo "}) == 2
    err = capsys.readouterr().err
    assert "'Typo '" in err
    # no kind is close to 'Typo ' (names are case-sensitive), so all are listed
    assert f"(expected one of {sorted(KINDS)})" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "name,kind",
    [
        ("typos", "char_typos"),
        ("Char_Typos", "char_typos"),
        ("homophone", "word_homophone"),
        ("delete", "word_delete"),
        ("insert", "word_insert"),
        ("appendirr", "append_irr"),
    ],
)
def test_unknown_name_suggests_the_closest_kind(tmp_path, capsys, name, kind):
    out = tmp_path / "out.jsonl"
    assert augment(out, {"kind": name}) == 2
    err = capsys.readouterr().err
    assert f"unknown perturbation kind: {name!r} (did you mean {kind!r}?)" in err
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
