from __future__ import annotations

import pytest

from slotnoise.corpus import LabelSet
from slotnoise.demos import DemoItem, DemonstrationSet
from slotnoise.errors import ConfigError
from slotnoise.prompts import (
    PromptTemplate,
    bundled_registry,
    load_registry,
    load_template,
    render_prompt,
)

from conftest import make_example


def tiny_template(body: str = "{labels}|{demonstrations}|{input}") -> PromptTemplate:
    return PromptTemplate(id="tiny", language_tag="en", body=body)


def demos_from(*rendered: str) -> DemonstrationSet:
    items = tuple(DemoItem(r, ("src",)) for r in rendered)
    return DemonstrationSet(items)


def test_direct_substitution():
    out = render_prompt(tiny_template(), LabelSet(("a", "b")), None, make_example(["hi"]))
    assert out == "a, b||hi"


def test_demos_joined_by_newline():
    demos = demos_from('"x" is a.\n', '"y" is b.\n')
    out = render_prompt(tiny_template(), LabelSet(("a",)), demos, make_example(["hi"]))
    assert out == 'a|"x" is a.\n"y" is b.|hi'


def test_zero_demos_degrades_to_zero_shot():
    empty = DemonstrationSet(())
    labels = LabelSet(("a",))
    ex = make_example(["hi", "there"])
    assert render_prompt(tiny_template(), labels, empty, ex) == render_prompt(
        tiny_template(), labels, None, ex
    )


def test_placeholder_must_appear_exactly_once():
    with pytest.raises(ConfigError, match="input"):
        PromptTemplate(id="x", language_tag="en", body="{labels}{demonstrations}")
    with pytest.raises(ConfigError, match="labels"):
        PromptTemplate(id="x", language_tag="en", body="{labels}{labels}{demonstrations}{input}")


def test_utterance_appears_exactly_once():
    ex = make_example(["qqzz", "wwxx"])
    out = render_prompt(tiny_template(), LabelSet(("a",)), None, ex)
    assert out.count(ex.utterance) == 1


def test_rendering_injective_over_distinct_utterances(clean_dataset):
    template = tiny_template()
    labels = clean_dataset.labels
    rendered = [render_prompt(template, labels, None, ex) for ex in clean_dataset]
    assert len(set(rendered)) == len(rendered)


def test_demo_text_not_reexpanded():
    # A placeholder-looking token inside demo text must survive verbatim.
    demos = demos_from("{input} is literal\n")
    out = render_prompt(tiny_template(), LabelSet(("a",)), demos, make_example(["hi"]))
    assert out == "a|{input} is literal|hi"


def test_load_template_header(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text("id: demo lang: en\nbody {labels} {demonstrations} {input}\n", encoding="utf-8")
    template = load_template(path)
    assert template.id == "demo"
    assert template.language_tag == "en"


def test_load_template_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no header\n{labels}{demonstrations}{input}", encoding="utf-8")
    with pytest.raises(ConfigError, match="first line"):
        load_template(path)


def test_registry_duplicate_ids(tmp_path):
    body = "id: same lang: en\n{labels}{demonstrations}{input}\n"
    (tmp_path / "a.txt").write_text(body, encoding="utf-8")
    (tmp_path / "b.txt").write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate"):
        load_registry(tmp_path)


def test_bundled_registry_is_valid(clean_dataset):
    registry = bundled_registry()
    assert set(registry) == {"t1_english", "t2_concise", "t3_chinese"}
    assert registry["t3_chinese"].language_tag == "zh"
    ex = clean_dataset.examples[0]
    for template in registry.values():
        out = render_prompt(template, clean_dataset.labels, None, ex)
        assert ex.utterance in out
        for label in clean_dataset.labels:
            assert label in out
