"""Prompt templates and rendering.

Templates are text assets with a one-line header (``id: <id> lang: <tag>``)
followed by the body, which must contain each of the placeholders {labels},
{demonstrations}, and {input} exactly once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .corpus import LabeledExample, LabelSet
from .demos import DemonstrationSet
from .errors import ConfigError
from .schema import read_input

PLACEHOLDERS = ("labels", "demonstrations", "input")
_HEADER = re.compile(r"^id:\s*(?P<id>\S+)\s+lang:\s*(?P<lang>\S+)\s*$")
_PLACEHOLDER = re.compile(r"\{(labels|demonstrations|input)\}")

BUNDLED_TEMPLATES_DIR = Path(__file__).parent / "assets" / "templates"


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    language_tag: str
    body: str

    def __post_init__(self):
        for name in PLACEHOLDERS:
            count = self.body.count("{" + name + "}")
            if count != 1:
                raise ConfigError(
                    f"template {self.id!r}: placeholder {{{name}}} appears "
                    f"{count} times (expected exactly once)"
                )


def load_template(path: str | Path) -> PromptTemplate:
    text = read_input(path, "template file")
    header, _, body = text.partition("\n")
    match = _HEADER.match(header)
    if not match:
        raise ConfigError(f"{path}: first line must be 'id: <id> lang: <tag>'")
    return PromptTemplate(id=match.group("id"), language_tag=match.group("lang"), body=body)


def load_registry(directory: str | Path) -> dict[str, PromptTemplate]:
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"template directory not found: {directory}")
    registry: dict[str, PromptTemplate] = {}
    for path in sorted(directory.glob("*.txt")):
        template = load_template(path)
        if template.id in registry:
            raise ConfigError(f"duplicate template id: {template.id!r}")
        registry[template.id] = template
    return registry


def bundled_registry() -> dict[str, PromptTemplate]:
    return load_registry(BUNDLED_TEMPLATES_DIR)


def render_prompt(
    template: PromptTemplate,
    labels: LabelSet,
    demos: DemonstrationSet | None,
    input_ex: LabeledExample,
) -> str:
    """Substitute all placeholders in a single pass.

    An absent or empty demonstration set renders as an empty string, which
    degrades the prompt to zero-shot.
    """
    values = {
        "labels": ", ".join(labels.names),
        "demonstrations": demos.text() if demos is not None and demos.items else "",
        "input": input_ex.utterance,
    }
    return _PLACEHOLDER.sub(lambda m: values[m.group(1)], template.body)
