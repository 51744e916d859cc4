"""Parse free-form model generations into (entity surface, label) pairs.

Three extraction passes are tried per line, in order:

1. ``"<entity>" is <label>`` clauses (quoted or unquoted, ';'-separated);
2. ``<label>: <e1>, <e2>`` enumerations, only when the prefix is a known label;
3. bracketed tuples ``("<entity>", "<label>")``.

Labels match case-insensitively with spaces and underscores unified; pairs
whose label is not in the label set are dropped and counted rather than
coerced. Unparseable text yields an empty pair list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import QUOTES, TERMINAL_PUNCT, LabelSet

_WS = re.compile(r"\s+")
_NUMBERING = re.compile(r"^\s*(?:[-*•]+|\(?\d{1,3}[.)\]:]?)\s+")
_QUOTED_IS = re.compile(r"[\"“]([^\"“”]+)[\"”]\s+is\s+([^\s\"][^\"]*?)\s*$")
_LABEL_LIST = re.compile(r"^([A-Za-z][\w\- ]*?)\s*:\s*(.+)$")
_BRACKETED = re.compile(
    r"\(\s*[\"']([^\"']+)[\"']\s*,\s*[\"']([^\"']+)[\"']\s*\)"
)
_SKIP_SURFACES = {"", "none", "no entities", "n/a"}


def answer_clause(surface: str, label: str) -> str:
    """The clause ``"<surface>" is <label>`` that demonstrations and mock answers
    write and :data:`_QUOTED_IS` reads back."""
    return f'"{surface}" is {label}'


@dataclass(frozen=True)
class Prediction:
    """Ordered predicted pairs plus the count of pairs dropped for an unknown label."""

    pairs: tuple[tuple[str, str], ...]
    dropped_unknown_labels: int


def normalize_surface(text: str) -> str:
    """Canonical surface form: unquoted, unpunctuated, lowercased, one-spaced."""
    s = _WS.sub(" ", text.strip())
    prev = None
    while s and s != prev:
        prev = s
        if len(s) >= 2 and s[0] in QUOTES and s[-1] in QUOTES:
            s = s[1:-1].strip()
        s = s.rstrip(TERMINAL_PUNCT).strip()
    return s.lower()


def parse_predictions(text: str, labels: LabelSet) -> Prediction:
    pairs: list[tuple[str, str]] = []
    dropped = 0

    def _emit(surface_text: str, label_text: str) -> None:
        nonlocal dropped
        surface = normalize_surface(surface_text)
        if surface in _SKIP_SURFACES:
            return
        label = labels.resolve(label_text)
        if label is None:
            dropped += 1
            return
        pairs.append((surface, label))

    # "\n" alone ends a line, as in a JSONL split: a slot type may hold U+2028
    for raw_line in text.split("\n"):
        line = _NUMBERING.sub("", raw_line).strip()
        if not line:
            continue
        consumed = False
        for clause in (c.strip() for c in line.split(";")):
            if not clause:
                continue
            matches = list(_QUOTED_IS.finditer(clause))
            if matches:
                consumed = True
                for m in matches:
                    _emit(m.group(1), m.group(2))
                continue
            if " is " in clause:
                left, right = clause.rsplit(" is ", 1)
                left = re.sub(r"^[\w][\w ]{0,30}:\s*", "", left.strip())
                if left:
                    consumed = True
                    _emit(left, right)
        if consumed:
            continue
        listing = _LABEL_LIST.match(line)
        if listing is not None and labels.resolve(listing.group(1)) is not None:
            for part in listing.group(2).split(","):
                _emit(part, listing.group(1))
            continue
        for surface_text, label_text in _BRACKETED.findall(line):
            _emit(surface_text, label_text)

    return Prediction(pairs=tuple(pairs), dropped_unknown_labels=dropped)
