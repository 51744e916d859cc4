"""Config (de)serialization driven by the fields of the frozen dataclasses.

A config object's keys are its field names and its scalar values are coerced
by their annotated type, so the dataclass is the only statement of the
schema. Unknown keys, missing required keys and values that fail coercion
(a bool for a number, a fractional number for an int) raise ConfigError
naming the key. Every input file is read by read_input.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, Collection, Hashable, Iterable, Mapping

from .errors import ConfigError, DataError

# Scalar type by a field's annotation as written (Field.type), which is a
# string because every module declares its dataclasses under
# `from __future__ import annotations`.
_SCALARS = {"str": str, "int": int, "float": float}


def _coerce(kind: type, value: object) -> object:
    """value as kind; a bool is no number, and an int takes no fractional part."""
    if kind is not str and isinstance(value, bool):
        raise TypeError
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError
    return kind(value)


def read_input(path: str | Path, what: str) -> str:
    """The text of the input file at path, which the messages call what."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read {what}: {exc}") from None


def read_lines(path: str | Path, what: str) -> list[str]:
    """The stripped, non-empty lines of the input file at path, split at "\n" alone
    as JSONL is, so a line keeps a U+2028 that a slot type may hold."""
    return [line.strip() for line in read_input(path, what).split("\n") if line.strip()]


def check_unique(items: Iterable[Hashable], message: Callable[[Hashable], str]) -> None:
    """Raise ConfigError(message(item)) for the first item equal to an earlier one."""
    seen = set()
    for item in items:
        if item in seen:
            raise ConfigError(message(item))
        seen.add(item)


def parse_json(text: str, where: str) -> object:
    """The JSON value of text; invalid JSON or an object repeating a key is a ConfigError."""

    def _unique(pairs: list[tuple[str, object]]) -> dict:
        check_unique((key for key, _ in pairs), lambda key: f"key {key!r} is repeated in {where}")
        return dict(pairs)

    try:
        return json.loads(text, object_pairs_hook=_unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc!r}") from None


def resolve_path(value: str, base_dir: Path | None) -> str:
    """value, when relative, taken from base_dir; empty, or without base_dir, unchanged."""
    if not value or base_dir is None:
        return value
    return str(base_dir / value)


def hint(word: str, valid: Collection[str]) -> str:
    """The valid word closest to word ignoring case, as written; all of them when none is close."""
    folded = {value.lower(): value for value in sorted(valid, reverse=True)}
    close = difflib.get_close_matches(word.lower(), folded, n=1)
    return f"did you mean {folded[close[0]]!r}?" if close else f"expected one of {sorted(valid)}"


def check_choice(value: object, choices: Collection[str], what: str) -> None:
    """Reject a value outside choices, naming the closest valid one."""
    if value not in choices:
        raise ConfigError(f"unknown {what}: {value!r} ({hint(str(value), choices)})")


def check_keys(data: object, valid: Collection[str], where: str) -> None:
    """Reject a non-mapping or any key outside valid, naming the closest valid key."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    for key in sorted(set(data) - set(valid), key=str):
        raise ConfigError(f"unknown {where} key {key!r} ({hint(str(key), valid)})")


def fields_to_dict(obj: object) -> dict:
    """Field name -> value of a dataclass instance."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def scalars_from_dict(cls: type, data: Mapping, where: str, omit: Collection[str] = ()) -> dict:
    """Constructor keywords for the scalar fields of cls present in data.

    Every key of data must name a field of cls outside omit, and every field
    without a default must be present. Fields of a non-scalar type are
    checked for presence only; the caller builds them.
    """
    check_keys(data, [f.name for f in fields(cls) if f.name not in omit], where)
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing {where} key {f.name!r}")
            continue
        kind = _SCALARS.get(f.type)
        if kind is not None:
            try:
                kwargs[f.name] = _coerce(kind, data[f.name])
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{where} key {f.name!r} must be {kind.__name__}, got {data[f.name]!r}"
                ) from None
    return kwargs
