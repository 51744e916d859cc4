"""Slot-filling data model: labeled examples, BIO conversion, dataset IO.

An utterance is a pre-tokenized sequence of whitespace-free tokens; its gold
annotation is a list of non-overlapping token-index spans, each carrying a
slot type. Datasets are immutable after construction and validated eagerly,
so anything that loads is safe to share across workers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

from .errors import DataError, ParseError
from .schema import check_choice, read_input, read_lines

log = logging.getLogger(__name__)

CLEAN_PROVENANCE = "clean"
_PERTURBED_PREFIX = "perturbed:"

QUOTES = "\"'“”‘’`"
TERMINAL_PUNCT = ".,;:!?"
_LABEL_SEPARATORS = re.compile(r"[\s_]+")

# Records per joined log write, and examples per batch of harness stages.
CHUNK_SIZE = 256

JSONL_SPANS = "jsonl_spans"
CONLL_BIO = "conll_bio"
FORMATS = (JSONL_SPANS, CONLL_BIO)


def derive_seed(seed: int, key: str) -> int:
    """Stable 64-bit seed derived from a base seed and a string key."""
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def is_token(text: str) -> bool:
    """True when text is one non-empty token free of whitespace."""
    return text.split() == [text]


def normalize_label(text: str) -> str:
    """Canonical label form: unquoted, unpunctuated, lowercased, with runs of
    spaces and underscores made one underscore."""
    s = text.strip().strip(QUOTES).rstrip(TERMINAL_PUNCT).strip().lower()
    return _LABEL_SEPARATORS.sub("_", s)


@dataclass(frozen=True)
class LabelSet:
    """Ordered collection of unique slot-type names."""

    names: tuple[str, ...]
    _index: frozenset[str] = field(init=False, repr=False, compare=False)
    _normalized: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        seen: set[str] = set()
        for name in self.names:
            if not name:
                raise DataError("label names must be non-empty")
            if "\n" in name:
                raise DataError(f"label name contains a newline: {name!r}")
            if name in seen:
                raise DataError(f"duplicate label name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "_index", frozenset(seen))
        object.__setattr__(
            self, "_normalized", {normalize_label(name): name for name in self.names}
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def resolve(self, text: str) -> str | None:
        """The label name text denotes under :func:`normalize_label`, or None."""
        return self._normalized.get(normalize_label(text))

    @classmethod
    def from_observed(cls, examples: Iterable["LabeledExample"]) -> "LabelSet":
        """Union of slot types over examples, in first-observation order."""
        names: list[str] = []
        seen: set[str] = set()
        for ex in examples:
            for span in ex.spans:
                if span.slot_type not in seen:
                    seen.add(span.slot_type)
                    names.append(span.slot_type)
        return cls(tuple(names))

    @classmethod
    def load(cls, path: str | Path) -> "LabelSet":
        """Read one label per line; blank lines are ignored."""
        return cls(tuple(read_lines(path, "label file")))


@dataclass(frozen=True)
class SlotSpan:
    """Inclusive token-index span [start, end] with a slot type."""

    start: int
    end: int
    slot_type: str

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise DataError(f"invalid span bounds ({self.start}, {self.end})")
        if not self.slot_type:
            raise DataError("span slot_type must be non-empty")

    @property
    def width(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class LabeledExample:
    """One utterance with its gold spans.

    provenance is the ordered tuple of perturbation kinds applied so far;
    an empty tuple means the example is clean.
    """

    id: str
    tokens: tuple[str, ...]
    spans: tuple[SlotSpan, ...] = ()
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(
            self, "spans", tuple(sorted(self.spans, key=lambda s: (s.start, s.end)))
        )
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if not self.id:
            raise DataError("example id must be non-empty")
        if not self.tokens:
            raise DataError(f"example {self.id!r}: token list is empty")
        for tok in self.tokens:
            if not is_token(tok):
                raise DataError(f"example {self.id!r}: bad token {tok!r}")
        prev: SlotSpan | None = None
        for span in self.spans:
            if span.end >= len(self.tokens):
                raise DataError(
                    f"example {self.id!r}: span ({span.start}, {span.end}) out of "
                    f"range for {len(self.tokens)} tokens"
                )
            if prev is not None and span.start <= prev.end:
                raise DataError(
                    f"example {self.id!r}: overlapping spans at token {span.start}"
                )
            prev = span

    def with_id(self, new_id: str) -> LabeledExample:
        """A copy under new_id; the rest was validated when self was built."""
        if not new_id:
            raise DataError("example id must be non-empty")
        renamed = object.__new__(type(self))
        # Set in field order, as __init__ does, so the instance dict stays a
        # compact key-sharing dict.
        for name, value in self.__dict__.items():
            object.__setattr__(renamed, name, new_id if name == "id" else value)
        return renamed

    @property
    def utterance(self) -> str:
        return " ".join(self.tokens)

    def surface(self, span: SlotSpan) -> str:
        return " ".join(self.tokens[span.start : span.end + 1])


@dataclass(frozen=True)
class Dataset:
    """A named split: validated examples plus the label vocabulary."""

    examples: tuple[LabeledExample, ...]
    labels: LabelSet
    split_name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        seen: set[str] = set()
        for ex in self.examples:
            if ex.id in seen:
                raise DataError(f"duplicate example id: {ex.id!r}")
            for span in ex.spans:
                if span.slot_type not in self.labels:
                    raise DataError(
                        f"example {ex.id!r}: slot type {span.slot_type!r} not in label set"
                    )
            seen.add(ex.id)

    def __iter__(self) -> Iterator[LabeledExample]:
        return iter(self.examples)

    def __len__(self) -> int:
        return len(self.examples)


def provenance_to_str(tags: Sequence[str]) -> str:
    if not tags:
        return CLEAN_PROVENANCE
    return _PERTURBED_PREFIX + "+".join(tags)


def provenance_from_str(text: str) -> tuple[str, ...]:
    if text in ("", CLEAN_PROVENANCE):
        return ()
    if text.startswith(_PERTURBED_PREFIX):
        body = text[len(_PERTURBED_PREFIX) :]
        return tuple(part for part in body.split("+") if part)
    raise DataError(f"unrecognized provenance: {text!r}")


def bio_to_spans(tags: Sequence[str]) -> tuple[list[SlotSpan], int]:
    """Convert a BIO tag sequence to spans, repairing dangling I- tags.

    An I- tag that does not continue a same-type run is treated as B-.
    Returns (spans, repair_count).
    """
    spans: list[SlotSpan] = []
    repairs = 0
    open_type: str | None = None
    open_start = 0
    for i, tag in enumerate(tags):
        if tag == "O":
            if open_type is not None:
                spans.append(SlotSpan(open_start, i - 1, open_type))
                open_type = None
        elif tag.startswith("B-") and len(tag) > 2:
            if open_type is not None:
                spans.append(SlotSpan(open_start, i - 1, open_type))
            open_type, open_start = tag[2:], i
        elif tag.startswith("I-") and len(tag) > 2:
            t = tag[2:]
            if open_type != t:
                if open_type is not None:
                    spans.append(SlotSpan(open_start, i - 1, open_type))
                repairs += 1
                open_type, open_start = t, i
        else:
            raise DataError(f"malformed BIO tag at position {i}: {tag!r}")
    if open_type is not None:
        spans.append(SlotSpan(open_start, len(tags) - 1, open_type))
    return spans, repairs


def spans_to_bio(spans: Sequence[SlotSpan], n: int) -> list[str]:
    """Render spans as a BIO tag sequence of length n."""
    tags = ["O"] * n
    prev_end = -1
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        if span.end >= n:
            raise DataError(f"span ({span.start}, {span.end}) out of range for n={n}")
        if span.start <= prev_end:
            raise DataError(f"overlapping spans at token {span.start}")
        tags[span.start] = "B-" + span.slot_type
        for i in range(span.start + 1, span.end + 1):
            tags[i] = "I-" + span.slot_type
        prev_end = span.end
    return tags


def leftmost_match(
    haystack: Sequence[str], needle: Sequence[str], taken: Collection[int] = ()
) -> int | None:
    """Start of the leftmost occurrence of needle in haystack avoiding taken.

    An empty needle matches nothing.
    """
    n = len(needle)
    if not n:
        return None
    for i in range(len(haystack) - n + 1):
        if any(j in taken for j in range(i, i + n)):
            continue
        if all(haystack[i + j] == needle[j] for j in range(n)):
            return i
    return None


def _example_to_record(ex: LabeledExample) -> dict:
    return {
        "id": ex.id,
        "tokens": list(ex.tokens),
        "spans": [
            {"start": s.start, "end": s.end, "type": s.slot_type} for s in ex.spans
        ],
        "provenance": provenance_to_str(ex.provenance),
    }


def _example_from_record(record: dict, where: str) -> LabeledExample:
    """The example a JSONL record states; where, its path:line, prefixes any error."""
    try:
        spans = tuple(
            SlotSpan(int(s["start"]), int(s["end"]), str(s["type"]))
            for s in record.get("spans", [])
        )
        return LabeledExample(
            id=str(record["id"]),
            tokens=tuple(str(t) for t in record["tokens"]),
            spans=spans,
            provenance=provenance_from_str(str(record.get("provenance", CLEAN_PROVENANCE))),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"{where}: bad record: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _load_conll(text: str, path: Path, split: str) -> tuple[list[LabeledExample], int]:
    examples: list[LabeledExample] = []
    tokens: list[str] = []
    tags: list[str] = []
    total_repairs = 0
    start_line = 1

    def _flush(end_line: int):
        nonlocal total_repairs
        if not tokens:
            return
        ex_id = f"{split}-{len(examples) + 1:05d}"
        try:
            spans, repairs = bio_to_spans(tags)
            examples.append(LabeledExample(ex_id, tuple(tokens), tuple(spans)))
        except DataError as exc:
            raise DataError(f"{path}:{start_line}-{end_line}: example {ex_id!r}: {exc}") from exc
        total_repairs += repairs
        tokens.clear()
        tags.clear()

    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            _flush(lineno - 1)
            start_line = lineno + 1
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}")
        tokens.append(parts[0])
        tags.append(parts[1])
    _flush(len(lines))
    return examples, total_repairs


def load_dataset(
    path: str | Path,
    fmt: str = JSONL_SPANS,
    split_name: str | None = None,
) -> Dataset:
    """Load and validate a dataset; its label set is the union of observed slot types."""
    path = Path(path)
    check_choice(fmt, FORMATS, "dataset format")
    text = read_input(path, "dataset file")
    split = split_name if split_name is not None else path.stem
    if fmt == JSONL_SPANS:
        examples = [_example_from_record(r, f"{path}:{n}") for n, r in jsonl_records(text, path)]
    else:
        examples, repairs = _load_conll(text, path, split)
        if repairs:
            log.info("repaired %d dangling I- tags while loading %s", repairs, path)
    return Dataset(tuple(examples), LabelSet.from_observed(examples), split)


def chunked(items: Iterable) -> Iterator[list]:
    """Successive lists of at most CHUNK_SIZE items."""
    it = iter(items)
    while chunk := list(islice(it, CHUNK_SIZE)):
        yield chunk


def jsonl_lines(records: Iterable[dict]) -> str:
    """One JSON record per line, keys sorted, non-ASCII kept as is."""
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    return "".join(encode(record) + "\n" for record in records)


def jsonl_records(text: str, path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, JSON value) of each non-blank line of JSONL text read from path.

    Only "\n" ends a record, as an id or slot type may hold U+2028, where
    splitlines() splits. A line that is not JSON is a ParseError at path:line.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
        yield lineno, record


def write_json(path: Path, data: object) -> None:
    """Write data as one JSON document: indent 2, keys sorted, non-ASCII kept."""
    text = json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8")


def dump_jsonl(path: Path, records: Iterable[dict]) -> None:
    """Write records as :func:`jsonl_lines`, one joined write per chunk."""
    with path.open("w", encoding="utf-8") as handle:
        for chunk in chunked(records):
            handle.write(jsonl_lines(chunk))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as one JSON record per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    dump_jsonl(path, map(_example_to_record, ds.examples))
