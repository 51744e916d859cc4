"""Perturbation operators over labeled examples.

Character-level typos, word-level homophone swaps / deletions / insertions,
and sentence-level irrelevant-sentence appends or paraphrases. Every operator
is a pure function of (example, spec): randomness is drawn from a generator
seeded with hash(spec.seed, example.id), so dataset-level perturbation is
reproducible regardless of iteration order or parallelism. The operators are
private and read their asset already loaded: a spec is applied only through
apply_perturbation, perturb_dataset and pools.build_pool, each of which loads
its specs' assets first, once per call (_resolve_assets).
Each kind's operator, composite level, names and asset are stated once, in _TABLE.

Gold spans are remapped alongside the token edits. Char-level and homophone
edits never move token indices; deletions shrink or drop spans; insertions
shift spans but are forbidden strictly inside one; appends leave spans alone.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .client import _post_json
from .corpus import Dataset, LabeledExample, SlotSpan, derive_seed, is_token, leftmost_match
from .errors import ClientError, ConfigError
from .schema import check_choice, check_keys, read_lines, resolve_path, scalars_from_dict

CHAR_TYPOS = "char_typos"
WORD_HOMOPHONE = "word_homophone"
WORD_DELETE = "word_delete"
WORD_INSERT = "word_insert"
APPEND_IRR = "append_irr"
PARAPHRASE = "paraphrase"
COMPOSITE = "composite"

# Fixed headers for the standard mixed-perturbation composites.
_COMPOSITE_NAMES = {
    frozenset({WORD_HOMOPHONE, CHAR_TYPOS}): "Spe+Typ",
    frozenset({WORD_HOMOPHONE, APPEND_IRR}): "Spe+App",
    frozenset({CHAR_TYPOS, APPEND_IRR}): "Ent+App",
    frozenset({WORD_HOMOPHONE, APPEND_IRR, CHAR_TYPOS}): "Spe+App+Typ",
}

_ASSETS_DIR = Path(__file__).parent / "assets"
DEFAULT_HOMOPHONES = _ASSETS_DIR / "homophones.txt"
DEFAULT_SENTENCE_POOL = _ASSETS_DIR / "irrelevant_sentences.txt"

_ALPHABET = string.ascii_lowercase


@dataclass(frozen=True)
class PerturbationSpec:
    """One perturbation kind with its probability, seed, and assets.

    assets may hold file paths (str) or in-memory values: a mapping for the
    homophone lexicon, a sequence of words for the insertion vocabulary, a
    sequence of sentences for the append pool, or a provider name, URL or
    callable for paraphrasing; _resolve_assets loads them. A composite spec
    holds only its members, which apply in canonical sentence -> word -> char
    order with their own p, seed and assets. Each kind takes only the one
    asset its operator reads.
    """

    kind: str
    p: float = 0.1
    seed: int = 0
    assets: Mapping[str, object] = field(default_factory=dict)
    members: tuple["PerturbationSpec", ...] = ()

    def __post_init__(self):
        check_choice(self.kind, KINDS, "perturbation kind")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"probability out of range: {self.p}")
        object.__setattr__(self, "assets", dict(self.assets))
        object.__setattr__(self, "members", tuple(self.members))
        if self.kind == COMPOSITE:
            if (self.p, self.seed, self.assets) != (PerturbationSpec.p, PerturbationSpec.seed, {}):
                raise ConfigError("composite spec takes no p, seed or assets; set them on members")
            if not self.members:
                raise ConfigError("composite spec requires at least one member")
            for member in self.members:
                if member.kind == COMPOSITE:
                    raise ConfigError("composite members must not be composites")
            return
        if self.members:
            raise ConfigError(f"{self.kind} spec must not have members")
        for key in self.assets:
            if key != _TABLE[self.kind].asset:
                raise ConfigError(f"{self.kind} spec reads no asset {key!r}")


@dataclass(frozen=True)
class PerturbationReport:
    """Edit accounting for one operator application (mergeable additively).

    tokens_edited counts edit events (tokens touched, deletions, insertions,
    or appends); eligible_tokens counts the positions that could have been
    edited, so realized_edit_rate estimates the effective probability.
    """

    tokens_edited: int = 0
    chars_edited: int = 0
    spans_dropped: int = 0
    spans_repaired: int = 0
    eligible_tokens: int = 0
    notes: tuple[str, ...] = ()

    @property
    def realized_edit_rate(self) -> float:
        if self.eligible_tokens <= 0:
            return 0.0
        return self.tokens_edited / self.eligible_tokens

    def merged(self, other: "PerturbationReport") -> "PerturbationReport":
        return PerturbationReport(
            tokens_edited=self.tokens_edited + other.tokens_edited,
            chars_edited=self.chars_edited + other.chars_edited,
            spans_dropped=self.spans_dropped + other.spans_dropped,
            spans_repaired=self.spans_repaired + other.spans_repaired,
            eligible_tokens=self.eligible_tokens + other.eligible_tokens,
            notes=self.notes + other.notes,
        )

    def summary(self) -> str:
        return (
            f"edits={self.tokens_edited}/{self.eligible_tokens} "
            f"(rate={self.realized_edit_rate:.4f}) chars={self.chars_edited} "
            f"spans_dropped={self.spans_dropped} spans_repaired={self.spans_repaired} "
            f"notes={len(self.notes)}"
        )


def _rng(spec: PerturbationSpec, ex: LabeledExample) -> random.Random:
    return random.Random(derive_seed(spec.seed, ex.id))


def _tag(ex: LabeledExample, kind: str, **changes) -> LabeledExample:
    changes.setdefault("provenance", ex.provenance + (kind,))
    return replace(ex, **changes)


def _one_char_edit(token: str, rng: random.Random) -> str:
    ops = ["insert", "substitute"]
    if len(token) > 1:
        ops.append("delete")
    op = rng.choice(ops)
    if op == "insert":
        i = rng.randrange(len(token) + 1)
        return token[:i] + rng.choice(_ALPHABET) + token[i:]
    if op == "delete":
        i = rng.randrange(len(token))
        return token[:i] + token[i + 1 :]
    i = rng.randrange(len(token))
    choices = [ch for ch in _ALPHABET if ch != token[i]]
    return token[:i] + rng.choice(choices) + token[i + 1 :]


def _char_typos(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    """Apply exactly one character edit to each token selected with prob p.

    Edits are insert/delete/substitute chosen uniformly (single-character
    tokens are never deleted to empty); token count and span indices never
    change, so every edited token sits at edit distance 1 from its original.
    """
    rng = _rng(spec, ex)
    out: list[str] = []
    edited = 0
    for token in ex.tokens:
        if rng.random() < spec.p:
            out.append(_one_char_edit(token, rng))
            edited += 1
        else:
            out.append(token)
    report = PerturbationReport(
        tokens_edited=edited, chars_edited=edited, eligible_tokens=len(ex.tokens)
    )
    return _tag(ex, CHAR_TYPOS, tokens=tuple(out)), report


def _word_homophone(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    """Replace lexicon-covered tokens with a uniform homophone with prob p."""
    lexicon = spec.assets["homophone_lexicon"]
    rng = _rng(spec, ex)
    out: list[str] = []
    edited = 0
    eligible = 0
    for token in ex.tokens:
        options = lexicon.get(token.lower())
        if options:
            eligible += 1
            if rng.random() < spec.p:
                out.append(rng.choice(options))
                edited += 1
                continue
        out.append(token)
    report = PerturbationReport(
        tokens_edited=edited,
        chars_edited=0,
        eligible_tokens=eligible,
    )
    return _tag(ex, WORD_HOMOPHONE, tokens=tuple(out)), report


def _remap_deleted(
    spans: Sequence[SlotSpan], keep: Sequence[bool]
) -> tuple[list[SlotSpan], int, int]:
    """Reindex spans over surviving tokens; returns (spans, dropped, shrunk)."""
    new_index: dict[int, int] = {}
    pos = 0
    for i, kept in enumerate(keep):
        if kept:
            new_index[i] = pos
            pos += 1
    out: list[SlotSpan] = []
    dropped = 0
    shrunk = 0
    for span in spans:
        survivors = [i for i in range(span.start, span.end + 1) if keep[i]]
        if not survivors:
            dropped += 1
            continue
        if len(survivors) < span.width:
            shrunk += 1
        out.append(
            SlotSpan(new_index[survivors[0]], new_index[survivors[-1]], span.slot_type)
        )
    return out, dropped, shrunk


def _word_delete(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    """Delete each token independently with prob p, keeping at least one.

    Spans are remapped over the surviving tokens: a span shrinks when some of
    its tokens are deleted and is dropped when all of them are.
    """
    if len(ex.tokens) < 2:
        report = PerturbationReport(
            eligible_tokens=len(ex.tokens),
            notes=(f"{ex.id}: single-token example left unchanged",),
        )
        return _tag(ex, WORD_DELETE), report
    rng = _rng(spec, ex)
    keep = [rng.random() >= spec.p for _ in ex.tokens]
    if not any(keep):
        keep[rng.randrange(len(keep))] = True
    spans, dropped, shrunk = _remap_deleted(ex.spans, keep)
    tokens = tuple(tok for tok, kept in zip(ex.tokens, keep) if kept)
    deleted = len(ex.tokens) - len(tokens)
    report = PerturbationReport(
        tokens_edited=deleted,
        spans_dropped=dropped,
        spans_repaired=shrunk,
        eligible_tokens=len(ex.tokens),
    )
    return _tag(ex, WORD_DELETE, tokens=tokens, spans=tuple(spans)), report


def _word_insert(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    """Insert vocabulary words at eligible gaps with prob p per gap.

    Gaps strictly inside a span are never used, so span contents are
    preserved exactly and spans only shift.
    """
    vocab = spec.assets["insert_vocab"]
    rng = _rng(spec, ex)
    n = len(ex.tokens)
    forbidden = set()
    for span in ex.spans:
        forbidden.update(range(span.start + 1, span.end + 1))
    insertions: dict[int, str] = {}
    eligible = 0
    for gap in range(n + 1):
        if gap in forbidden:
            continue
        eligible += 1
        if rng.random() < spec.p:
            insertions[gap] = rng.choice(vocab)
    if not insertions:
        report = PerturbationReport(eligible_tokens=eligible)
        return _tag(ex, WORD_INSERT), report
    tokens: list[str] = []
    for gap in range(n + 1):
        if gap in insertions:
            tokens.append(insertions[gap])
        if gap < n:
            tokens.append(ex.tokens[gap])
    spans = []
    for span in ex.spans:
        shift = sum(1 for gap in insertions if gap <= span.start)
        spans.append(SlotSpan(span.start + shift, span.end + shift, span.slot_type))
    report = PerturbationReport(
        tokens_edited=len(insertions), eligible_tokens=eligible
    )
    return _tag(ex, WORD_INSERT, tokens=tuple(tokens), spans=tuple(spans)), report


def _append_irr(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    """Append one irrelevant pool sentence with prob p; spans are untouched."""
    pool = spec.assets["sentence_pool"]
    rng = _rng(spec, ex)
    if rng.random() >= spec.p:
        return _tag(ex, APPEND_IRR), PerturbationReport(eligible_tokens=1)
    sentence = rng.choice(pool)
    extra = tuple(sentence.split())
    report = PerturbationReport(tokens_edited=1, eligible_tokens=1)
    return _tag(ex, APPEND_IRR, tokens=ex.tokens + extra), report


ParaphraseProvider = Callable[[str], str]


def identity_paraphrase(text: str) -> str:
    return text


def http_paraphrase_provider(endpoint: str) -> ParaphraseProvider:
    """Provider posting {"text": ...} to an HTTP endpoint returning the same shape."""

    def _call(text: str) -> str:
        paraphrase = _post_json(endpoint, {"text": text}).get("text")
        if not isinstance(paraphrase, str):
            raise ClientError(f"malformed response from {endpoint}: no text", status=200)
        return paraphrase

    return _call


def _paraphrase(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    """Rewrite the utterance via a provider and re-locate gold entities.

    Entity surfaces are matched leftmost, case-insensitively, left to right
    in the rewritten token stream. If any surface cannot be found verbatim
    the paraphrase is rejected and the example passes through unchanged.
    """
    new_text = spec.assets["paraphrase_provider"](ex.utterance)
    new_tokens = tuple(new_text.split())
    if new_tokens == ex.tokens:
        return ex, PerturbationReport(eligible_tokens=1)
    if not new_tokens:
        note = f"{ex.id}: paraphrase rejected (empty rewrite)"
        return ex, PerturbationReport(eligible_tokens=1, notes=(note,))
    lowered = [tok.lower() for tok in new_tokens]
    spans: list[SlotSpan] = []
    taken: set[int] = set()
    for span in ex.spans:
        target = [tok.lower() for tok in ex.tokens[span.start : span.end + 1]]
        pos = leftmost_match(lowered, target, taken)
        if pos is None:
            note = f"{ex.id}: paraphrase rejected (lost entity {ex.surface(span)!r})"
            return ex, PerturbationReport(eligible_tokens=1, notes=(note,))
        spans.append(SlotSpan(pos, pos + len(target) - 1, span.slot_type))
        taken.update(range(pos, pos + len(target)))
    report = PerturbationReport(tokens_edited=1, eligible_tokens=1)
    return _tag(ex, PARAPHRASE, tokens=new_tokens, spans=tuple(spans)), report


def _load_lexicon(value: object, examples) -> dict[str, tuple[str, ...]]:
    if isinstance(value, Mapping):
        return {str(k).lower(): tuple(str(a) for a in alts) for k, alts in value.items()}
    path = DEFAULT_HOMOPHONES if value is None else value
    lexicon: dict[str, tuple[str, ...]] = {}
    for line in read_lines(str(path), "homophone lexicon"):
        if line.startswith("#"):
            continue
        word, _, alts = line.partition("\t")
        options = tuple(alt.strip() for alt in alts.split(",") if is_token(alt.strip()))
        if word and options:
            lexicon[word.lower()] = options
    if not lexicon:
        raise ConfigError(f"homophone lexicon is empty: {path}")
    return lexicon


def _load_items(value: object, what: str) -> tuple[str, ...]:
    lines = value if isinstance(value, (list, tuple)) else read_lines(str(value), what)
    items = tuple(str(s) for s in lines if str(s).strip())
    if not items:
        raise ConfigError(f"{what} is empty")
    return items


def _load_sentences(value: object, examples) -> tuple[str, ...]:
    path = DEFAULT_SENTENCE_POOL if value is None else value
    return _load_items(path, "irrelevant-sentence pool")


def _load_vocab(value: object, examples: Iterable[LabeledExample]) -> tuple[str, ...]:
    if value is None:
        return tuple(sorted({tok for ex in examples for tok in ex.tokens}))
    vocab = _load_items(value, "insertion vocabulary")
    for word in vocab:
        if not is_token(word):
            raise ConfigError(f"insertion vocabulary entry {word!r} is not one token")
    return vocab


def _load_paraphraser(value: object, examples) -> ParaphraseProvider:
    if value is None or value == "identity":
        return identity_paraphrase
    if callable(value):
        return value
    name = str(value)
    if name.startswith(("http://", "https://")):
        return http_paraphrase_provider(name)
    raise ConfigError(f"unknown paraphrase provider: {name!r}")


@dataclass(frozen=True)
class _Kind:
    """One non-composite kind: its operator, composite level, names and asset."""

    operator: Callable  # (example, spec) -> (example, PerturbationReport)
    level: int  # application order inside composites: sentence 0 -> word 1 -> char 2
    display: str  # report column
    abbrev: str  # member name in a non-standard composite's column
    asset: str | None = None  # the one PerturbationSpec.assets key the operator reads
    load: Callable[[object, Sequence[LabeledExample]], object] | None = None


_TABLE = {
    CHAR_TYPOS: _Kind(_char_typos, 2, "Typos", "Typ"),
    WORD_HOMOPHONE: _Kind(_word_homophone, 1, "Speech", "Spe", "homophone_lexicon", _load_lexicon),
    WORD_DELETE: _Kind(_word_delete, 1, "WordDelete", "Del"),
    WORD_INSERT: _Kind(_word_insert, 1, "WordInsert", "Ins", "insert_vocab", _load_vocab),
    APPEND_IRR: _Kind(_append_irr, 0, "AppendIrr", "App", "sentence_pool", _load_sentences),
    PARAPHRASE: _Kind(
        _paraphrase, 0, "Paraphrase", "Par", "paraphrase_provider", _load_paraphraser
    ),
}
KINDS = (*_TABLE, COMPOSITE)
ASSET_KEYS = tuple(entry.asset for entry in _TABLE.values() if entry.asset)


def _resolve_assets(
    specs: Sequence[PerturbationSpec], examples: Sequence[LabeledExample]
) -> list[PerturbationSpec]:
    """Copies of specs holding the loaded asset each operator reads.

    The homophone lexicon becomes a lower-cased dict, the sentence pool and
    insertion vocabulary tuples of strings, the paraphrase provider a
    callable. Each file, default or in-memory value is loaded once per call,
    however many specs name it; a missing insert_vocab is the sorted unique
    tokens of examples, the data about to be perturbed.
    """
    loaded: dict[tuple[str, object], object] = {}

    def resolve(spec: PerturbationSpec) -> PerturbationSpec:
        if spec.kind == COMPOSITE:
            return replace(spec, members=tuple(map(resolve, spec.members)))
        entry = _TABLE[spec.kind]
        if entry.asset is None:
            return spec
        value = spec.assets.get(entry.asset)
        # An in-memory value is keyed by identity; the specs keep it alive.
        memo = (entry.asset, value if value is None or isinstance(value, str) else id(value))
        if memo not in loaded:
            loaded[memo] = entry.load(value, examples)
        return replace(spec, assets={entry.asset: loaded[memo]})

    return [resolve(spec) for spec in specs]


def compose(specs: Sequence[PerturbationSpec]) -> PerturbationSpec:
    """Bundle non-composite specs into a composite (one nesting level)."""
    return PerturbationSpec(kind=COMPOSITE, members=tuple(specs))


def canonical_member_order(
    members: Sequence[PerturbationSpec],
) -> tuple[PerturbationSpec, ...]:
    return tuple(sorted(members, key=lambda m: _TABLE[m.kind].level))


def _composite(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    """Apply members in canonical order, merging their reports additively."""
    report = PerturbationReport()
    for member in canonical_member_order(spec.members):
        ex, member_report = _TABLE[member.kind].operator(ex, member)
        report = report.merged(member_report)
    return ex, report


def _operator(spec: PerturbationSpec) -> Callable:
    return _composite if spec.kind == COMPOSITE else _TABLE[spec.kind].operator


def _perturb_examples(
    examples: Iterable[LabeledExample], spec: PerturbationSpec
) -> Iterator[tuple[LabeledExample, PerturbationReport]]:
    """Apply a spec that _resolve_assets returned to each example in turn."""
    operator = _operator(spec)
    return (operator(ex, spec) for ex in examples)


def apply_perturbation(
    ex: LabeledExample, spec: PerturbationSpec
) -> tuple[LabeledExample, PerturbationReport]:
    (spec,) = _resolve_assets([spec], (ex,))
    return _operator(spec)(ex, spec)


def perturb_dataset(
    ds: Dataset, spec: PerturbationSpec
) -> tuple[Dataset, PerturbationReport]:
    """Perturb every example; output is a pure function of (dataset, spec)."""
    (spec,) = _resolve_assets([spec], ds.examples)
    examples: list[LabeledExample] = []
    report = PerturbationReport()
    for out, ex_report in _perturb_examples(ds, spec):
        examples.append(out)
        report = report.merged(ex_report)
    return Dataset(tuple(examples), ds.labels, ds.split_name), report


def kind_token(spec: PerturbationSpec) -> str:
    """Short stable token encoding a spec's kind, for id suffixes."""
    if spec.kind == COMPOSITE:
        return "+".join(m.kind for m in canonical_member_order(spec.members))
    return spec.kind


def display_name(spec: PerturbationSpec) -> str:
    """Human-facing column name for a perturbation."""
    if spec.kind != COMPOSITE:
        return _TABLE[spec.kind].display
    key = frozenset(m.kind for m in spec.members)
    if key in _COMPOSITE_NAMES:
        return _COMPOSITE_NAMES[key]
    return "+".join(_TABLE[m.kind].abbrev for m in canonical_member_order(spec.members))


# Spec keys a kind does not read: a composite's members carry their own, and a
# paraphrase rewrites every example without a random draw.
_UNREAD_KEYS = {COMPOSITE: ("p", "seed", "assets"), PARAPHRASE: ("p", "seed")}


def spec_to_dict(spec: PerturbationSpec) -> dict:
    if spec.kind == COMPOSITE:
        return {"kind": COMPOSITE, "members": [spec_to_dict(m) for m in spec.members]}
    out: dict = {"kind": spec.kind, "p": spec.p, "seed": spec.seed}
    for key in _UNREAD_KEYS.get(spec.kind, ()):
        del out[key]
    assets = {
        key: (list(value) if isinstance(value, (list, tuple)) else value)
        for key, value in spec.assets.items()
        if not callable(value)
    }
    if assets:
        out["assets"] = assets
    return out


def spec_from_dict(data: Mapping, base_dir: Path | None = None) -> PerturbationSpec:
    """The spec a config's pool_specs entry states.

    A string asset naming a file (all but paraphrase_provider) is taken
    relative to base_dir, the config file's directory. Keys a kind does not
    read (_UNREAD_KEYS) are rejected.
    """
    kind = data.get("kind") if isinstance(data, Mapping) else None
    omit = _UNREAD_KEYS.get(kind, ()) if isinstance(kind, str) else ()
    where = f"{kind} pool spec" if omit else "pool spec"
    kwargs = scalars_from_dict(PerturbationSpec, data, where, omit)
    assets = data.get("assets", {})
    check_keys(assets, ASSET_KEYS, "asset")
    assets = {
        key: resolve_path(value, base_dir)
        if isinstance(value, str) and key != "paraphrase_provider"
        else value
        for key, value in assets.items()
    }
    members = data.get("members", [])
    if not isinstance(members, (list, tuple)):
        raise ConfigError(f"{where} key 'members' must be a list, got {members!r}")
    members = tuple(spec_from_dict(m, base_dir) for m in members)
    return PerturbationSpec(**kwargs, assets=assets, members=members)
