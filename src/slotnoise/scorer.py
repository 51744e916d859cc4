"""Precision/recall/F1 over predicted (surface, label) pairs.

text_match scores one-to-one multiset matching between normalized gold and
predicted pairs. strict_span additionally requires the predicted surface,
located leftmost in the gold utterance outside the gold spans already
credited, to be a gold span of the same type. Scores are percentages in
[0, 100]; the Overall block reports micro and macro aggregation over the
non-clean groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping

from .corpus import LabeledExample, leftmost_match
from .errors import DataError
from .parser import Prediction, normalize_surface
from .schema import scalars_from_dict

TEXT_MATCH = "text_match"
STRICT_SPAN = "strict_span"
MODES = (TEXT_MATCH, STRICT_SPAN)

CLEAN_GROUP = "clean"


@dataclass(frozen=True)
class MatchCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class ExampleScore:
    id: str
    group: str
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class GroupScore:
    tp: int
    fp: int
    fn: int
    support: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class OverallScore:
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_f1: float


@dataclass(frozen=True)
class EvalResult:
    per_example: tuple[ExampleScore, ...]
    per_group: dict[str, GroupScore]
    overall: OverallScore
    mode: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "EvalResult":
        """The inverse of to_dict; an unknown or missing key raises ConfigError naming it."""
        kwargs = scalars_from_dict(cls, data, "result")
        return cls(
            per_example=tuple(
                ExampleScore(**scalars_from_dict(ExampleScore, e, "per_example"))
                for e in data["per_example"]
            ),
            per_group={
                str(name): GroupScore(**scalars_from_dict(GroupScore, g, "per_group"))
                for name, g in data["per_group"].items()
            },
            overall=OverallScore(**scalars_from_dict(OverallScore, data["overall"], "overall")),
            **kwargs,
        )


def gold_pairs(ex: LabeledExample) -> list[tuple[str, str]]:
    return [(normalize_surface(ex.surface(span)), span.slot_type) for span in ex.spans]


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def score_example(
    gold: LabeledExample, pred: Prediction, mode: str = TEXT_MATCH
) -> MatchCounts:
    """Match predicted pairs against gold one-to-one and count tp/fp/fn."""
    if mode not in MODES:
        raise DataError(f"unknown scoring mode: {mode!r}")
    predicted = [(normalize_surface(s), t) for s, t in pred.pairs]
    if mode == TEXT_MATCH:
        gold_counter = Counter(gold_pairs(gold))
        pred_counter = Counter(predicted)
        tp = sum((gold_counter & pred_counter).values())
    else:
        lowered = [tok.lower() for tok in gold.tokens]
        spans = {(span.start, span.end, span.slot_type) for span in gold.spans}
        taken: set[int] = set()  # token indices of the gold spans credited so far
        tp = 0
        for surface, label in predicted:
            needle = surface.split()
            start = leftmost_match(lowered, needle, taken)
            if start is not None and (start, start + len(needle) - 1, label) in spans:
                taken.update(range(start, start + len(needle)))
                tp += 1
    return MatchCounts(tp=tp, fp=len(predicted) - tp, fn=len(gold.spans) - tp)


def aggregate(
    counts: Mapping[str, MatchCounts],
    groups: Mapping[str, str],
    mode: str = TEXT_MATCH,
) -> EvalResult:
    """Fold per-example counts into per-group and overall scores.

    Every scored example id must be assigned exactly one group. The group
    whose lowercased name is "clean" is excluded from the Overall block
    (unless it is the only group present).
    """
    if not counts:
        raise DataError("no scored examples to aggregate")
    orphan_counts = sorted(set(counts) - set(groups))
    if orphan_counts:
        raise DataError(f"examples with no group assignment: {', '.join(orphan_counts)}")
    orphan_groups = sorted(set(groups) - set(counts))
    if orphan_groups:
        raise DataError(f"group entries with no scored example: {', '.join(orphan_groups)}")

    per_example = tuple(
        ExampleScore(ex_id, group, counts[ex_id].tp, counts[ex_id].fp, counts[ex_id].fn)
        for ex_id, group in groups.items()
    )
    group_totals: dict[str, list[int]] = {}
    for score in per_example:
        totals = group_totals.setdefault(score.group, [0, 0, 0])
        totals[0] += score.tp
        totals[1] += score.fp
        totals[2] += score.fn

    per_group: dict[str, GroupScore] = {}
    for name, (tp, fp, fn) in group_totals.items():
        precision, recall, f1 = prf(tp, fp, fn)
        per_group[name] = GroupScore(tp, fp, fn, tp + fn, precision, recall, f1)

    noisy = [name for name in per_group if name.lower() != CLEAN_GROUP]
    if not noisy:
        noisy = list(per_group)
    tp = sum(per_group[n].tp for n in noisy)
    fp = sum(per_group[n].fp for n in noisy)
    fn = sum(per_group[n].fn for n in noisy)
    micro_p, micro_r, micro_f1 = prf(tp, fp, fn)
    macro_f1 = sum(per_group[n].f1 for n in noisy) / len(noisy)
    overall = OverallScore(micro_p, micro_r, micro_f1, macro_f1)
    return EvalResult(per_example, per_group, overall, mode)
