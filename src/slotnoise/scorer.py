"""Precision/recall/F1 over predicted (surface, label) pairs.

text_match scores one-to-one multiset matching between normalized gold and
predicted pairs. strict_span additionally requires the predicted surface,
located leftmost in the gold utterance, to coincide exactly with a gold span
of the same type. Scores are percentages in [0, 100]; the Overall block
reports both micro and macro aggregation over the non-clean groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .corpus import LabeledExample, leftmost_match
from .errors import DataError
from .parser import Prediction, normalize_surface

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
        return {
            "mode": self.mode,
            "per_example": [
                {"id": e.id, "group": e.group, "tp": e.tp, "fp": e.fp, "fn": e.fn}
                for e in self.per_example
            ],
            "per_group": {
                name: {
                    "tp": g.tp,
                    "fp": g.fp,
                    "fn": g.fn,
                    "support": g.support,
                    "precision": g.precision,
                    "recall": g.recall,
                    "f1": g.f1,
                }
                for name, g in self.per_group.items()
            },
            "overall": {
                "micro_precision": self.overall.micro_precision,
                "micro_recall": self.overall.micro_recall,
                "micro_f1": self.overall.micro_f1,
                "macro_f1": self.overall.macro_f1,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "EvalResult":
        per_example = tuple(
            ExampleScore(str(e["id"]), str(e["group"]), int(e["tp"]), int(e["fp"]), int(e["fn"]))
            for e in data["per_example"]
        )
        per_group = {
            str(name): GroupScore(
                tp=int(g["tp"]),
                fp=int(g["fp"]),
                fn=int(g["fn"]),
                support=int(g["support"]),
                precision=float(g["precision"]),
                recall=float(g["recall"]),
                f1=float(g["f1"]),
            )
            for name, g in data["per_group"].items()
        }
        o = data["overall"]
        overall = OverallScore(
            micro_precision=float(o["micro_precision"]),
            micro_recall=float(o["micro_recall"]),
            micro_f1=float(o["micro_f1"]),
            macro_f1=float(o["macro_f1"]),
        )
        return cls(per_example, per_group, overall, str(data["mode"]))


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
        unused = list(gold.spans)
        tp = 0
        for surface, label in predicted:
            needle = surface.split()
            start = leftmost_match(lowered, needle)
            if start is None:
                continue
            end = start + len(needle) - 1
            for i, span in enumerate(unused):
                if span.start == start and span.end == end and span.slot_type == label:
                    del unused[i]
                    tp += 1
                    break
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
