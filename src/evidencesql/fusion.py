"""Late fusion of classifier probabilities with the SQL branch's confidence.

Fusion is a convex combination, alpha weighting the classifier. The decision
is the fused argmax with canonical-order tie-break; a review flag marks any
case where the two branches disagree on the top option, without abstaining
from a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from evidencesql.errors import OptionMismatch
from evidencesql.feature_store import CNN_PROB_SUM_TOLERANCE
from evidencesql.knowledge import Hypothesis


@dataclass(frozen=True)
class CnnOutput:
    probs: dict[str, float]

    def validate(self, options: Sequence[str]) -> "CnnOutput":
        if set(self.probs) != set(options):
            raise OptionMismatch(
                f"classifier options {sorted(self.probs)} do not match "
                f"question options {sorted(options)}"
            )
        for label, p in self.probs.items():
            if not math.isfinite(p) or not 0.0 <= p <= 1.0:
                raise OptionMismatch(f"probability for {label!r} is {p}, outside [0, 1]")
        total = sum(self.probs.values())
        if abs(total - 1.0) > CNN_PROB_SUM_TOLERANCE:
            raise OptionMismatch(f"classifier probabilities sum to {total}")
        return self


@dataclass(frozen=True)
class FusedDecision:
    label: str
    fused: dict[str, float]
    alpha: float
    review_flag: bool
    branch_labels: tuple[str, str]  # (cnn, sql)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "fused": dict(self.fused),
            "alpha": self.alpha,
            "review_flag": self.review_flag,
            "branch_labels": {"cnn": self.branch_labels[0], "sql": self.branch_labels[1]},
        }


def argmax_option(probs: dict[str, float], options: Sequence[str]) -> str:
    """Highest-probability option; ties go to the earliest canonical option."""
    best = options[0]
    for option in options[1:]:
        if probs[option] > probs[best]:
            best = option
    return best


def fuse(
    cnn: CnnOutput,
    hypothesis: Hypothesis,
    alpha: float,
    options: Sequence[str],
) -> FusedDecision:
    """fused[o] = alpha * cnn[o] + (1 - alpha) * sql[o], per option.

    Raises:
        OptionMismatch: branch option sets differ.
        ValueError: alpha outside [0, 1].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    cnn.validate(options)
    sql = hypothesis.confidences
    if set(sql) != set(options):
        raise OptionMismatch(
            f"hypothesis options {sorted(sql)} do not match question options {sorted(options)}"
        )
    fused = {o: alpha * cnn.probs[o] + (1.0 - alpha) * sql[o] for o in options}
    cnn_label = argmax_option(cnn.probs, options)
    sql_label = argmax_option(sql, options)
    return FusedDecision(
        label=argmax_option(fused, options),
        fused=fused,
        alpha=alpha,
        review_flag=cnn_label != sql_label,
        branch_labels=(cnn_label, sql_label),
    )


def fuse_sql_only(hypothesis: Hypothesis, options: Sequence[str]) -> FusedDecision:
    """Ablation path without a classifier: the hypothesis is the decision.

    The absent classifier branch is recorded as agreeing with the SQL label.
    """
    sql = hypothesis.confidences
    label = argmax_option(sql, options)
    return FusedDecision(
        label=label,
        fused={o: sql[o] for o in options},
        alpha=0.0,
        review_flag=False,
        branch_labels=(label, label),
    )


def cnn_only_decision(cnn: CnnOutput, options: Sequence[str]) -> FusedDecision:
    """Ablation path without the SQL branch: the classifier is the decision."""
    cnn.validate(options)
    label = argmax_option(cnn.probs, options)
    return FusedDecision(
        label=label,
        fused={o: cnn.probs[o] for o in options},
        alpha=1.0,
        review_flag=False,
        branch_labels=(label, label),
    )
