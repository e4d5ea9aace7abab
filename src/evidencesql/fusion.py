"""Late fusion of classifier probabilities with the SQL branch's confidence.

One rule decides every mode: fused[o] = alpha * cnn[o] + (1 - alpha) * sql[o],
alpha weighting the classifier. The decision is the fused argmax with
canonical-order tie-break; a review flag marks any case where the two branches
disagree on the top option, without abstaining from a prediction. Each
ablation mode is the same rule at alpha 1 or 0 with the absent branch equal to
the present one, so its flag is clear and both branch labels are its label.

The classifier branch is a plain ``{option: probability}`` dict; the sidecar
reader has already refused any that is not finite, in [0, 1] and summing to
one, so only its option set is checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from evidencesql.errors import OptionMismatch
from evidencesql.knowledge import Hypothesis


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
    return max(options, key=probs.__getitem__)


def _check_options(branch: str, probs: dict[str, float], options: Sequence[str]) -> None:
    if set(probs) != set(options):
        raise OptionMismatch(f"{branch} options {sorted(probs)} do not match "
                             f"question options {sorted(options)}")


def _decide(cnn: dict[str, float], sql: dict[str, float], alpha: float,
            options: Sequence[str]) -> FusedDecision:
    fused = {o: alpha * cnn[o] + (1.0 - alpha) * sql[o] for o in options}
    cnn_label = argmax_option(cnn, options)
    sql_label = argmax_option(sql, options)
    return FusedDecision(label=argmax_option(fused, options), fused=fused, alpha=alpha,
                         review_flag=cnn_label != sql_label, branch_labels=(cnn_label, sql_label))


def fuse(cnn: dict[str, float], hypothesis: Hypothesis, alpha: float,
         options: Sequence[str]) -> FusedDecision:
    """Both branches, weighted by ``alpha`` in [0, 1] (``RunConfig`` checks it).

    Raises:
        OptionMismatch: a branch's option set differs from the question's.
    """
    _check_options("classifier", cnn, options)
    _check_options("hypothesis", hypothesis.confidences, options)
    return _decide(cnn, hypothesis.confidences, alpha, options)


def fuse_sql_only(hypothesis: Hypothesis, options: Sequence[str]) -> FusedDecision:
    """Ablation path without a classifier: the hypothesis is the decision."""
    return _decide(hypothesis.confidences, hypothesis.confidences, 0.0, options)


def cnn_only_decision(cnn: dict[str, float], options: Sequence[str]) -> FusedDecision:
    """Ablation path without the SQL branch: the classifier is the decision."""
    _check_options("classifier", cnn, options)
    return _decide(cnn, cnn, 1.0, options)
