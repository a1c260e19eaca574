"""Precision / recall / F1 for predicted match sets, in one Spark job.

The paper reports F-score against the full ground truth; matches lost by
blocking count against recall (same protocol here). ``restrict_to`` supports
the supervised/AL protocols that evaluate only on the held-out pair subset.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame


@dataclass(frozen=True)
class PRF:
    """Precision/recall/F1 plus the raw confusion counts."""

    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def evaluate(
    predicted: DataFrame,
    truth: DataFrame,
    restrict_to: DataFrame | None = None,
) -> PRF:
    """Score a predicted (l_id, r_id) match set against ground truth.

    ``restrict_to``: optional (l_id, r_id) universe — both prediction and
    truth are intersected with it before counting (held-out evaluation).
    """
    keys = ["l_id", "r_id"]
    pred = predicted.select(keys).distinct().selectExpr(*keys, "1 AS p")
    tru = truth.select(keys).distinct().selectExpr(*keys, "1 AS t")
    if restrict_to is not None:
        uni = restrict_to.select(keys)
        pred = pred.join(uni, keys, "left_semi")
        tru = tru.join(uni, keys, "left_semi")
    # One aggregation over the full outer join of the two distinct key sets:
    # a row with p set is predicted, with t set is true, with both a hit.
    n_pred, n_true, tp = pred.join(tru, keys, "full_outer").selectExpr(
        "count(p)", "count(t)", "count(p + t)"
    ).first()
    return PRF(tp=tp, fp=n_pred - tp, fn=n_true - tp)
