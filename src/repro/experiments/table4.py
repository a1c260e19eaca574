"""Table 4 — labeled examples needed to match ZeroER's F-score.

For each supervised method, sweep a doubling label-budget grid and report the
first budget whose F1 (on the remaining pairs) reaches the dataset's ZeroER
F1; an asterisked total-pair count means the method never got there (the
paper's convention). AL-RF reads the answer off its query trajectory.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines import active_learning, deepmatcher_lite, supervised
from repro.core.zeroer import FeaturizedTask, run_zeroer
from repro.eval import evaluate

PAPER_TABLE4 = {
    "LR":    {"FZ": "2915*", "DA": "418", "DS": "413", "AB": "162981*", "AG": "358281*"},
    "RF":    {"FZ": "2915*", "DA": "232", "DS": "227", "AB": "162981*", "AG": "7589"},
    "MLP":   {"FZ": "2915*", "DA": "417", "DS": "270", "AB": "162981*", "AG": "358281*"},
    "DM":    {"FZ": "2332", "DA": "4647", "DS": "6768", "AB": "16865", "AG": "17916"},
    "AL-RF": {"FZ": "1572", "DA": "26", "DS": "33", "AB": "162981*", "AG": "358281*"},
}

METHODS = ["LR", "RF", "MLP", "DM", "AL-RF"]


def _budget_grid(total: int, start: int = 100, factor: int = 4) -> list[int]:
    """Geometric budget grid ending at the full candidate count."""
    grid = []
    b = start
    while b < total:
        grid.append(b)
        b *= factor
    grid.append(total)
    return grid


def labels_needed(
    spark: SparkSession, task: FeaturizedTask, target_f1: float, method: str, *, seed: int = 0
) -> str:
    """First budget on the doubling grid reaching ``target_f1``, else 'N*'."""
    total = len(task.matrices["c"][0])
    if method == "AL-RF":
        res = active_learning.al_rf(spark, task.cross, task.cols, task.ds.matches, seed=seed)
        for n, f1 in res.trajectory:
            if f1 >= target_f1 - 1e-9:
                return str(n)
        return f"{total}*"
    if method == "DM":
        # Featurize once per dataset, not once per budget point.
        feat, cols = deepmatcher_lite.dm_features(
            task.cross.select("l_id", "r_id"), task.ds
        )
        feat, truth = feat.cache(), task.ds.matches
    else:
        feat, cols, truth = task.cross, task.cols, task.ds.matches
    try:
        for budget in _budget_grid(total):
            prf = supervised.budget_f1(
                "MLP" if method == "DM" else method, feat, cols, truth, budget, seed=seed
            )
            if prf.f1 >= target_f1 - 1e-9:
                return str(budget)
        return f"{total}*"
    finally:
        if method == "DM":
            feat.unpersist()


def rows(spark: SparkSession, task: FeaturizedTask, *, seed: int = 0) -> list[dict]:
    """One row per method: labels needed on ``task`` to reach its ZeroER F1."""
    code = task.ds.code
    zres = run_zeroer(spark, task, transitivity="constraint")
    target = evaluate(zres.predictions, task.ds.matches).f1
    return [
        {
            "dataset": code,
            "method": m,
            "labels needed": labels_needed(spark, task, target, m, seed=seed),
            "paper labels": PAPER_TABLE4[m][code],
            "zeroer f1 target": round(target, 3),
        }
        for m in METHODS
    ]
