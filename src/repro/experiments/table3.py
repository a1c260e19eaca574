"""Table 3 — F-score of all eleven methods on the five datasets.

Every method from the registry runs on the dataset's one featurization
(shared blocking + features, the paper's protocol). Paper F1 values ride
along for the EXPERIMENTS.md diff.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.zeroer import FeaturizedTask
from repro.experiments.runner import ALL_METHODS, run_method

PAPER_TABLE3 = {
    "ZeroER": {"FZ": 1.00, "DA": 0.96, "DS": 0.86, "AB": 0.52, "AG": 0.48},
    "ECM":    {"FZ": 0.07, "DA": 0.09, "DS": 0.07, "AB": 0.01, "AG": 0.01},
    "KM-RL":  {"FZ": 0.30, "DA": 0.95, "DS": 0.85, "AB": 0.01, "AG": 0.02},
    "KM-SK":  {"FZ": 0.30, "DA": 0.27, "DS": 0.43, "AB": 0.02, "AG": 0.02},
    "GMM":    {"FZ": 0.30, "DA": 0.26, "DS": 0.07, "AB": 0.02, "AG": 0.02},
    "PP*":    {"FZ": 0.97, "DA": 0.87, "DS": 0.83, "AB": 0.29, "AG": 0.30},
    "RF":     {"FZ": 0.97, "DA": 0.98, "DS": 0.93, "AB": 0.46, "AG": 0.51},
    "LR":     {"FZ": 0.98, "DA": 0.96, "DS": 0.88, "AB": 0.18, "AG": 0.18},
    "MLP":    {"FZ": 0.99, "DA": 0.97, "DS": 0.92, "AB": 0.32, "AG": 0.35},
    "DM":     {"FZ": 0.93, "DA": 0.97, "DS": 0.95, "AB": 0.63, "AG": 0.67},
    "AL-RF":  {"FZ": 1.00, "DA": 0.99, "DS": 0.99, "AB": 0.44, "AG": 0.46},
}


def rows(spark: SparkSession, task: FeaturizedTask, *, seed: int = 0) -> list[dict]:
    """One row per method on ``task`` with measured and paper F1."""
    code = task.ds.code
    out = []
    for m in ALL_METHODS:
        res = run_method(spark, task, m, seed=seed)
        out.append(
            {
                "dataset": code,
                "method": m,
                "f1": round(res.f1, 3),
                "paper f1": PAPER_TABLE3[m][code],
                "precision": round(res.precision, 3),
                "recall": round(res.recall, 3),
            }
        )
    return out


def pivot(df: pd.DataFrame) -> pd.DataFrame:
    """Datasets × methods F1 matrix in the paper's layout (plus average row)."""
    wide = df.pivot(index="dataset", columns="method", values="f1")
    wide = wide.reindex([c for c in ["FZ", "DA", "DS", "AB", "AG"] if c in wide.index])
    order = [m for m in PAPER_TABLE3 if m in wide.columns]
    wide = wide[order]
    wide.loc["average"] = wide.mean()
    return wide.round(3)
