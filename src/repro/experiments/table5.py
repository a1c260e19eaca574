"""Table 5 — ablations: each ZeroER innovation vs its conventional counterpart.

Columns per the paper: full ZeroER; feature grouping + correlation sharing
replaced by diagonal + shared covariance; adaptive replaced by uniform
regularization; transitivity-as-posterior-constraints replaced by duplicate-
free post-processing.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.variants import VARIANTS
from repro.core.zeroer import FeaturizedTask, run_zeroer
from repro.eval import evaluate

PAPER_TABLE5 = {
    "ZeroER":          {"FZ": 1.00, "DA": 0.96, "DS": 0.86, "AB": 0.52, "AG": 0.48},
    "diag+share cov":  {"FZ": 0.97, "DA": 0.96, "DS": 0.78, "AB": 0.08, "AG": 0.09},
    "uniform reg":     {"FZ": 0.95, "DA": 0.36, "DS": 0.59, "AB": 0.07, "AG": 0.04},
    "post-processing": {"FZ": 0.99, "DA": 0.97, "DS": 0.41, "AB": 0.45, "AG": 0.42},
}


def rows(spark: SparkSession, task: FeaturizedTask, *, seed: int = 0) -> list[dict]:
    """One row per ZeroER variant on ``task`` with measured and paper F1;
    ``seed`` is unused (EM starts from the deterministic ε init)."""
    code = task.ds.code
    out = []
    for name, v in VARIANTS.items():
        res = run_zeroer(spark, task, config=v["config"], transitivity=v["transitivity"])
        prf = evaluate(res.predictions, task.ds.matches)
        out.append(
            {
                "dataset": code,
                "variant": name,
                "f1": round(prf.f1, 3),
                "paper f1": PAPER_TABLE5[name][code],
                "precision": round(prf.precision, 3),
                "recall": round(prf.recall, 3),
            }
        )
    return out


def pivot(df: pd.DataFrame) -> pd.DataFrame:
    """Datasets × variants F1 matrix with an average row (paper layout)."""
    wide = df.pivot(index="dataset", columns="variant", values="f1")
    wide = wide.reindex([c for c in ["FZ", "DA", "DS", "AB", "AG"] if c in wide.index])
    wide = wide[[v for v in PAPER_TABLE5 if v in wide.columns]]
    wide.loc["average"] = wide.mean()
    return wide.round(3)
