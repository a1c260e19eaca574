"""Table 1 — cosine(S_M, S_U) vs cosine(R_M, R_U) after feature grouping.

The empirical justification for correlation sharing (§3.1): using ground
truth, the M/U *covariance* matrices differ substantially while the M/U
*correlation* matrices are nearly identical. We compute both from the cross
candidate set's scaled feature matrix (``task.matrices["c"]``),
block-restricted to the feature groups.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core import gmm
from repro.core.zeroer import FeaturizedTask

PAPER_TABLE1 = {
    "cosine(S_M,S_U)": {"FZ": 0.76, "DA": 0.69, "DS": 0.74, "AB": 0.92, "AG": 0.73},
    "cosine(R_M,R_U)": {"FZ": 0.97, "DA": 0.94, "DS": 0.98, "AB": 0.99, "AG": 0.99},
}


def _flat_cosine(a: np.ndarray, b: np.ndarray) -> float:
    fa, fb = a.ravel(), b.ravel()
    na, nb = np.linalg.norm(fa), np.linalg.norm(fb)
    return float(fa @ fb / (na * nb)) if na > 0 and nb > 0 else 0.0


def grouped_cosines(task: FeaturizedTask) -> tuple[float, float]:
    """(cosine(S_M, S_U), cosine(R_M, R_U)) from ground-truth labels."""
    ids, X = task.matrices["c"]
    truth = task.ds.matches.select("l_id", "r_id").distinct().toPandas()
    y = pd.MultiIndex.from_arrays(ids.T).isin(pd.MultiIndex.from_frame(truth)).astype(np.float64)
    S_m, R_m = gmm.weighted_cov(X, y)
    S_u, R_u = gmm.weighted_cov(X, 1.0 - y)
    g = task.groups
    return (
        _flat_cosine(gmm.block_of(S_m, g), gmm.block_of(S_u, g)),
        _flat_cosine(gmm.block_of(R_m, g), gmm.block_of(R_u, g)),
    )


def rows(spark: SparkSession, task: FeaturizedTask, *, seed: int = 0) -> list[dict]:
    """Table 1's row for one dataset, paper values alongside. Only the cross
    model's matrix is read; ``seed`` is unused (the cosines draw nothing)."""
    code = task.ds.code
    cos_s, cos_r = grouped_cosines(task)
    return [
        {
            "dataset": code,
            "cosine(S_M,S_U)": round(cos_s, 2),
            "paper cosine(S_M,S_U)": PAPER_TABLE1["cosine(S_M,S_U)"][code],
            "cosine(R_M,R_U)": round(cos_r, 2),
            "paper cosine(R_M,R_U)": PAPER_TABLE1["cosine(R_M,R_U)"][code],
        }
    ]
