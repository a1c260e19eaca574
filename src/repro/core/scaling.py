"""Min-imputation + min-max scaling of feature matrices, on the driver.

ZeroER min-max normalizes every feature into [0, 1] before EM (§3.3). A
missing similarity value (a side had a NULL attribute, which reads as NaN
from Arrow) is imputed at the feature's minimum over the candidate set first.
``featurize`` fits a :class:`Scaler` on each model's collected matrix;
:func:`scale_features` runs the same numpy code over a DataFrame, with one
``toArrow`` in and one ``createDataFrame`` out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame


def feature_matrix(table: pa.Table, cols: list[str]) -> np.ndarray:
    """``table``'s ``cols`` as a float64 (rows × len(cols)) matrix, NULL → NaN."""
    X = np.empty((table.num_rows, len(cols)))
    for j, c in enumerate(cols):
        X[:, j] = table.column(c).to_numpy()
    return X


@dataclass(frozen=True)
class Scaler:
    """Fitted per-feature statistics: min (also the imputed value) and max."""

    cols: list[str]
    min: dict[str, float]
    max: dict[str, float]

    @classmethod
    def fit(cls, X: np.ndarray, cols: list[str]) -> "Scaler":
        """Min and max of each column over its non-NaN values; an all-missing
        feature (or a matrix without rows) is pinned to constant 0."""
        lo, hi = (
            np.where(np.isnan(v), 0.0, v)
            for v in (np.fmin.reduce(X, axis=0, initial=np.nan), np.fmax.reduce(X, axis=0, initial=np.nan))
        )
        return cls(list(cols), dict(zip(cols, lo.tolist())), dict(zip(cols, hi.tolist())))

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Impute NaN at the feature *minimum*, then scale to [0, 1].

        Min-imputation encodes "a missing attribute is no evidence of
        similarity": the missing mass merges with the dissimilar bulk instead
        of forming a mid-range mode of its own (mean imputation on a
        half-missing attribute creates a bimodal structure the mixture model
        prefers to split on, hijacking the M component — observed on DS).
        A constant feature (max == min) scales to 0.0 — the degenerate case
        ZeroER's adaptive regularization exists to handle.
        """
        lo = np.array([self.min[c] for c in self.cols])
        span = np.array([self.max[c] for c in self.cols]) - lo
        imputed = np.where(np.isnan(X), lo, X)
        return np.divide(imputed - lo, span, out=np.zeros_like(imputed), where=span > 0)


def scale_features(df: DataFrame, cols: list[str]) -> DataFrame:
    """``df`` with ``cols`` imputed and scaled by a scaler fitted on it. The
    other columns pass through first, in their order; ``cols`` follow."""
    table = df.toArrow()
    X = feature_matrix(table, cols)
    scaled = Scaler.fit(X, cols).transform(X)
    keep = [c for c in table.column_names if c not in cols]
    out = pa.table(
        [*(table.column(c) for c in keep), *(scaled[:, j] for j in range(len(cols)))],
        names=[*keep, *cols],
    )
    return df.sparkSession.createDataFrame(out)
