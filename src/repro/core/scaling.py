"""Min-imputation + min-max scaling of feature columns, as Spark SQL exprs.

ZeroER min-max normalizes every feature into [0, 1] before EM (§3.3). A
missing similarity value (a side had a NULL attribute) is imputed at the
feature's minimum over the candidate set first.

Missing values reach Spark as NULL: Arrow turns the NaN that
``compute_features``' ``mapInPandas`` yields into NULL. NaN is still treated
as missing, for callers that pass a DataFrame holding NaN directly.

Both passes are built as SQL expression strings handed to one ``selectExpr``
call. Each ``pyspark.sql.Column`` operation is a py4j round trip of about
1 ms, and the Column-built aggregation and projection over d=29 features took
hundreds of them, 0.3–0.5 s per pass before any Spark job ran. The fitted
statistics enter the projection as ``CAST('<repr>' AS DOUBLE)``, which parses
back to the same double; a bare decimal literal would be a SQL DECIMAL.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame


def _quote(name: str) -> str:
    return "`" + name.replace("`", "``") + "`"


def _double(x: float) -> str:
    return f"CAST('{x!r}' AS DOUBLE)"


@dataclass(frozen=True)
class Scaler:
    """Fitted per-feature statistics: min (also the imputed value) and max."""

    cols: list[str]
    min: dict[str, float]
    max: dict[str, float]

    def transform(self, df: DataFrame) -> DataFrame:
        """Impute NaN/NULL at the feature *minimum*, then scale to [0, 1].

        Min-imputation encodes "a missing attribute is no evidence of
        similarity": the missing mass merges with the dissimilar bulk instead
        of forming a mid-range mode of its own (mean imputation on a
        half-missing attribute creates a bimodal structure the mixture model
        prefers to split on, hijacking the M component — observed on DS).
        A constant feature (max == min) scales to 0.0 — the degenerate case
        ZeroER's adaptive regularization exists to handle.
        """
        exprs = [_quote(c) for c in df.columns if c not in self.cols]
        for c in self.cols:
            lo, hi = self.min[c], self.max[c]
            span = hi - lo
            if span > 0:
                imputed = f"coalesce(nanvl({_quote(c)}, CAST(NULL AS DOUBLE)), {_double(lo)})"
                scaled = f"({imputed} - {_double(lo)}) / {_double(span)}"
            else:
                scaled = _double(0.0)
            exprs.append(f"{scaled} AS {_quote(c)}")
        return df.selectExpr(*exprs)


def fit_scaler(df: DataFrame, cols: list[str]) -> Scaler:
    """One aggregation pass computing NaN-aware min/max per feature."""
    aggs = []
    for i, c in enumerate(cols):
        clean = f"nanvl({_quote(c)}, CAST(NULL AS DOUBLE))"
        aggs += [f"min({clean}) AS min_{i}", f"max({clean}) AS max_{i}"]
    row = df.selectExpr(*aggs).first()
    lo, hi = {}, {}
    for i, c in enumerate(cols):
        # An all-missing feature has no statistics; pin it to constant 0.
        lo[c] = float(row[2 * i]) if row[2 * i] is not None else 0.0
        hi[c] = float(row[2 * i + 1]) if row[2 * i + 1] is not None else 0.0
    return Scaler(cols=list(cols), min=lo, max=hi)


def scale_features(df: DataFrame, cols: list[str]) -> DataFrame:
    """Convenience: fit + transform in one call."""
    return fit_scaler(df, cols).transform(df)
