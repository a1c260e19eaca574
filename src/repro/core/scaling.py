"""Min-imputation + min-max scaling of feature columns, as Spark SQL exprs.

ZeroER min-max normalizes every feature into [0, 1] before EM (§3.3). A
missing similarity value (a side had a NULL attribute) is imputed at the
feature's minimum over the candidate set first.

Missing values reach Spark as NULL: Arrow turns the NaN that
``compute_features``' ``mapInPandas`` yields into NULL. NaN is still treated
as missing, for callers that pass a DataFrame holding NaN directly.

Each of ZeroER's models is scaled by its own statistics. :func:`fit_scalers`
fits every model of a model-tagged feature frame in one aggregation grouped by
``model``; :func:`fit_scaler` is its single-model case.

Both passes are built from SQL expression strings: the aggregation as one
``struct`` expression, the projection as one ``selectExpr`` call. Each
``pyspark.sql.Column`` operation is a py4j round trip of about 1 ms, and the
Column-built aggregation and projection over d=29 features took hundreds of
them, 0.3–0.5 s per pass before any Spark job ran. The fitted
statistics enter the projection as ``CAST('<repr>' AS DOUBLE)``, which parses
back to the same double; a bare decimal literal would be a SQL DECIMAL.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


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


def _pinned_or(stat) -> float:
    # An all-missing feature (or a model without rows) has no statistics;
    # pin it to constant 0.
    return float(stat) if stat is not None else 0.0


def fit_scalers(df: DataFrame, cols: list[str], models) -> dict[str, Scaler]:
    """One aggregation pass grouped by ``df``'s ``model`` column: NaN-aware
    min/max per feature, as a :class:`Scaler` for each of ``models``. A model
    with no rows gets every feature pinned to 0."""
    aggs = []
    for i, c in enumerate(cols):
        clean = f"nanvl({_quote(c)}, CAST(NULL AS DOUBLE))"
        aggs += [f"min({clean}) AS min_{i}", f"max({clean}) AS max_{i}"]
    # One struct of every aggregate: a single expression, a single py4j call.
    rows = df.groupBy("model").agg(F.expr(f"struct({', '.join(aggs)}) AS stats")).collect()
    stats = {row["model"]: row["stats"] for row in rows}
    out = {}
    for m in models:
        row = stats.get(m, (None,) * (2 * len(cols)))
        lo = {c: _pinned_or(row[2 * i]) for i, c in enumerate(cols)}
        hi = {c: _pinned_or(row[2 * i + 1]) for i, c in enumerate(cols)}
        out[m] = Scaler(cols=list(cols), min=lo, max=hi)
    return out


def fit_scaler(df: DataFrame, cols: list[str]) -> Scaler:
    """The single-model case of :func:`fit_scalers`."""
    return fit_scalers(df.selectExpr("'' AS model", "*"), cols, [""])[""]


def scale_features(df: DataFrame, cols: list[str]) -> DataFrame:
    """Convenience: fit + transform in one call."""
    return fit_scaler(df, cols).transform(df)
