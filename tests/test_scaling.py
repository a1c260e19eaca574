"""Oracle + property tests for min-imputation + min-max scaling (repro.core.scaling).

``ref_fit_scalers`` and ``ref_transform`` are the reference: the scaler as
Spark SQL over a model-tagged feature DataFrame (one aggregation grouped by
model for the statistics, one ``selectExpr`` projection per model), which is
what ``featurize`` ran before it scaled on the driver.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking import block_models
from repro.core.em import model_matrices
from repro.core.scaling import Scaler, feature_matrix, scale_features
from repro.oracle import assert_equivalent
from repro.textsim import compute_features, feature_columns, feature_plan


def _quote(name: str) -> str:
    return "`" + name.replace("`", "``") + "`"


def _double(x: float) -> str:
    # A bare decimal literal would be a SQL DECIMAL; the repr parses back to
    # the same double.
    return f"CAST('{x!r}' AS DOUBLE)"


def ref_fit_scalers(df: DataFrame, cols: list[str], models) -> dict[str, Scaler]:
    """NaN/NULL-ignoring min and max of every feature per ``model`` of
    ``df``, in one aggregation; a model without rows (or an all-missing
    feature) is pinned to 0."""
    aggs = []
    for i, c in enumerate(cols):
        clean = f"nanvl({_quote(c)}, CAST(NULL AS DOUBLE))"
        aggs += [f"min({clean}) AS min_{i}", f"max({clean}) AS max_{i}"]
    rows = df.groupBy("model").agg(F.expr(f"struct({', '.join(aggs)}) AS stats")).collect()
    stats = {row["model"]: row["stats"] for row in rows}
    pinned = lambda v: float(v) if v is not None else 0.0  # noqa: E731
    out = {}
    for m in models:
        row = stats.get(m, (None,) * (2 * len(cols)))
        out[m] = Scaler(
            cols=list(cols),
            min={c: pinned(row[2 * i]) for i, c in enumerate(cols)},
            max={c: pinned(row[2 * i + 1]) for i, c in enumerate(cols)},
        )
    return out


def ref_transform(sc: Scaler, df: DataFrame) -> DataFrame:
    """Impute NaN/NULL at the minimum and min-max scale, as one projection."""
    exprs = [_quote(c) for c in df.columns if c not in sc.cols]
    for c in sc.cols:
        lo, span = sc.min[c], sc.max[c] - sc.min[c]
        if span > 0:
            imputed = f"coalesce(nanvl({_quote(c)}, CAST(NULL AS DOUBLE)), {_double(lo)})"
            scaled = f"({imputed} - {_double(lo)}) / {_double(span)}"
        else:
            scaled = _double(0.0)
        exprs.append(f"{scaled} AS {_quote(c)}")
    return df.selectExpr(*exprs)


def ref_scaled_matrices(ds, models) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Model → (ids, X) sorted by (l_id, r_id): ``featurize``'s Spark program
    up to the raw features, then the SQL reference scaler."""
    plan = feature_plan(ds.attributes, ds.attr_types)
    cols = feature_columns(plan)
    pairs = block_models(ds.left, ds.right, ds.blocking_attr, models, ds.attributes)
    raw = compute_features(pairs, plan, ds.attr_types).cache()
    scalers = ref_fit_scalers(raw, cols, models)
    out = {}
    for m in models:
        pdf = ref_transform(scalers[m], raw.where(f"model = '{m}'")).toPandas()
        pdf = pdf.sort_values(["l_id", "r_id"], ignore_index=True)
        out[m] = (pdf[["l_id", "r_id"]].to_numpy(), pdf[cols].to_numpy(dtype=np.float64))
    raw.unpersist()
    return out


def assert_matrices_equal_reference(task, models) -> None:
    """The task holds exactly ``models``, each with the reference's pairs and
    bit-identical scaled features."""
    assert set(task.matrices) == set(models)
    want = ref_scaled_matrices(task.ds, models)
    for m in models:
        ids, X = task.matrices[m]
        np.testing.assert_array_equal(ids, want[m][0], err_msg=m)
        np.testing.assert_array_equal(X.view(np.uint64), want[m][1].view(np.uint64), err_msg=m)


@pytest.fixture(scope="module")
def feat_df(spark):
    pdf = pd.DataFrame(
        {
            "l_id": np.arange(8, dtype="int64"),
            "r_id": np.arange(8, dtype="int64"),
            "f1": [0.0, 0.5, 1.0, 0.25, 0.75, 0.1, 0.9, 0.6],
            "f2": [2.0, 4.0, 6.0, math.nan, 8.0, 10.0, math.nan, 4.0],
            "f3": [3.0] * 8,  # constant feature
        }
    )
    return spark.createDataFrame(pdf)


def test_fit_scaler_stats_ignore_nan(feat_df):
    cols = ["f1", "f2", "f3"]
    sc = Scaler.fit(feature_matrix(feat_df.toArrow(), cols), cols)
    assert sc.min["f1"] == 0.0 and sc.max["f1"] == 1.0
    assert sc.min["f2"] == 2.0 and sc.max["f2"] == 10.0
    assert sc.min["f3"] == sc.max["f3"] == 3.0


def test_transform_range_and_constant(feat_df):
    out = scale_features(feat_df, ["f1", "f2", "f3"]).toPandas()
    assert out["f1"].min() == 0.0 and out["f1"].max() == 1.0
    assert ((out["f1"] >= 0) & (out["f1"] <= 1)).all()
    assert (out["f3"] == 0.0).all()  # constant feature pinned to 0


def test_transform_imputes_missing_at_min(feat_df):
    out = scale_features(feat_df, ["f1", "f2", "f3"]).toPandas().sort_values("l_id")
    # rows 3 and 6 had NaN f2 → imputed at min → scaled 0
    assert out.loc[out.l_id == 3, "f2"].iloc[0] == 0.0
    assert out.loc[out.l_id == 6, "f2"].iloc[0] == 0.0
    assert not out["f2"].isna().any()


def test_transform_oracle_sql(spark, feat_df):
    """Min-max scaling == the equivalent DuckDB window expression."""
    out = scale_features(feat_df, ["f1", "f2"]).select("l_id", "f1", "f2")
    sql = """
    SELECT l_id,
           (f1 - MIN(f1) OVER ()) / (MAX(f1) OVER () - MIN(f1) OVER ()) AS f1,
           (COALESCE(f2, MIN(f2) OVER ()) - MIN(f2) OVER ())
             / (MAX(f2) OVER () - MIN(f2) OVER ()) AS f2
    FROM t
    """
    assert_equivalent(out, sql, t=feat_df)


def test_transform_idempotent(feat_df):
    once = scale_features(feat_df, ["f1"])
    twice = scale_features(once, ["f1"])
    a = once.toPandas().sort_values("l_id")["f1"].to_numpy()
    b = twice.toPandas().sort_values("l_id")["f1"].to_numpy()
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_transform_preserves_key_columns(feat_df):
    out = scale_features(feat_df, ["f1", "f2", "f3"])
    assert set(out.columns) == {"l_id", "r_id", "f1", "f2", "f3"}
    assert out.count() == 8


def test_all_missing_feature_is_constant_zero(spark):
    pdf = pd.DataFrame({"l_id": [0, 1], "r_id": [0, 1], "f": [math.nan, math.nan]})
    out = scale_features(spark.createDataFrame(pdf), ["f"]).toPandas()
    assert (out["f"] == 0.0).all()


def _rows_df(spark, rows):
    # From Python rows, NaN stays NaN and None becomes NULL.
    return spark.createDataFrame(rows, "l_id long, f double, g double, h double")


def test_null_and_nan_both_imputed_at_min(spark):
    df = _rows_df(spark, [(0, 0.2, 1.0, None), (1, None, 1.0, math.nan),
                          (2, math.nan, 1.0, None), (3, 0.6, None, math.nan),
                          (4, 1.0, math.nan, None)])
    assert tuple(df.selectExpr("count_if(isnan(f))", "count_if(f IS NULL)").first()) == (1, 1)
    cols = ["f", "g", "h"]
    sc = Scaler.fit(feature_matrix(df.toArrow(), cols), cols)
    assert (sc.min["f"], sc.max["f"]) == (0.2, 1.0)
    assert sc.min["g"] == sc.max["g"] == 1.0  # constant among present values
    assert sc.min["h"] == sc.max["h"] == 0.0  # all missing: pinned
    out = scale_features(df, cols).toPandas().sort_values("l_id")
    assert out["f"].tolist() == [0.0, 0.0, 0.0, (0.6 - 0.2) / (1.0 - 0.2), 1.0]
    assert out["g"].tolist() == [0.0] * 5
    assert out["h"].tolist() == [0.0] * 5


def test_scaled_values_bit_identical_to_numpy(spark):
    """Statistics that need 17 significant digits survive the transfer: the
    scaled values are the numpy formula's, bit for bit."""
    rng = np.random.default_rng(7)
    digits = lambda v: len(repr(v).lstrip("-0.").replace(".", ""))  # noqa: E731
    x = np.array([v for v in rng.uniform(0.1, 0.9, size=200).tolist() if digits(v) == 17][:40])
    df = _rows_df(spark, [(i, v, -v, None) for i, v in enumerate(x.tolist())])
    out = scale_features(df, ["f", "g"]).toPandas().sort_values("l_id")
    for col, vals in (("f", x), ("g", -x)):
        lo, hi = vals.min(), vals.max()
        np.testing.assert_array_equal(out[col].to_numpy(), (vals - lo) / (hi - lo))


def test_fit_scalers_per_model_equal_single_model_fits(spark, feat_df):
    """A scaler fitted on each model's matrix has the statistics the
    reference's one grouped aggregation gives that model; a model without
    rows has every feature pinned to 0 and scales to a (0, d) matrix."""
    tagged = feat_df.selectExpr("IF(l_id % 3 = 0, 'c', 'r') AS model", "*")
    cols = ["f1", "f2", "f3"]
    want = ref_fit_scalers(tagged, cols, ["c", "l", "r"])
    got = model_matrices(tagged.toArrow(), cols, ["c", "l", "r"])
    for m, (_, X) in got.items():
        assert Scaler.fit(X, cols) == want[m]
        one = tagged.where(f"model = '{m}'")
        assert Scaler.fit(X, cols) == Scaler.fit(feature_matrix(one.toArrow(), cols), cols)
    assert want["l"].min == want["l"].max == {c: 0.0 for c in cols}
    assert Scaler.fit(got["l"][1], cols).transform(got["l"][1]).shape == (0, 3)


def test_scaler_matches_sql_reference_on_random_rows(spark):
    """Random features with NaN, NULL, constant and all-missing columns:
    numpy and the SQL reference agree bit for bit."""
    rng = np.random.default_rng(11)
    n = 300
    vals = rng.uniform(-1.0, 3.0, size=(n, 4))
    vals[rng.uniform(size=(n, 4)) < 0.2] = math.nan
    vals[:, 2] = 0.7
    vals[:, 3] = math.nan
    rows = [
        (i, *[None if (j == 0 and i % 7 == 0) else float(v) for j, v in enumerate(r)])
        for i, r in enumerate(vals.tolist())
    ]
    df = spark.createDataFrame(rows, "l_id long, a double, b double, c double, d double")
    cols = ["a", "b", "c", "d"]
    sc = ref_fit_scalers(df.selectExpr("'' AS model", "*"), cols, [""])[""]
    X = model_matrices(df.selectExpr("'' AS model", "l_id", "0L AS r_id", *cols).toArrow(), cols, [""])[""][1]
    assert Scaler.fit(X, cols) == sc
    want = ref_transform(sc, df).toPandas().sort_values("l_id")[cols].to_numpy(dtype=np.float64)
    np.testing.assert_array_equal(sc.transform(X).view(np.uint64), want.view(np.uint64))


def test_featurize_fz_matches_sql_reference(few_partitions, task_fz):
    """All three models of featurized FZ, scaled on the driver, equal the
    SQL reference bit for bit."""
    assert_matrices_equal_reference(task_fz, ("c", "l", "r"))


def test_featurize_ds_matches_sql_reference(few_partitions, task_ds):
    """Featurized DS (cross model only) equals the SQL reference."""
    assert_matrices_equal_reference(task_ds, ("c",))
