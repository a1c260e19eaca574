"""Oracle + property tests for min-imputation + min-max scaling (repro.core.scaling)."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest

from repro.core.scaling import fit_scaler, fit_scalers, scale_features
from repro.oracle import assert_equivalent


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
    sc = fit_scaler(feat_df, ["f1", "f2", "f3"])
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
    sc = fit_scaler(df, ["f", "g", "h"])
    assert (sc.min["f"], sc.max["f"]) == (0.2, 1.0)
    assert sc.min["g"] == sc.max["g"] == 1.0  # constant among present values
    assert sc.min["h"] == sc.max["h"] == 0.0  # all missing: pinned
    out = sc.transform(df).toPandas().sort_values("l_id")
    assert out["f"].tolist() == [0.0, 0.0, 0.0, (0.6 - 0.2) / (1.0 - 0.2), 1.0]
    assert out["g"].tolist() == [0.0] * 5
    assert out["h"].tolist() == [0.0] * 5


def test_scaled_values_bit_identical_to_numpy(spark):
    """Statistics that need 17 significant digits survive the SQL literals."""
    rng = np.random.default_rng(7)
    digits = lambda v: len(repr(v).lstrip("-0.").replace(".", ""))  # noqa: E731
    x = np.array([v for v in rng.uniform(0.1, 0.9, size=200).tolist() if digits(v) == 17][:40])
    df = _rows_df(spark, [(i, v, -v, None) for i, v in enumerate(x.tolist())])
    out = scale_features(df, ["f", "g"]).toPandas().sort_values("l_id")
    for col, vals in (("f", x), ("g", -x)):
        lo, hi = vals.min(), vals.max()
        np.testing.assert_array_equal(out[col].to_numpy(), (vals - lo) / (hi - lo))


def test_fit_scalers_per_model_equal_single_model_fits(spark, feat_df):
    """One grouped pass gives each model the statistics a fit over its own
    rows gives; a model without rows has every feature pinned to 0."""
    tagged = feat_df.selectExpr("IF(l_id % 3 = 0, 'c', 'r') AS model", "*")
    cols = ["f1", "f2", "f3"]
    got = fit_scalers(tagged, cols, ["c", "l", "r"])
    for m in ("c", "r"):
        assert got[m] == fit_scaler(feat_df.where(f"IF(l_id % 3 = 0, 'c', 'r') = '{m}'"), cols)
    assert got["l"].min == got["l"].max == {c: 0.0 for c in cols}
    empty = tagged.where("model = 'l'")
    out = got["l"].transform(empty)
    assert out.count() == 0 and out.columns == tagged.columns
