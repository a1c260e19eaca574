"""Tests for precision/recall/F1 evaluation (repro.eval)."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.eval import PRF, evaluate
from repro.oracle import assert_equivalent


def pairs_df(spark, rows):
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["l_id", "r_id"]).astype("int64"),
        schema="l_id long, r_id long",
    )


def test_prf_arithmetic():
    prf = PRF(tp=8, fp=2, fn=4)
    assert prf.precision == pytest.approx(0.8)
    assert prf.recall == pytest.approx(8 / 12)
    assert prf.f1 == pytest.approx(2 * 0.8 * (8 / 12) / (0.8 + 8 / 12))


def test_prf_degenerate_zero():
    assert PRF(0, 0, 0).f1 == 0.0
    assert PRF(0, 5, 0).precision == 0.0
    assert PRF(0, 0, 5).recall == 0.0


def test_evaluate_exact(spark):
    pred = pairs_df(spark, [(1, 1), (2, 2), (3, 9)])
    truth = pairs_df(spark, [(1, 1), (2, 2), (4, 4)])
    prf = evaluate(pred, truth)
    assert (prf.tp, prf.fp, prf.fn) == (2, 1, 1)


def test_evaluate_deduplicates(spark):
    pred = pairs_df(spark, [(1, 1), (1, 1)])
    truth = pairs_df(spark, [(1, 1)])
    prf = evaluate(pred, truth)
    assert (prf.tp, prf.fp, prf.fn) == (1, 0, 0)
    assert prf.f1 == 1.0


def test_evaluate_restricted_universe(spark):
    pred = pairs_df(spark, [(1, 1), (2, 2)])
    truth = pairs_df(spark, [(1, 1), (3, 3)])
    uni = pairs_df(spark, [(1, 1), (3, 3)])
    prf = evaluate(pred, truth, restrict_to=uni)
    # (2,2) outside universe: not counted as FP; (3,3) missed → FN.
    assert (prf.tp, prf.fp, prf.fn) == (1, 0, 1)


def test_evaluate_empty_prediction(spark):
    pred = pairs_df(spark, [])
    truth = pairs_df(spark, [(1, 1)])
    prf = evaluate(pred, truth)
    assert prf.f1 == 0.0 and prf.fn == 1


def test_evaluate_oracle_counts(spark):
    """TP count == DuckDB inner-join count over the same pair sets."""
    pred = pairs_df(spark, [(i, i) for i in range(20)] + [(1, 5), (2, 7)])
    truth = pairs_df(spark, [(i, i) for i in range(5, 30)])
    prf = evaluate(pred, truth)
    got = spark.createDataFrame(pd.DataFrame({"tp": [prf.tp], "np": [prf.tp + prf.fp], "nt": [prf.tp + prf.fn]}))
    sql = """
    SELECT
      (SELECT COUNT(*) FROM (SELECT DISTINCT * FROM pred INTERSECT SELECT DISTINCT * FROM truth)) AS tp,
      (SELECT COUNT(*) FROM (SELECT DISTINCT * FROM pred)) AS np,
      (SELECT COUNT(*) FROM (SELECT DISTINCT * FROM truth)) AS nt
    """
    assert_equivalent(got, sql, pred=pred, truth=truth)


def test_evaluate_duplicates_both_sides_restricted(spark):
    """Duplicates in prediction, truth and universe count once; pairs outside
    the universe count nowhere."""
    pred = pairs_df(spark, [(1, 1), (1, 1), (2, 2), (2, 2), (5, 5), (6, 6)])
    truth = pairs_df(spark, [(1, 1), (1, 1), (3, 3), (3, 3), (6, 6), (7, 7)])
    uni = pairs_df(spark, [(1, 1), (1, 1), (2, 2), (3, 3), (3, 3), (7, 7)])
    prf = evaluate(pred, truth, restrict_to=uni)
    # In the universe: predicted {(1,1), (2,2)}, true {(1,1), (3,3), (7,7)}.
    assert (prf.tp, prf.fp, prf.fn) == (1, 1, 2)


def test_evaluate_empty_truth(spark):
    pred = pairs_df(spark, [(1, 1), (2, 2), (2, 2)])
    truth = pairs_df(spark, [])
    prf = evaluate(pred, truth)
    assert (prf.tp, prf.fp, prf.fn) == (0, 2, 0)
    assert prf.recall == 0.0 and prf.f1 == 0.0
