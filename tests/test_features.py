"""Tests for Magellan-style feature generation (repro.textsim.features)."""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.blocking import MODEL_SIDES, block_models
from repro.core.scaling import scale_features
from repro.textsim import (
    compute_features,
    feature_columns,
    feature_plan,
    group_ids,
    pairs_with_attrs,
    sim,
    tokenize,
)
from repro.textsim.features import _KINDS_BY_TYPE, _eval_group
from tests.test_blocking import ref_block_models, ref_cross_block, ref_self_block
from tests.test_sim import ref_jaro, ref_levenshtein

ATTRS = ["name", "phone", "price"]
TYPES = {"name": "short_str", "phone": "phone", "price": "numeric"}


def test_feature_plan_counts():
    plan = feature_plan(ATTRS, TYPES)
    # short_str: 9, phone: 3, numeric: 2
    assert len(plan) == 14
    assert len({f.name for f in plan}) == 14


def test_feature_plan_long_str():
    plan = feature_plan(["d"], {"d": "long_str"})
    assert len(plan) == 6
    assert all("lev" not in f.kind and f.kind != "exm" for f in plan)


def test_group_ids_align_with_attributes():
    plan = feature_plan(ATTRS, TYPES)
    gids = group_ids(plan)
    assert len(gids) == len(plan)
    assert set(gids) == {0, 1, 2}
    for f, g in zip(plan, gids):
        assert ATTRS[g] == f.attr


@pytest.fixture(scope="module")
def small_pair_feats(spark):
    left = spark.createDataFrame(
        pd.DataFrame(
            {
                "_id": pd.array([0, 1, 2], dtype="int64"),
                "name": ["ritz carlton cafe", "patina", None],
                "phone": ["404/237-2700", "213/467-1108", "555/000-1111"],
                "price": [10.0, 20.0, math.nan],
            }
        )
    )
    right = spark.createDataFrame(
        pd.DataFrame(
            {
                "_id": pd.array([0, 1, 2], dtype="int64"),
                "name": ["ritz-carlton cafe", "patina", "anything"],
                "phone": ["404-237-2700", "213-467-1108", None],
                "price": [10.0, 30.0, 5.0],
            }
        )
    )
    pairs = spark.createDataFrame(
        pd.DataFrame({"l_id": pd.array([0, 1, 2], dtype="int64"),
                      "r_id": pd.array([0, 1, 2], dtype="int64")})
    )
    plan = feature_plan(ATTRS, TYPES)
    pa = pairs_with_attrs(pairs, left, right, ATTRS)
    out = compute_features(pa, plan, TYPES).toPandas().sort_values("l_id").reset_index(drop=True)
    return out, plan


def test_pairs_with_attrs_columns(spark, small_pair_feats):
    out, plan = small_pair_feats
    assert list(out.columns) == ["l_id", "r_id"] + feature_columns(plan)


def test_exact_phone_digits_match(small_pair_feats):
    out, _ = small_pair_feats
    # Same digits, different separators → exm_dig = 1 for both real pairs.
    assert out.loc[0, "phone_exm_dig"] == 1.0
    assert out.loc[1, "phone_exm_dig"] == 1.0


def test_identical_name_scores_one(small_pair_feats):
    out, _ = small_pair_feats
    row = out.loc[1]
    for col in ["name_exm", "name_lev_sim", "name_jwn", "name_jac_qgm3", "name_jac_ws"]:
        assert row[col] == 1.0


def test_feature_values_match_direct_kernels(small_pair_feats):
    out, _ = small_pair_feats
    a, b = "ritz carlton cafe", "ritz-carlton cafe"
    assert out.loc[0, "name_lev_sim"] == pytest.approx(sim.lev_sim(a, b))
    assert out.loc[0, "name_jac_qgm3"] == pytest.approx(
        sim.jaccard(tokenize.qgrams(a), tokenize.qgrams(b))
    )
    assert out.loc[0, "name_cos_ws"] == pytest.approx(
        sim.cosine(tokenize.word_tokens(a), tokenize.word_tokens(b))
    )
    assert out.loc[0, "name_exm"] == 0.0


def test_missing_value_yields_nan(small_pair_feats):
    out, _ = small_pair_feats
    row = out.loc[2]  # left name None, right phone None, left price NaN
    assert math.isnan(row["name_jac_qgm3"])
    assert math.isnan(row["phone_exm_dig"])
    assert math.isnan(row["price_rel_sim"])


def test_numeric_features(small_pair_feats):
    out, _ = small_pair_feats
    assert out.loc[0, "price_exm_num"] == 1.0
    assert out.loc[0, "price_rel_sim"] == 1.0
    assert out.loc[1, "price_exm_num"] == 0.0
    assert out.loc[1, "price_rel_sim"] == pytest.approx(1 - 10 / 30)


def test_all_feature_values_in_unit_interval_or_nan(small_pair_feats):
    out, plan = small_pair_feats
    vals = out[feature_columns(plan)].to_numpy(dtype=float)
    ok = np.isnan(vals) | ((vals >= 0.0) & (vals <= 1.0 + 1e-9))
    assert ok.all()


def test_features_on_real_dataset_separate_matches(spark, fz):
    """On the clean FZ dataset, matches must average visibly higher than
    unmatches on the blocking attribute's Jaccard feature."""
    from pyspark.sql import functions as F

    from repro.blocking import cross_block

    plan = feature_plan(fz.attributes, fz.attr_types)
    pairs = cross_block(fz.left, fz.right, fz.blocking_attr)
    pa = pairs_with_attrs(pairs, fz.left, fz.right, fz.attributes)
    feats = compute_features(pa, plan, fz.attr_types)
    truth = fz.matches.withColumn("y", F.lit(1.0))
    col = f"{fz.blocking_attr}_jac_ws"
    stats = (
        feats.join(truth, ["l_id", "r_id"], "left")
        .fillna({"y": 0.0})
        .groupBy("y")
        .agg(F.avg(col).alias("avg_sim"))
        .toPandas()
        .set_index("y")["avg_sim"]
    )
    assert stats[1.0] > stats[0.0] + 0.3


# ------------------------------------------- per-row reference evaluation
_SET_SIMS = {"jac": sim.jaccard, "cos": sim.cosine, "dice": sim.dice, "ovl": sim.overlap_coeff}
_TOKENS = {"qgm3": tokenize.qgrams, "ws": tokenize.word_tokens}


def _missing(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


def ref_value(kind: str, attr_type: str, lv, rv) -> float:
    """One feature of one pair by direct kernel calls: no batch, no dedup."""
    if _missing(lv) or _missing(rv):
        return math.nan
    if attr_type == "numeric":
        a, b = float(lv), float(rv)
        return (1.0 if a == b else 0.0) if kind == "exm_num" else sim.rel_sim(a, b)
    if attr_type == "phone":
        a, b = tokenize.digits(lv), tokenize.digits(rv)
        if kind == "exm_dig":
            return sim.exact(a, b)
        if kind == "lev_dig":
            return sim.lev_sim(a, b)
        return sim.jaccard(tokenize.qgrams(a), tokenize.qgrams(b))
    a, b = tokenize.normalize(lv), tokenize.normalize(rv)
    if kind == "exm":
        return sim.exact(a, b)
    if kind == "lev_sim":
        return sim.lev_sim(a, b)
    if kind == "jwn":
        return sim.jaro_winkler(a, b)
    set_sim, tok = kind.split("_")
    return _SET_SIMS[set_sim](_TOKENS[tok](a), _TOKENS[tok](b))


@pytest.mark.parametrize(
    "attr_type,values",
    [
        ("short_str", ["ritz carlton cafe", "Ritz-Carlton Cafe", "patina", "", None, math.nan]),
        ("long_str", ["the quick brown fox", "quick brown the fox", "fox", None]),
        ("phone", ["404/237-2700", "404-237-2700", "213/467-1108", "n/a", None]),
        ("numeric", [10.0, 30.0, 0.0, -0.0, "12", "not a number", math.nan, None]),
    ],
)
def test_eval_group_dedup_equals_per_row_kernels(attr_type, values):
    """Repeated, swapped-order and missing value pairs in one batch give
    exactly what per-row kernel calls give."""
    kinds = _KINDS_BY_TYPE[attr_type]
    base = [(a, b) for a in values for b in values]
    rows = base + [(b, a) for a, b in base] + base[::3]
    lcol = pd.Series([a for a, _ in rows], dtype=object)
    rcol = pd.Series([b for _, b in rows], dtype=object)
    got = _eval_group(kinds, attr_type, lcol, rcol)
    if attr_type == "numeric":  # the batch coerces non-numbers to NaN
        rows = [tuple(pd.to_numeric(pd.Series(p, dtype=object), errors="coerce")) for p in rows]
    for k in kinds:
        want = [ref_value(k, attr_type, a, b) for a, b in rows]
        np.testing.assert_array_equal(got[k], np.asarray(want, dtype=np.float64), err_msg=k)


@pytest.fixture(scope="module")
def ds_small(spark):
    from repro.erdata import dblp_scholar

    return dblp_scholar(spark, scale=0.04)


@pytest.mark.parametrize("name", ["fz", "ds_small"])
def test_compute_features_equal_reference_kernels(spark, request, monkeypatch, name):
    """Every feature of every cross pair equals per-row evaluation with the
    naive Levenshtein DP and the index-loop Jaro, NULLs included."""
    from repro.blocking import cross_block

    ds = request.getfixturevalue(name)
    plan = feature_plan(ds.attributes, ds.attr_types)
    pairs = cross_block(ds.left, ds.right, ds.blocking_attr)
    # Values do not depend on partitioning; two partitions keep the Python
    # task count (about 80 ms each) low while still splitting the batches.
    pa = pairs_with_attrs(pairs, ds.left, ds.right, ds.attributes).coalesce(2).cache()
    keys = ["l_id", "r_id"]
    rows = pa.toPandas().sort_values(keys, ignore_index=True)
    got = compute_features(pa, plan, ds.attr_types).toPandas().sort_values(keys, ignore_index=True)
    pa.unpersist()
    assert len(rows) > 0 and (got[keys].to_numpy() == rows[keys].to_numpy()).all()
    monkeypatch.setattr(sim, "levenshtein", ref_levenshtein)
    monkeypatch.setattr(sim, "jaro", ref_jaro)
    for f in plan:
        t = ds.attr_types[f.attr]
        want = [ref_value(f.kind, t, lv, rv) for lv, rv in zip(rows[f"l_{f.attr}"], rows[f"r_{f.attr}"])]
        np.testing.assert_array_equal(got[f.name].to_numpy(), np.asarray(want, dtype=np.float64), err_msg=f.name)


# ------------------------------------- the tagged program vs per-model chains
def ref_pairs_with_attrs(pairs, left, right, attributes):
    """One model's own pair ⋈ attributes: two joins against its two tables."""
    lsel = left.select(
        F.col("_id").alias("l_id"), *[F.col(a).alias(f"l_{a}") for a in attributes]
    )
    rsel = right.select(
        F.col("_id").alias("r_id"), *[F.col(a).alias(f"r_{a}") for a in attributes]
    )
    return pairs.select("l_id", "r_id").join(lsel, "l_id").join(rsel, "r_id")


def ref_model_frames(ds, models):
    """Model → scaled features from that model's own chain: its blocking, its
    attribute join, its kernel pass and its own ``scale_features``."""
    plan = feature_plan(ds.attributes, ds.attr_types)
    chains = {  # built on demand: the reference blockings count their tables eagerly
        "c": lambda: (ref_cross_block(ds.left, ds.right, ds.blocking_attr), ds.left, ds.right),
        "l": lambda: (ref_self_block(ds.left, ds.blocking_attr), ds.left, ds.left),
        "r": lambda: (ref_self_block(ds.right, ds.blocking_attr), ds.right, ds.right),
    }
    out = {}
    for m in models:
        pairs, lt, rt = chains[m]()
        raw = compute_features(ref_pairs_with_attrs(pairs, lt, rt, ds.attributes), plan, ds.attr_types)
        out[m] = scale_features(raw, feature_columns(plan))
    return out


def sorted_matrix(df, cols):
    pdf = df.select("l_id", "r_id", *cols).toPandas().sort_values(["l_id", "r_id"], ignore_index=True)
    return pdf[["l_id", "r_id"]].to_numpy(), pdf[cols].to_numpy(dtype=np.float64)


def assert_task_equals_reference(task, models):
    want = ref_model_frames(task.ds, models)
    frames = {"c": task.cross, "l": task.left, "r": task.right}
    for m in models:
        ids, X = sorted_matrix(frames[m], task.cols)
        ref_ids, ref_X = sorted_matrix(want[m], task.cols)
        np.testing.assert_array_equal(ids, ref_ids, err_msg=m)
        np.testing.assert_array_equal(X, ref_X, err_msg=m)  # bit-identical


def test_featurize_equals_per_model_chains(few_partitions, task_fz):
    """All three models of the one tagged program: the same pairs and
    bit-identical scaled features as each model's own chain."""
    assert_task_equals_reference(task_fz, ("c", "l", "r"))


def test_featurize_cross_only_equals_reference(few_partitions, task_ds):
    """``include_intra=False`` builds the cross model alone."""
    assert task_ds.left is None and task_ds.right is None
    assert set(task_ds.matrices) == {"c"}
    assert_task_equals_reference(task_ds, ("c",))


def test_featurize_single_tuple_table(spark, few_partitions, fz):
    """A one-tuple T has no intra pairs: its model is empty, while the cross
    and T' models still equal their own chains."""
    import dataclasses

    from repro.core.zeroer import featurize

    ds = dataclasses.replace(fz, left=fz.left.where("_id = 0"))
    task = featurize(spark, ds, include_intra=True)
    assert task.left.count() == 0 and task.left.columns == task.cross.columns
    assert task.left.dtypes == task.cross.dtypes
    assert task.left.dtypes[:3] == [("l_id", "bigint"), ("r_id", "bigint"), (task.cols[0], "double")]
    assert_task_equals_reference(task, ("c", "r"))
    assert_matrices_equal_views(task)
    task.unpersist()


def assert_matrices_equal_views(task):
    """The task's matrices are :meth:`NumpyBackend.from_spark` of its own
    DataFrame views, bit for bit."""
    from repro.core.em import NumpyBackend

    views = {m: df for m, df in (("c", task.cross), ("l", task.left), ("r", task.right)) if df is not None}
    got = NumpyBackend.from_spark(views, task.cols)
    assert set(got) == set(task.matrices)
    for m, (ids, X) in task.matrices.items():
        np.testing.assert_array_equal(got[m].ids, ids, err_msg=m)
        np.testing.assert_array_equal(got[m].X.view(np.uint64), X.view(np.uint64), err_msg=m)


def test_featurize_matrices_equal_from_spark_of_views(task_fz, task_ds):
    """``featurize`` and ``from_spark`` share one Arrow-to-matrices split:
    collecting a task's views gives back the matrices it holds."""
    assert_matrices_equal_views(task_fz)
    assert_matrices_equal_views(task_ds)


def test_pairs_with_attrs_equals_reference(spark, few_partitions, fz):
    """The single-model entry point: same rows as two joins against the two
    tables, whatever their order, and ``l_id, r_id`` lead the columns."""
    from repro.blocking import cross_block

    pairs = cross_block(fz.left, fz.right, fz.blocking_attr)
    got = pairs_with_attrs(pairs, fz.left, fz.right, fz.attributes)
    assert got.columns[:2] == ["l_id", "r_id"]
    want = ref_pairs_with_attrs(pairs, fz.left, fz.right, fz.attributes)
    cols = sorted(got.columns)
    a = got.select(cols).toPandas().sort_values(["l_id", "r_id"], ignore_index=True)
    b = want.select(cols).toPandas().sort_values(["l_id", "r_id"], ignore_index=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


# ------------------------------- blocking that carries the attributes vs the
# model-tagged pairs joined with a side-tagged attribute table
def ref_model_pairs_with_attrs(pairs, left, right, attributes):
    """Join model-tagged (model, l_id, r_id) pairs with their records'
    attributes: each model reads its ids from the sides ``MODEL_SIDES`` gives
    it, against one side-tagged attribute table, in one pair of joins."""
    cols = [f"`{a}`" for a in attributes]
    attrs = left.selectExpr("0 AS side", "_id", *cols).unionAll(
        right.selectExpr("1 AS side", "_id", *cols)
    )

    def named(p):
        return attrs.selectExpr(
            f"side AS {p}_side", f"_id AS {p}_id", *[f"`{a}` AS `{p}_{a}`" for a in attributes]
        )

    def side(j):
        return "CASE model " + " ".join(
            f"WHEN '{m}' THEN {s[j]}" for m, s in MODEL_SIDES.items()
        ) + " END"

    tagged = pairs.selectExpr(
        "model", "l_id", "r_id", f"{side(0)} AS l_side", f"{side(1)} AS r_side"
    )
    return (
        tagged.join(named("l"), ["l_side", "l_id"])
        .join(named("r"), ["r_side", "r_id"])
        .selectExpr(
            "model", "l_id", "r_id",
            *[f"`l_{a}`" for a in attributes], *[f"`r_{a}`" for a in attributes],
        )
    )


def assert_block_models_equal_reference(left, right, attr, models, attributes, **kw) -> pd.DataFrame:
    """``block_models`` with attributes gives the reference's rows: the same
    columns and types, the same (model, l_id, r_id) pairs and the same
    attribute values, NULLs included. Returns its rows, sorted."""
    got = block_models(left, right, attr, models, attributes, **kw)
    pairs = ref_block_models(left, right, attr, models, **kw)
    want = ref_model_pairs_with_attrs(pairs, left, right, attributes)
    assert got.dtypes == want.dtypes
    keys = ["model", "l_id", "r_id"]
    a = got.toPandas().sort_values(keys, ignore_index=True)
    b = want.toPandas().sort_values(keys, ignore_index=True)
    pd.testing.assert_frame_equal(a, b)
    return a


@pytest.mark.parametrize("name", ["fz", "ds_dirty", "ag_small"])
def test_block_models_with_attributes_equal_reference(spark, request, few_partitions, name):
    ds = request.getfixturevalue(name)
    for max_df_frac in (0.05, 1.0):
        for min_overlap in (1, 2):
            kw = dict(max_df_frac=max_df_frac, min_overlap=min_overlap)
            rows = assert_block_models_equal_reference(
                ds.left, ds.right, ds.blocking_attr, ("c", "l", "r"), ds.attributes, **kw
            )
            assert set(rows.model) == {"c", "l", "r"}, kw


def _table(spark, names, **extra):
    pdf = pd.DataFrame({"_id": pd.array(range(len(names)), dtype="int64"), "name": names, **extra})
    return spark.createDataFrame(pdf)


def test_block_models_repeated_token_counts_once(spark, few_partitions):
    """A token repeated inside one value counts once: in the document
    frequency (12 + 8 = 20 records is at the cap of 20, where 48
    occurrences would make "x" a stop-token) and in the overlap."""
    left = _table(spark, [f"x x l{i}" for i in range(12)])
    right = _table(spark, [f"x x x r{i}" for i in range(8)])
    rows = assert_block_models_equal_reference(left, right, "name", ("c",), ["name"])
    assert len(rows) == 12 * 8
    rows = assert_block_models_equal_reference(left, right, "name", ("c",), ["name"], min_overlap=2)
    assert len(rows) == 0


def test_block_models_null_blocking_value_counts_in_size(spark, few_partitions):
    """A record whose blocking value is NULL gets no pairs but counts in |T|:
    the 30 NULL records lift the cross cap to 0.5 · (41 + 11) = 26, so "k"
    (df 22) stays rare; without them the cap would be max(20, 11) = 20."""
    left = _table(spark, [f"k l{i}" for i in range(11)] + [None] * 30)
    right = _table(spark, [f"k r{i}" for i in range(11)])
    rows = assert_block_models_equal_reference(
        left, right, "name", ("c", "l"), ["name"], max_df_frac=0.5
    )
    assert len(rows[rows.model == "c"]) == 11 * 11
    assert rows.l_id.max() < 11 and rows.r_id.max() < 11
    assert len(rows[rows.model == "l"]) == 11 * 10 // 2  # 2 · 11 = 22 ≤ 0.5 · 82


def test_block_models_null_and_numeric_attributes(spark, few_partitions):
    """A NULL non-blocking attribute comes through as NULL, and a numeric
    attribute keeps its ``double`` type (NaN included)."""
    left = _table(
        spark, ["ab cd", "ab ef", "gh"],
        city=["x", None, "y"], price=[1.5, math.nan, 3.0],
    )
    right = _table(spark, ["ab", "gh ij"], city=[None, "z"], price=[2.0, 4.0])
    rows = assert_block_models_equal_reference(
        left, right, "name", ("c", "l", "r"), ["name", "city", "price"]
    )
    got = block_models(left, right, "name", ("c",), ["name", "city", "price"])
    assert dict(got.dtypes)["l_price"] == "double" and dict(got.dtypes)["r_price"] == "double"
    row = rows[(rows.model == "c") & (rows.l_id == 1) & (rows.r_id == 0)].iloc[0]
    assert row.l_city is None and row.r_city is None
    assert math.isnan(row.l_price) and row.r_price == 2.0
    assert set(zip(rows.model, rows.l_id, rows.r_id)) == {
        ("c", 0, 0), ("c", 1, 0), ("c", 2, 1), ("l", 0, 1),
    }


def test_block_models_subset_with_empty_model(spark, few_partitions):
    """Asking for a model that has no pairs (T's values share no token)
    gives the other models' rows and keeps every column."""
    left = _table(spark, ["ab", "cd", "ef"], price=[1.0, 2.0, 3.0])
    right = _table(spark, ["ab cd", "cd", "ef ab"], price=[4.0, 5.0, 6.0])
    for models in (("c", "l"), ("l",), ("l", "r")):
        rows = assert_block_models_equal_reference(left, right, "name", models, ["price"])
        assert "l" not in set(rows.model)
        assert list(rows.columns) == ["model", "l_id", "r_id", "l_price", "r_price"]
    assert set(zip(rows.l_id, rows.r_id)) == {(0, 1), (0, 2)}  # T' shares "cd", "ab"
