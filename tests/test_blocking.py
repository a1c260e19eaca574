"""Oracle tests for token blocking: the Spark statement must equal the
equivalent relational query run by DuckDB, and the model-tagged statement must
give every model the pairs of the reference dataflows below: one chain per
model, and the model-tagged DataFrame program it replaced."""
from __future__ import annotations

import functools
import math

import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking import MODEL_SIDES, block_models, cross_block, self_block
from repro.blocking.token_blocking import _sizes
from repro.oracle import assert_equivalent


# ------------------------------------------------------- reference dataflows
def _tokens(df: DataFrame, attr: str) -> DataFrame:
    """Distinct (<df's other columns>, token) rows of lowercase word tokens."""
    keys = [c for c in df.columns if c != attr]
    split = f"explode(split(lower(CAST(`{attr}` AS STRING)), '[^a-z0-9]+')) AS token"
    return df.selectExpr(*keys, split).where("token != ''").distinct()


def token_table(df: DataFrame, attr: str, id_alias: str) -> DataFrame:
    """(_id, attr) → distinct (id_alias, token) rows of lowercase word tokens."""
    return _tokens(df.selectExpr(f"_id AS {id_alias}", f"`{attr}`"), attr)


def ref_block_models(left, right, attr, models, *, max_df_frac=0.05, min_overlap=1) -> DataFrame:
    """Candidate (model, l_id, r_id) pairs as a DataFrame program: one
    side-tagged token table, one ``groupBy(token)`` for (df_T, df_T'), the
    token rows joined back onto it, one self-join on ``token`` and one
    ``groupBy(model, l_id, r_id)``."""
    tables = (left, right)
    sides = sorted({s for m in models for s in MODEL_SIDES[m]})
    size = dict(zip(sides, _sizes([tables[s] for s in sides])))
    recs = functools.reduce(
        DataFrame.unionAll,
        [tables[s].selectExpr(f"{s} AS side", "_id AS id", f"`{attr}`") for s in sides],
    )
    tokens = _tokens(recs, attr)
    dfs = tokens.groupBy("token").agg(
        F.expr("count_if(side = 0) AS df0"), F.expr("count_if(side = 1) AS df1")
    )

    def rare(m: str) -> str:
        a, b = MODEL_SIDES[m]
        cap = math.floor(max(20.0, max_df_frac * (size[a] + size[b])))
        return f"df{a} + df{b} <= {cap}"

    keep = " OR ".join(f"(side IN {MODEL_SIDES[m]} AND {rare(m)})" for m in models)
    rows = tokens.join(dfs, "token").where(keep)
    a = rows.selectExpr("token", "side AS sa", "id AS l_id", "df0", "df1")
    b = rows.selectExpr("token", "side AS sb", "id AS r_id")

    def pair(m: str) -> str:
        sa, sb = MODEL_SIDES[m]
        within = " AND l_id < r_id" if sa == sb else ""
        return f"(sa = {sa} AND sb = {sb} AND {rare(m)}{within})"

    model = "CASE " + " ".join(
        f"WHEN sa = {sa} AND sb = {sb} THEN '{m}'" for m, (sa, sb) in MODEL_SIDES.items()
    ) + " END AS model"
    return (
        a.join(b, "token")
        .where(" OR ".join(pair(m) for m in models))
        .selectExpr(model, "l_id", "r_id")
        .groupBy("model", "l_id", "r_id")
        .count()
        .where(f"count >= {int(min_overlap)}")
        .select("model", "l_id", "r_id")
    )


def _ref_rare_tokens(lt: DataFrame, rt: DataFrame, n_records: int, max_df_frac: float) -> DataFrame:
    cap = max(20.0, max_df_frac * n_records)
    df_counts = lt.select("token").unionAll(rt.select("token")).groupBy("token").count()
    return df_counts.where(F.col("count") <= F.lit(cap)).select("token")


def ref_cross_block(left, right, attr, *, max_df_frac=0.05, min_overlap=1) -> DataFrame:
    """The cross model's own chain: stop-tokens by df_T + df_T' over |T| + |T'|."""
    lt = token_table(left, attr, "l_id")
    rt = token_table(right, attr, "r_id")
    rare = _ref_rare_tokens(lt, rt, left.count() + right.count(), max_df_frac)
    lt = lt.join(rare, "token")
    rt = rt.join(rare, "token")
    return (
        lt.join(rt, "token")
        .groupBy("l_id", "r_id")
        .agg(F.count("*").alias("n_shared"))
        .where(F.col("n_shared") >= F.lit(min_overlap))
        .select("l_id", "r_id")
    )


def ref_self_block(table, attr, *, max_df_frac=0.05, min_overlap=1) -> DataFrame:
    """An intra model's own chain: the table joined with a copy of itself."""
    lt = token_table(table, attr, "l_id")
    rt = lt.select(F.col("l_id").alias("r_id"), "token")
    rare = _ref_rare_tokens(lt, rt, 2 * table.count(), max_df_frac)
    lt = lt.join(rare, "token")
    rt = rt.join(rare, "token")
    return (
        lt.join(rt, "token")
        .where(F.col("l_id") < F.col("r_id"))
        .groupBy("l_id", "r_id")
        .agg(F.count("*").alias("n_shared"))
        .where(F.col("n_shared") >= F.lit(min_overlap))
        .select("l_id", "r_id")
    )


def ref_blocks(left, right, attr, **kw) -> dict[str, set]:
    """Model → candidate pair set, each model from its own reference chain
    (collected together)."""
    frames = {
        "c": ref_cross_block(left, right, attr, **kw),
        "l": ref_self_block(left, attr, **kw),
        "r": ref_self_block(right, attr, **kw),
    }
    tagged = [df.select(F.lit(m).alias("model"), "l_id", "r_id") for m, df in frames.items()]
    return model_sets(tagged[0].unionAll(tagged[1]).unionAll(tagged[2]))


def model_sets(pairs: DataFrame, models=("c", "l", "r")) -> dict[str, set]:
    pdf = pairs.toPandas()
    return {
        m: set(map(tuple, pdf.loc[pdf.model == m, ["l_id", "r_id"]].to_numpy().tolist()))
        for m in models
    }


@pytest.fixture(scope="module")
def tables(spark):
    left = spark.createDataFrame(
        pd.DataFrame(
            {
                "_id": pd.array([0, 1, 2, 3], dtype="int64"),
                "name": ["alpha beta", "beta gamma", "delta", "omega alpha beta"],
            }
        )
    )
    right = spark.createDataFrame(
        pd.DataFrame(
            {
                "_id": pd.array([0, 1, 2], dtype="int64"),
                "name": ["beta delta", "ALPHA!", None],
            }
        )
    )
    return left, right


def test_token_table_normalizes(spark, tables):
    """Case and punctuation normalize to shared tokens: "ALPHA!" pairs with
    the two T records that hold "alpha", and "alpha beta" with the T records
    sharing either word."""
    left, right = tables
    got = model_sets(block_models(left, right, "name", ("c", "l"), max_df_frac=1.0), ("c", "l"))
    assert {l for l, r in got["c"] if r == 1} == {0, 3}
    assert {r for l, r in got["l"] if l == 0} == {1, 3}


def test_token_table_handles_null(spark, tables):
    """A NULL blocking value yields no tokens, so no pairs."""
    left, right = tables
    got = model_sets(block_models(left, right, "name", ("c",), max_df_frac=1.0), ("c",))
    assert got["c"] and not any(r == 2 for _, r in got["c"])


def test_cross_block_oracle(spark, tables):
    """cross_block == DuckDB distinct token join (no stop tokens at this df)."""
    left, right = tables
    pairs = cross_block(left, right, "name", max_df_frac=1.0)
    lt = token_table(left, "name", "l_id")
    rt = token_table(right, "name", "r_id")
    sql = """
    SELECT DISTINCT lt.l_id AS l_id, rt.r_id AS r_id
    FROM lt JOIN rt USING (token)
    """
    assert_equivalent(pairs, sql, lt=lt, rt=rt)


def test_cross_block_min_overlap(spark, tables):
    left, right = tables
    p1 = cross_block(left, right, "name", max_df_frac=1.0, min_overlap=1).toPandas()
    p2 = cross_block(left, right, "name", max_df_frac=1.0, min_overlap=2).toPandas()
    # "beta delta" shares 0 tokens twice with anything except nothing here;
    # higher overlap requirement prunes pairs monotonically.
    assert len(p2) <= len(p1)
    assert set(map(tuple, p2.to_numpy())) <= set(map(tuple, p1.to_numpy()))


def test_cross_block_pairs_share_a_token(spark, tables):
    left, right = tables
    pairs = cross_block(left, right, "name", max_df_frac=1.0).toPandas()
    lp = tables[0].toPandas().set_index("_id")
    rp = tables[1].toPandas().set_index("_id")
    for l, r in pairs.to_numpy():
        ltoks = set(str(lp.loc[l, "name"]).lower().replace("!", "").split())
        rtoks = set(str(rp.loc[r, "name"] or "").lower().replace("!", "").split())
        assert ltoks & rtoks


def test_self_block_ordered_pairs(spark, tables):
    left, _ = tables
    pairs = self_block(left, "name", max_df_frac=1.0).toPandas()
    assert (pairs.l_id < pairs.r_id).all()
    got = set(map(tuple, pairs.to_numpy()))
    # alpha: {0,3}; beta: {0,1,3}
    assert got == {(0, 1), (0, 3), (1, 3)}


def test_self_block_oracle(spark, tables):
    left, _ = tables
    pairs = self_block(left, "name", max_df_frac=1.0)
    lt = token_table(left, "name", "l_id")
    sql = """
    SELECT DISTINCT a.l_id AS l_id, b.l_id AS r_id
    FROM lt a JOIN lt b USING (token)
    WHERE a.l_id < b.l_id
    """
    assert_equivalent(pairs, sql, lt=lt)


def test_blocking_recall_on_dataset(spark, fz):
    """On the clean FZ dataset, token blocking must keep ≥95% of matches."""
    pairs = cross_block(fz.left, fz.right, fz.blocking_attr)
    kept = pairs.join(fz.matches, ["l_id", "r_id"]).count()
    total = fz.matches.count()
    assert kept >= 0.95 * total


def test_stop_token_cap_prunes(spark):
    """A token in (almost) every record is a stop token and creates no pairs
    once the corpus is big enough to exceed the absolute floor of the cap."""
    n = 60
    left = spark.createDataFrame(
        pd.DataFrame({"_id": pd.array(range(n), dtype="int64"),
                      "name": [f"common word{i}" for i in range(n)]})
    )
    right = spark.createDataFrame(
        pd.DataFrame({"_id": pd.array(range(n), dtype="int64"),
                      "name": [f"common other{i}" for i in range(n)]})
    )
    pairs = cross_block(left, right, "name", max_df_frac=0.05)
    assert pairs.count() == 0  # "common" alone would give n² pairs


@pytest.mark.parametrize("name", ["fz", "ds_dirty", "ag_small"])
def test_block_models_equal_per_model_reference(spark, request, few_partitions, name):
    """Every model's candidate set from the one tagged program equals its own
    reference chain."""
    ds = request.getfixturevalue(name)
    for max_df_frac in (0.05, 1.0):
        for min_overlap in (1, 2):
            kw = dict(max_df_frac=max_df_frac, min_overlap=min_overlap)
            want = ref_blocks(ds.left, ds.right, ds.blocking_attr, **kw)
            got = model_sets(block_models(ds.left, ds.right, ds.blocking_attr, ("c", "l", "r"), **kw))
            assert got == want, kw
            assert all(want.values()), kw


@pytest.fixture(scope="module")
def rule_tables(spark):
    """Tokens whose stop-token status differs between the three models (caps
    at the floor of 20: 30 + 30 records, f = 0.05).

    - ``y`` in 9 T and 9 T' records: rare for all three (18, 18, 18 ≤ 20).
    - ``z`` in 1 T and 11 T' records: rare across the tables (1 + 11 = 12)
      but a stop-token inside T' alone (2 · 11 = 22).
    - ``w`` in 15 T and 6 T' records: a stop-token for cross (21) and left
      (30), rare for right (12).
    """
    def table(side, y, z, w, n=30):
        names = [
            " ".join(t for t, hit in (("y", i < y), ("z", i >= n - z), ("w", y <= i < y + w)) if hit)
            + f" {side}{i}"
            for i in range(n)
        ]
        return spark.createDataFrame(
            pd.DataFrame({"_id": pd.array(range(n), dtype="int64"), "name": names})
        )

    return table("a", 9, 1, 15), table("b", 9, 11, 6)


def test_block_models_stop_token_rule_per_model(spark, few_partitions, rule_tables):
    left, right = rule_tables
    want = ref_blocks(left, right, "name")
    got = model_sets(block_models(left, right, "name", ("c", "l", "r")))
    assert got == want
    lp, rp = left.toPandas(), right.toPandas()
    has = lambda pdf, t: set(pdf.loc[pdf.name.str.split().map(lambda x: t in x), "_id"])  # noqa: E731
    z_cross = {(a, b) for a in has(lp, "z") for b in has(rp, "z")}
    assert len(z_cross) == 11 and z_cross <= got["c"]  # z is rare across the tables
    z_right = {(a, b) for a in has(rp, "z") for b in has(rp, "z") if a < b}
    assert not z_right & got["r"]  # ... but a stop-token inside T'
    w_right = {(a, b) for a in has(rp, "w") for b in has(rp, "w") if a < b}
    assert len(w_right) == 15 and w_right <= got["r"]
    w_left = {(a, b) for a in has(lp, "w") for b in has(lp, "w") if a < b}
    assert not w_left & got["l"]
    assert (len(got["c"]), len(got["l"]), len(got["r"])) == (81 + 11, 36, 36 + 15)


def test_block_models_subsets(spark, few_partitions, rule_tables):
    """Asking for a subset of the models gives exactly those models' pairs."""
    left, right = rule_tables
    full = model_sets(block_models(left, right, "name", ("c", "l", "r")))
    for models in (("c",), ("l",), ("r",), ("l", "r")):
        pairs = block_models(left, right, "name", models).toPandas()
        assert set(pairs.model) <= set(models)
        assert model_sets(block_models(left, right, "name", models), models) == {
            m: full[m] for m in models
        }
    got = set(map(tuple, self_block(right, "name").toPandas().to_numpy().tolist()))
    assert got == full["r"]
