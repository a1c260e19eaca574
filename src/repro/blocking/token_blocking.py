"""Shared-rare-token blocking as a pure Spark dataflow.

Two records become a candidate pair iff their blocking attribute shares at
least ``min_overlap`` word tokens that are not stop-tokens. ``min_overlap``
is the aggressiveness knob that stands in for the paper's LSH "overlapping
size" sweep: higher values prune more pairs at the risk of losing matches.

ZeroER's three linked models pair two sides each (:data:`MODEL_SIDES`, side 0
is T and side 1 is T'): cross T×T', left T×T and right T'×T'. A token is a
stop-token for a model when its document frequency over the model's two sides,
df_a + df_b, exceeds ``max(20, max_df_frac · (|a| + |b|))``. So the cross
model caps df_T + df_T' at f·(|T| + |T'|), and the left model caps 2·df_T at
f·2|T| (a self-join counts each record on both sides).

:func:`block_models` builds the pairs of any set of models as one Spark
program: one side-tagged token table of T ∪ T', one ``groupBy(token)`` for
(df_T, df_T'), one self-join on ``token`` keeping side_a ≤ side_b under each
model's own stop-token rule (and l_id < r_id within a side), and one
``groupBy(model, l_id, r_id)`` for the overlap filter. :func:`cross_block` and
:func:`self_block` are its single-model cases. The only other Spark job is
the one that counts the tables' records for the caps.
"""
from __future__ import annotations

import functools
import math

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

# Model code → (side of l_id, side of r_id); side 0 is T, side 1 is T'.
MODEL_SIDES = {"c": (0, 1), "l": (0, 0), "r": (1, 1)}


def _tokens(df: DataFrame, attr: str) -> DataFrame:
    """Distinct (<df's other columns>, token) rows of lowercase word tokens."""
    keys = [c for c in df.columns if c != attr]
    split = f"explode(split(lower(CAST(`{attr}` AS STRING)), '[^a-z0-9]+')) AS token"
    return df.selectExpr(*keys, split).where("token != ''").distinct()


def token_table(df: DataFrame, attr: str, id_alias: str) -> DataFrame:
    """(_id, attr) → distinct (id_alias, token) rows of lowercase word tokens."""
    return _tokens(df.selectExpr(f"_id AS {id_alias}", f"`{attr}`"), attr)


def _sizes(tables: list[DataFrame]) -> list[int]:
    """Record counts of ``tables``, in one Spark job."""
    counts = [t.selectExpr(f"{i} AS i", "count(*) AS n") for i, t in enumerate(tables)]
    rows = functools.reduce(DataFrame.unionAll, counts).collect()
    return [n for _, n in sorted(rows)]


def block_models(
    left: DataFrame,
    right: DataFrame,
    attr: str,
    models: tuple[str, ...],
    *,
    max_df_frac: float = 0.05,
    min_overlap: int = 1,
) -> DataFrame:
    """Candidate (model, l_id, r_id) pairs of every model in ``models``.

    ``left`` is T (side 0) and ``right`` is T' (side 1); a table no requested
    model pairs is not read. Intra-table pairs have l_id < r_id.
    """
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
        # df is an integer, so df <= cap iff df <= floor(cap).
        a, b = MODEL_SIDES[m]
        cap = math.floor(max(20.0, max_df_frac * (size[a] + size[b])))
        return f"df{a} + df{b} <= {cap}"

    # Keep a token row only if the token is rare for some model on its side.
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


def cross_block(
    left: DataFrame,
    right: DataFrame,
    attr: str,
    *,
    max_df_frac: float = 0.05,
    min_overlap: int = 1,
) -> DataFrame:
    """Candidate (l_id, r_id) pairs across two tables sharing rare tokens."""
    pairs = block_models(
        left, right, attr, ("c",), max_df_frac=max_df_frac, min_overlap=min_overlap
    )
    return pairs.select("l_id", "r_id")


def self_block(
    table: DataFrame,
    attr: str,
    *,
    max_df_frac: float = 0.05,
    min_overlap: int = 1,
) -> DataFrame:
    """Candidate intra-table pairs (l_id < r_id), for the T×T / T'×T' models."""
    pairs = block_models(
        table, table, attr, ("l",), max_df_frac=max_df_frac, min_overlap=min_overlap
    )
    return pairs.select("l_id", "r_id")
