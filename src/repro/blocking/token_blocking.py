"""Shared-rare-token blocking as one Spark SQL statement.

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

:func:`block_models` builds the pairs of any set of models, and optionally
attaches both records' attributes to them, in one parameterized ``spark.sql``
statement: side-tagged records explode into their distinct lowercase word
tokens, each token row carrying its record's attributes; df_T and df_T' are
window counts over the token; each model gets one rarity flag; one self-join
on ``token`` pairs the token rows under each model's rule; and one
``GROUP BY model, l_id, r_id`` keeps the pairs sharing ``min_overlap`` tokens.
Its plan has one join and two shuffles (by token, by pair). The only other
Spark job is the one that counts the tables' records for the caps.
:func:`cross_block` and :func:`self_block` are its single-model cases
without attributes.
"""
from __future__ import annotations

import functools
import math

from pyspark.sql import DataFrame

# Model code → (side of l_id, side of r_id); side 0 is T, side 1 is T'.
MODEL_SIDES = {"c": (0, 1), "l": (0, 0), "r": (1, 1)}


def _quote(name: str) -> str:
    return "`" + name.replace("`", "``") + "`"


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
    attributes: tuple[str, ...] | list[str] = (),
    *,
    max_df_frac: float = 0.05,
    min_overlap: int = 1,
) -> DataFrame:
    """Candidate pairs of every model in ``models``, with both records'
    ``attributes``.

    ``left`` is T (side 0) and ``right`` is T' (side 1); a table no requested
    model pairs is not read. Intra-table pairs have l_id < r_id. Output
    columns: ``model, l_id, r_id, l_<attr>…, r_<attr>…``, each attribute in
    its table's type.

    A record's tokens are counted once each, and a record whose blocking
    value is NULL has no tokens (so no pairs) but still counts in its table's
    size. Each pair's attributes are taken with ``any_value`` over the pair's
    shared-token rows. That is exact because ``_id`` is unique per table (as
    ``erdata.generators._finish`` assigns it): every row of a (model, l_id,
    r_id) group carries the same two records.
    """
    pairing = {m: MODEL_SIDES[m] for m in models}
    sides = sorted({s for pair in pairing.values() for s in pair})
    tables = {f"t{s}": (left, right)[s] for s in sides}
    size = dict(zip(sides, _sizes(list(tables.values()))))
    # df is an integer, so df <= cap iff df <= floor(cap).
    caps = {
        f"cap_{m}": math.floor(max(20.0, max_df_frac * (size[a] + size[b])))
        for m, (a, b) in pairing.items()
    }
    carried = [f"v{i}" for i in range(len(attributes))]
    carry = "".join(f", {v}" for v in carried)
    recs = " UNION ALL ".join(
        f"SELECT {s} AS side, _id AS id, CAST({_quote(attr)} AS STRING) AS text"
        + "".join(f", {_quote(a)} AS {v}" for a, v in zip(attributes, carried))
        + f" FROM {{t{s}}}"
        for s in sides
    )
    flags = "".join(f", df{a} + df{b} <= :cap_{m} AS rare_{m}" for m, (a, b) in pairing.items())
    # Keep a token row only if the token is rare for some model on its side.
    keep = " OR ".join(f"(side IN {pair} AND rare_{m})" for m, pair in pairing.items())
    joined = " OR ".join(
        f"(a.side = {a} AND b.side = {b} AND a.rare_{m}{' AND a.id < b.id' if a == b else ''})"
        for m, (a, b) in pairing.items()
    )
    model = " ".join(
        f"WHEN a.side = {a} AND b.side = {b} THEN '{m}'" for m, (a, b) in pairing.items()
    )
    attrs = "".join(
        f", any_value({p}.{v}) AS {_quote(f'{side}_{a}')}"
        for side, p in (("l", "a"), ("r", "b"))
        for a, v in zip(attributes, carried)
    )
    sql = f"""
    WITH tokens AS (
      SELECT side, id{carry}, token
      FROM ({recs})
      LATERAL VIEW explode(array_distinct(split(lower(text), '[^a-z0-9]+'))) AS token
      WHERE token != ''
    ), counted AS (
      SELECT *, count_if(side = 0) OVER w AS df0, count_if(side = 1) OVER w AS df1
      FROM tokens WINDOW w AS (PARTITION BY token)
    ), flagged AS (
      SELECT side, id{carry}, token{flags} FROM counted
    ), kept AS (
      SELECT * FROM flagged WHERE {keep}
    )
    SELECT CASE {model} END AS model, a.id AS l_id, b.id AS r_id{attrs}
    FROM kept a JOIN kept b ON a.token = b.token
    WHERE {joined}
    GROUP BY model, a.id, b.id
    HAVING count(*) >= :min_overlap
    """
    return left.sparkSession.sql(sql, args={**caps, "min_overlap": int(min_overlap)}, **tables)


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
