"""Magellan-style per-attribute feature generation over pair DataFrames.

``feature_plan`` chooses a bundle of similarity functions per attribute based
on its declared type (mirroring Magellan's type-driven feature factory); all
features of one attribute share a *group id*, which is exactly the grouping
ZeroER's block-diagonal covariance consumes (§3.1 of the paper).

``compute_features`` evaluates the plan in one distributed ``mapInPandas``
pass over pairs that carry both records' attributes: the candidate pairs of
:func:`repro.blocking.block_models`, which arrive with their attributes and
model tag, or a pair set that ``pairs_with_attrs`` joins with its two
tables. Columns other than the attribute inputs pass through. Within each
Arrow batch, every distinct value of an attribute is normalized and
tokenized once, and every distinct *ordered* (l_value, r_value) pair is
evaluated once: the group's kernels run on the pair and their row of values
is reused by every repeat of it in the batch. The string kernels are the
bit-parallel Levenshtein and the ``str.find`` Jaro of :mod:`repro.textsim.sim`.

A missing value on either side yields NaN. Arrow turns the NaN that
``mapInPandas`` yields into a Spark NULL, and :mod:`repro.core.scaling`
imputes it at the feature's minimum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.textsim import sim, tokenize

_KINDS_BY_TYPE: dict[str, list[str]] = {
    "short_str": ["exm", "lev_sim", "jwn", "jac_qgm3", "cos_qgm3", "dice_qgm3",
                  "ovl_qgm3", "jac_ws", "cos_ws"],
    "long_str": ["jac_ws", "cos_ws", "dice_ws", "ovl_ws", "jac_qgm3", "cos_qgm3"],
    "phone": ["exm_dig", "jac_qgm3_dig", "lev_dig"],
    "numeric": ["exm_num", "rel_sim"],
}


@dataclass(frozen=True)
class Feature:
    """One similarity feature: ``kind`` applied to attribute ``attr``.

    ``group`` is the 0-based attribute index — features with equal ``group``
    form one block of ZeroER's block-diagonal covariance.
    """

    name: str
    attr: str
    group: int
    kind: str


def feature_plan(attributes: list[str], attr_types: dict[str, str]) -> list[Feature]:
    """The full Magellan-style plan: one feature bundle per attribute."""
    plan: list[Feature] = []
    for g, attr in enumerate(attributes):
        for kind in _KINDS_BY_TYPE[attr_types[attr]]:
            plan.append(Feature(name=f"{attr}_{kind}", attr=attr, group=g, kind=kind))
    return plan


def feature_columns(plan: list[Feature]) -> list[str]:
    """Feature column names, in plan order."""
    return [f.name for f in plan]


def group_ids(plan: list[Feature]) -> np.ndarray:
    """Group id per feature, aligned with :func:`feature_columns`."""
    return np.asarray([f.group for f in plan], dtype=np.int64)


def pairs_with_attrs(
    pairs: DataFrame, left: DataFrame, right: DataFrame, attributes: list[str]
) -> DataFrame:
    """Join a (l_id, r_id) pair set with both sides' attributes.

    Output columns: ``l_id, r_id, l_<attr>…, r_<attr>…``. For pair sets that
    do not come from blocking; :func:`repro.blocking.block_models` attaches
    the attributes to the candidate pairs it builds.
    """
    lsel = left.selectExpr("_id AS l_id", *[f"`{a}` AS `l_{a}`" for a in attributes])
    rsel = right.selectExpr("_id AS r_id", *[f"`{a}` AS `r_{a}`" for a in attributes])
    return (
        pairs.select("l_id", "r_id")
        .join(lsel, "l_id")
        .join(rsel, "r_id")
        .select("l_id", "r_id", *lsel.columns[1:], *rsel.columns[1:])
    )


def _is_missing(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


# Kernel per feature kind, applied to two prepared values: (normalized string,
# 3-grams, word tokens) for string types, (digits, 3-grams) for phone, a
# float for numeric.
_STRING_KINDS = {
    "exm": lambda l, r: sim.exact(l[0], r[0]),
    "lev_sim": lambda l, r: sim.lev_sim(l[0], r[0]),
    "jwn": lambda l, r: sim.jaro_winkler(l[0], r[0]),
    "jac_qgm3": lambda l, r: sim.jaccard(l[1], r[1]),
    "cos_qgm3": lambda l, r: sim.cosine(l[1], r[1]),
    "dice_qgm3": lambda l, r: sim.dice(l[1], r[1]),
    "ovl_qgm3": lambda l, r: sim.overlap_coeff(l[1], r[1]),
    "jac_ws": lambda l, r: sim.jaccard(l[2], r[2]),
    "cos_ws": lambda l, r: sim.cosine(l[2], r[2]),
    "dice_ws": lambda l, r: sim.dice(l[2], r[2]),
    "ovl_ws": lambda l, r: sim.overlap_coeff(l[2], r[2]),
}
_PHONE_KINDS = {
    "exm_dig": lambda l, r: sim.exact(l[0], r[0]),
    "jac_qgm3_dig": lambda l, r: sim.jaccard(l[1], r[1]),
    "lev_dig": lambda l, r: sim.lev_sim(l[0], r[0]),
}
_NUMERIC_KINDS = {
    "exm_num": lambda l, r: 1.0 if l == r else 0.0,
    "rel_sim": sim.rel_sim,
}


def _preparer(kinds: list[str], attr_type: str):
    """Value → prepared value for ``attr_type``; each distinct value once."""
    if attr_type == "phone":
        def prep(v):
            d = tokenize.digits(v)
            return d, tokenize.qgrams(d)
    else:
        need_q = any("qgm" in k for k in kinds)
        need_w = any(k.endswith("_ws") for k in kinds)

        def prep(v):
            s = tokenize.normalize(v)
            return (
                s,
                tokenize.qgrams(s) if need_q else None,
                tokenize.word_tokens(s) if need_w else None,
            )

    return functools.cache(prep)  # per batch: the caller drops it after


def _eval_group(
    kinds: list[str], attr_type: str, lcol: pd.Series, rcol: pd.Series
) -> dict[str, np.ndarray]:
    """Evaluate every kind of one attribute group over a batch; returns
    kind → float64 values (NaN where either side is missing).

    Each distinct ordered (l_value, r_value) pair is evaluated once per batch
    and its row of values shared by every repeat: low-cardinality attributes
    (venue, year) repeat most of their pairs.
    """
    if attr_type == "numeric":
        table = _NUMERIC_KINDS
        lvals = pd.to_numeric(lcol, errors="coerce").to_numpy(dtype=float).tolist()
        rvals = pd.to_numeric(rcol, errors="coerce").to_numpy(dtype=float).tolist()
        prep = float
    else:
        table = _PHONE_KINDS if attr_type == "phone" else _STRING_KINDS
        lvals, rvals = lcol, rcol
        prep = _preparer(kinds, attr_type)
    fns = [table[k] for k in kinds]
    missing = (math.nan,) * len(kinds)
    memo: dict = {}
    rows = []
    for lv, rv in zip(lvals, rvals):
        if _is_missing(lv) or _is_missing(rv):
            rows.append(missing)
            continue
        got = memo.get((lv, rv))
        if got is None:
            lp, rp = prep(lv), prep(rv)
            got = memo[(lv, rv)] = tuple(f(lp, rp) for f in fns)
        rows.append(got)
    vals = np.array(rows, dtype=np.float64).reshape(len(rows), len(kinds))
    return {k: vals[:, j] for j, k in enumerate(kinds)}


def compute_features(
    pairs_attrs: DataFrame,
    plan: list[Feature],
    attr_types: dict[str, str],
) -> DataFrame:
    """(<keys>, l_*, r_*) → (<keys>, <feature>…double) via mapInPandas.

    Every column that is not an ``l_<attr>``/``r_<attr>`` input of the plan
    (``l_id``, ``r_id`` and, for model-tagged pairs, ``model``) passes through
    in its input order and type.
    """
    by_attr: dict[str, list[Feature]] = {}
    for f in plan:
        by_attr.setdefault(f.attr, []).append(f)
    inputs = {f"{side}_{a}" for a in by_attr for side in ("l", "r")}
    keys = [f for f in pairs_attrs.schema.fields if f.name not in inputs]
    schema = StructType(keys + [StructField(f.name, DoubleType()) for f in plan])

    def gen(batches):
        for pdf in batches:
            cols: dict[str, object] = {k.name: pdf[k.name] for k in keys}
            for attr, feats in by_attr.items():
                kinds = [f.kind for f in feats]
                vals = _eval_group(kinds, attr_types[attr], pdf[f"l_{attr}"], pdf[f"r_{attr}"])
                for f in feats:
                    cols[f.name] = vals[f.kind]
            yield pd.DataFrame(cols)

    return pairs_attrs.mapInPandas(gen, schema=schema)
