"""DeepMatcher-lite (§5.1 #4 substitute — see DESIGN.md).

DeepMatcher learns its own text representation with RNN attribute
summarization (torch; unavailable offline). The behaviour that matters for
Tables 3/4 is: *a supervised model with a richer text representation than the
shared Magellan features wins on the long-text product datasets, at the cost
of thousands of labels*. We reproduce that regime with an MLlib MLP over a
strictly richer per-attribute representation: tf-weighted token cosine,
containment both ways, 2/3/4-gram Jaccard+cosine, token-length ratio and
Jaro-Winkler — computed distributed with ``mapInPandas``.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import supervised
from repro.core.scaling import scale_features
from repro.erdata.generators import ERDataset
from repro.textsim import pairs_with_attrs, sim, tokenize

_STR_KINDS = ["tfcos", "jac_ws", "cont_l", "cont_r", "jac_qg2", "cos_qg2",
              "jac_qg4", "cos_qg4", "len_ratio", "jwn"]
_NUM_KINDS = ["rel_sim", "exm_num"]


def dm_feature_columns(attributes: list[str], attr_types: dict[str, str]) -> list[str]:
    """Column names of the DM-lite representation, in stable order."""
    cols = []
    for a in attributes:
        kinds = _NUM_KINDS if attr_types[a] == "numeric" else _STR_KINDS
        cols += [f"dm_{a}_{k}" for k in kinds]
    return cols


def _tf_cosine(a: Counter, b: Counter) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return dot / (na * nb)


def _prep(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    s = tokenize.normalize(v)
    toks = tokenize.word_list(s)
    return (
        s,
        Counter(toks),
        frozenset(toks),
        tokenize.qgrams(s, 2),
        tokenize.qgrams(s, 4),
    )


def _string_feats(lp, rp) -> dict[str, float]:
    ls, lc, lw, l2, l4 = lp
    rs, rc, rw, r2, r4 = rp
    inter = len(lw & rw)
    return {
        "tfcos": _tf_cosine(lc, rc),
        "jac_ws": sim.jaccard(lw, rw),
        "cont_l": inter / len(lw) if lw else (1.0 if not rw else 0.0),
        "cont_r": inter / len(rw) if rw else (1.0 if not lw else 0.0),
        "jac_qg2": sim.jaccard(l2, r2),
        "cos_qg2": sim.cosine(l2, r2),
        "jac_qg4": sim.jaccard(l4, r4),
        "cos_qg4": sim.cosine(l4, r4),
        "len_ratio": min(len(lw), len(rw)) / max(len(lw), len(rw)) if lw and rw else 0.0,
        "jwn": sim.jaro_winkler(ls[:32], rs[:32]),
    }


def dm_features(
    pairs: DataFrame, ds: ERDataset
) -> tuple[DataFrame, list[str]]:
    """(candidate pairs) → scaled DM-lite feature DataFrame + column names."""
    cols = dm_feature_columns(ds.attributes, ds.attr_types)
    pa = pairs_with_attrs(pairs, ds.left, ds.right, ds.attributes)
    attributes, attr_types = ds.attributes, ds.attr_types
    schema = "l_id long, r_id long, " + ", ".join(f"`{c}` double" for c in cols)

    def gen(batches):
        for pdf in batches:
            out = {"l_id": pdf["l_id"], "r_id": pdf["r_id"]}
            n = len(pdf)
            for a in attributes:
                if attr_types[a] == "numeric":
                    lv = pd.to_numeric(pdf[f"l_{a}"], errors="coerce").to_numpy(dtype=float)
                    rv = pd.to_numeric(pdf[f"r_{a}"], errors="coerce").to_numpy(dtype=float)
                    rel = np.full(n, np.nan)
                    ex = np.full(n, np.nan)
                    ok = ~(np.isnan(lv) | np.isnan(rv))
                    for i in np.flatnonzero(ok):
                        rel[i] = sim.rel_sim(lv[i], rv[i])
                        ex[i] = 1.0 if lv[i] == rv[i] else 0.0
                    out[f"dm_{a}_rel_sim"] = rel
                    out[f"dm_{a}_exm_num"] = ex
                    continue
                cache: dict = {}

                def prep_cached(v):
                    if v is None or (isinstance(v, float) and math.isnan(v)):
                        return None
                    if v not in cache:
                        cache[v] = _prep(v)
                    return cache[v]

                vals = {k: np.full(n, np.nan) for k in _STR_KINDS}
                lcol, rcol = pdf[f"l_{a}"].tolist(), pdf[f"r_{a}"].tolist()
                for i in range(n):
                    lp, rp = prep_cached(lcol[i]), prep_cached(rcol[i])
                    if lp is None or rp is None:
                        continue
                    for k, v in _string_feats(lp, rp).items():
                        vals[k][i] = v
                for k in _STR_KINDS:
                    out[f"dm_{a}_{k}"] = vals[k]
            yield pd.DataFrame(out)

    return scale_features(pa.mapInPandas(gen, schema=schema), cols), cols


def dm_lite_f1(
    spark: SparkSession, pairs: DataFrame, ds: ERDataset, *, seed: int = 0
) -> supervised.SupervisedRun:
    """Table 3 protocol with the DM-lite representation + MLP classifier."""
    feat, cols = dm_features(pairs, ds)
    feat = feat.cache()
    run = supervised.supervised_f1("MLP", feat, cols, ds.matches, seed=seed)
    feat.unpersist()
    return run

