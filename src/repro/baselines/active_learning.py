"""Active learning with uncertainty sampling over random forests (§5.1 #10).

modAL's default strategy, reimplemented over MLlib: start from a small random
labeled seed, repeatedly fit an RF, query the pool examples whose match
probability is closest to 0.5, and stop once 50% of the matches or 50% of all
pairs have been labeled (the paper's budget). Queries are batched (the paper
queries one example per round; one JVM fit per single label is intractable —
see DESIGN.md) and the F1-on-remaining trajectory is recorded so Table 4 can
read off the label count at which AL first reaches ZeroER's F1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.ml.classification import RandomForestClassifier
from pyspark.ml.feature import VectorAssembler
from pyspark.ml.functions import vector_to_array
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines.supervised import labeled_pairs, oversample_matches
from repro.eval import PRF


@dataclass
class ALResult:
    """Final PRF on the unlabeled remainder + the (n_labeled, f1) trajectory."""

    prf: PRF
    n_labeled: int
    trajectory: list[tuple[int, float]]


def al_rf(
    spark: SparkSession,
    feat_df: DataFrame,
    cols: list[str],
    truth: DataFrame,
    *,
    batch: int = 25,
    n_init: int = 10,
    max_rounds: int = 60,
    num_trees: int = 50,
    seed: int = 0,
) -> ALResult:
    """Run the AL loop; returns F1 evaluated on the never-labeled pairs."""
    assembled = (
        VectorAssembler(inputCols=cols, outputCol="features")
        .transform(labeled_pairs(feat_df, truth))
        .select("l_id", "r_id", "label", "features")
        .cache()
    )
    meta = assembled.select("l_id", "r_id", "label").toPandas()
    n = len(meta)
    n_matches = int(meta["label"].sum())
    rng = np.random.default_rng(seed)
    labeled = np.zeros(n, dtype=bool)
    labeled[rng.choice(n, size=min(n_init, n), replace=False)] = True

    match_budget = max(1, n_matches // 2)
    pair_budget = n // 2
    trajectory: list[tuple[int, float]] = []
    prf = PRF(tp=0, fp=0, fn=n_matches)
    key = meta[["l_id", "r_id"]]
    labels = meta["label"].to_numpy()

    for _ in range(max_rounds):
        order = None
        if labels[labeled].sum() > 0:
            # Fit on the labeled pool (matches oversampled like the
            # supervised protocol), evaluate on the never-labeled remainder.
            train_keys = spark.createDataFrame(key[labeled])
            train = oversample_matches(
                assembled.join(F.broadcast(train_keys), ["l_id", "r_id"])
            )
            model = RandomForestClassifier(
                featuresCol="features", labelCol="label", numTrees=num_trees, seed=seed
            ).fit(train)
            scored = (
                model.transform(assembled)
                .select("l_id", "r_id", vector_to_array("probability")[1].alias("p1"))
                .toPandas()
                .merge(key.assign(_i=np.arange(n)), on=["l_id", "r_id"])
                .sort_values("_i")
            )
            p1 = scored["p1"].to_numpy()
            pred_m = (p1 > 0.5) & ~labeled
            true_m = (labels == 1.0) & ~labeled
            tp = int((pred_m & true_m).sum())
            prf = PRF(tp=tp, fp=int(pred_m.sum()) - tp, fn=int(true_m.sum()) - tp)
            trajectory.append((int(labeled.sum()), prf.f1))
            uncertainty = np.abs(p1 - 0.5)
            uncertainty[labeled] = np.inf
            order = np.argsort(uncertainty)
        if (
            int(labels[labeled].sum()) >= match_budget
            or int(labeled.sum()) >= pair_budget
        ):
            break
        if order is None:  # no match labeled yet: query randomly this round
            perm = rng.permutation(n)
            order = perm[~labeled[perm]]
        take = [i for i in order[: 4 * batch] if not labeled[i]][:batch]
        labeled[take] = True
    assembled.unpersist()
    return ALResult(prf=prf, n_labeled=int(labeled.sum()), trajectory=trajectory)
