"""End-to-end ZeroER (Algorithm 2) plus the featurization shared with baselines.

Pipeline: blocking (Spark joins) → Magellan-style features (mapInPandas) →
impute at the minimum + min-max scale (Spark SQL expressions) → joint EM on
the driver over three linked models (cross T×T', left T×T, right T'×T') with
transitivity posterior constraints resolved every E-step → pairs with γ > 0.5.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.blocking import cross_block, self_block
from repro.core import em as em_mod
from repro.core import transitivity as trans_mod
from repro.core.em import EMConfig, ModelParams, NumpyBackend
from repro.core.scaling import scale_features
from repro.erdata.generators import ERDataset
from repro.textsim import compute_features, feature_columns, feature_plan, group_ids, pairs_with_attrs


@dataclass
class FeaturizedTask:
    """Blocked + featurized + scaled pair sets for one dataset.

    ``cross`` (and optionally ``left``/``right`` for the intra-table models)
    are DataFrames of ``l_id, r_id, <feature>…`` with features min-max scaled
    to [0, 1]. Shared by ZeroER and by every baseline so Table 3 compares
    methods on identical inputs (the paper's protocol).
    """

    ds: ERDataset
    cols: list[str]
    groups: np.ndarray
    cross: DataFrame
    left: DataFrame | None = None
    right: DataFrame | None = None

    def unpersist(self) -> None:
        """Release every cached DataFrame this task holds."""
        for df in (self.cross, self.left, self.right):
            if df is not None:
                df.unpersist()


def featurize(
    spark: SparkSession,
    ds: ERDataset,
    *,
    include_intra: bool = False,
    min_overlap: int = 1,
    max_df_frac: float = 0.05,
    cache: bool = True,
) -> FeaturizedTask:
    """Run blocking + feature generation + scaling for a dataset."""
    plan = feature_plan(ds.attributes, ds.attr_types)
    cols = feature_columns(plan)

    def scaled(pa: DataFrame) -> DataFrame:
        # Cache the raw feature matrix *before* the scaler's aggregation pass
        # so the expensive similarity kernels run exactly once per pair; the
        # scaled output is cached too (it is what every EM pass reads) and
        # the raw cache is dropped once the scaled one is materialized.
        raw = compute_features(pa, plan, ds.attr_types)
        if not cache:
            return scale_features(raw, cols)
        raw = raw.cache()
        out = scale_features(raw, cols).cache()
        out.count()
        raw.unpersist()
        return out

    def feats(pairs: DataFrame) -> DataFrame:
        return scaled(pairs_with_attrs(pairs, ds.left, ds.right, ds.attributes))

    def feats_intra(table: DataFrame) -> DataFrame:
        pairs = self_block(table, ds.blocking_attr, max_df_frac=max_df_frac, min_overlap=min_overlap)
        return scaled(pairs_with_attrs(pairs, table, table, ds.attributes))

    cross_pairs = cross_block(
        ds.left, ds.right, ds.blocking_attr, max_df_frac=max_df_frac, min_overlap=min_overlap
    )
    task = FeaturizedTask(ds=ds, cols=cols, groups=group_ids(plan), cross=feats(cross_pairs))
    if include_intra:
        task.left = feats_intra(ds.left)
        task.right = feats_intra(ds.right)
    return task


@dataclass
class ZeroERResult:
    """Predictions + diagnostics of one ZeroER run."""

    predictions: DataFrame  # (l_id, r_id) with γ > 0.5
    posteriors: pd.DataFrame  # cross pairs: l_id, r_id, gamma
    n_candidates: int
    n_iterations: int
    history: list[float]  # expected log-likelihood per iteration (all models)


_STABLE_WINDOW = 10  # early stop when the cross match set is this long stable


def _joint_em(
    backends: dict[str, NumpyBackend],
    groups: np.ndarray,
    config: EMConfig,
    use_transitivity: bool,
) -> tuple[dict[str, ModelParams], dict[str, dict], list[float], np.ndarray | None]:
    """Algorithm 2's loop over the linked models in ``backends``.

    ``backends`` maps "c" (required), "l" and "r" to non-empty models. A
    missing intra model is treated as blocked out: its closing pairs keep
    γ = 0 under the transitivity constraints. With ``use_transitivity=False``
    (or a single "c" backend) this degrades to Algorithm 1 run independently
    per model.

    Transitivity projections can make the expected log-likelihood oscillate
    (a pair forced across components contributes a huge negative density
    term), so in addition to the paper's likelihood threshold we stop when
    the cross model's predicted match set has been stable for
    ``_STABLE_WINDOW`` iterations; if a match-set transition repeats (a
    cycle) or the iteration cap is hit instead, the returned cross posterior
    is the average of the last ``tail_average`` iterations' γ (§3.3's remedy).
    """
    R = {m: em_mod.shared_correlation(b, groups) for m, b in backends.items()}
    stats = {m: b.init_stats(config.eps_init) for m, b in backends.items()}
    overrides: dict[str, dict] = {m: {} for m in backends}
    history: list[float] = []
    params: dict[str, ModelParams] = {}
    gamma_tail: deque[np.ndarray] = deque(maxlen=max(1, config.tail_average))
    # Cross match sets as the bytes of their sorted row indices: compared
    # exactly, so a repeated transition is a real cycle, not a hash collision.
    match_sets: deque[bytes] = deque(maxlen=_STABLE_WINDOW)
    seen_transitions: set[tuple[bytes, bytes]] = set()
    tail_gamma: np.ndarray | None = None
    cycling = False
    for _ in range(config.max_iter):
        params = {
            m: em_mod.build_params(stats[m], R[m], groups, config) for m in backends
        }
        if use_transitivity:
            matches = {m: backends[m].match_candidates(params[m]) for m in backends}
            constraints = trans_mod.enumerate_constraints(matches)
            values: dict[trans_mod.ModelKey, float] = {}
            logliks: dict[trans_mod.ModelKey, tuple[float, float]] = {}
            for m, mdf in matches.items():
                for r in mdf.itertuples():
                    k = (m, int(r.l_id), int(r.r_id))
                    values[k] = float(r.gamma)
                    logliks[k] = (float(r.logm), float(r.logu))
            need: dict[str, set] = {m: set() for m in backends}
            for con in constraints:
                if con.c[0] in need and con.c not in values:
                    need[con.c[0]].add((con.c[1], con.c[2]))
            for m, keys in need.items():
                for k, (g, lm, lu) in backends[m].lookup(params[m], keys).items():
                    values[(m, k[0], k[1])] = g
                    logliks[(m, k[0], k[1])] = (lm, lu)
            adjusted = trans_mod.resolve(constraints, values, logliks)
            overrides = trans_mod.split_by_model(adjusted)
        stats = {m: backends[m].suffstats(params[m], overrides.get(m)) for m in backends}
        history.append(sum(s.ell for s in stats.values()))
        gamma = backends["c"].posterior_vector(params["c"], overrides.get("c"))
        gamma_tail.append(gamma)
        match_sets.append(np.flatnonzero(gamma > 0.5).tobytes())
        if len(history) >= 2 and abs(history[-1] - history[-2]) < config.tol * (
            1.0 + abs(history[-2])
        ):
            break
        if len(match_sets) == _STABLE_WINDOW and len(set(match_sets)) == 1:
            break
        if len(match_sets) >= 2 and match_sets[-2] != match_sets[-1]:
            # Transitivity projections can put EM into a limit cycle (the
            # likelihood never settles); once a match-set *flip* repeats,
            # further iterations replay the cycle — stop and average the γ
            # tail, as the paper does at the iteration cap. (Unchanged-set
            # steps are excluded: those are ordinary convergence, handled by
            # the stability check above.)
            transition = (match_sets[-2], match_sets[-1])
            if transition in seen_transitions:
                cycling = True
                break
            seen_transitions.add(transition)
    else:
        cycling = True  # hit the iteration cap without converging
    if cycling:
        tail_gamma = np.mean(np.stack(gamma_tail), axis=0)
    return params, overrides, history, tail_gamma


def _postprocess_one_to_one(post: pd.DataFrame) -> pd.DataFrame:
    """Transitivity as post-processing (Table 5's rightmost ablation).

    Assumes both tables duplicate-free (γ = 0 for every intra pair): among
    cross matches sharing a tuple, only the highest-posterior one survives —
    a greedy one-to-one matching over γ > 0.5 pairs.
    """
    m = post[post["gamma"] > 0.5].sort_values("gamma", ascending=False)
    used_l: set[int] = set()
    used_r: set[int] = set()
    keep = []
    for r in m.itertuples():
        if r.l_id in used_l or r.r_id in used_r:
            continue
        used_l.add(r.l_id)
        used_r.add(r.r_id)
        keep.append((r.l_id, r.r_id, r.gamma))
    return pd.DataFrame(keep, columns=["l_id", "r_id", "gamma"])


def run_zeroer(
    spark: SparkSession,
    task: FeaturizedTask,
    *,
    config: EMConfig | None = None,
    transitivity: str = "constraint",  # "constraint" | "none" | "post"
) -> ZeroERResult:
    """Run ZeroER on a featurized task and return γ>0.5 pairs as predictions.

    ``transitivity='constraint'`` is Algorithm 2 (requires ``task.left/right``),
    ``'none'`` is Algorithm 1, ``'post'`` is Algorithm 1 + duplicate-free
    one-to-one post-processing (the Table 5 ablation). A model without
    candidate pairs is not fitted: an empty intra model leaves its pairs
    blocked out (γ = 0), and an empty cross model yields no predictions.
    """
    config = config or EMConfig()
    use_constraint = transitivity == "constraint"
    cb = NumpyBackend.from_spark(task.cross, task.cols)
    backends = {"c": cb}
    if use_constraint:
        if task.left is None or task.right is None:
            raise ValueError("transitivity='constraint' needs featurize(include_intra=True)")
        backends["l"] = NumpyBackend.from_spark(task.left, task.cols)
        backends["r"] = NumpyBackend.from_spark(task.right, task.cols)
    backends = {m: b for m, b in backends.items() if b.n}

    gamma = np.zeros(0)
    history: list[float] = []
    if cb.n:
        params, overrides, history, tail_gamma = _joint_em(
            backends, task.groups, config, use_constraint
        )
        gamma = (
            tail_gamma
            if tail_gamma is not None
            else cb.posterior_vector(params["c"], overrides.get("c"))
        )
    post = cb.posteriors_pdf(gamma)
    if transitivity == "post":
        post = _postprocess_one_to_one(post)
    pred_pdf = post[post["gamma"] > 0.5][["l_id", "r_id"]]
    predictions = spark.createDataFrame(
        pred_pdf.astype("int64"), schema="l_id long, r_id long"
    )
    return ZeroERResult(
        predictions=predictions,
        posteriors=post,
        n_candidates=cb.n,
        n_iterations=len(history),
        history=history,
    )
