"""End-to-end ZeroER (Algorithm 2) plus the featurization shared with baselines.

Pipeline: blocking that carries each pair's attributes (one Spark SQL
statement) → Magellan-style features (mapInPandas) → one Arrow transfer to
the driver → impute at the minimum + min-max scale (numpy, per model) →
joint EM on the driver over three linked models (cross T×T', left T×T,
right T'×T') with transitivity posterior constraints resolved every E-step
→ pairs with γ > 0.5. The Spark part is one program for all three models,
each row tagged with its model; after its transfer, EM runs no Spark job.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.blocking import MODEL_SIDES, block_models
from repro.core import em as em_mod
from repro.core import transitivity as trans_mod
from repro.core.em import EMConfig, ModelParams, NumpyBackend, model_matrices
from repro.core.scaling import Scaler
from repro.erdata.generators import ERDataset
from repro.textsim import (
    compute_features,
    feature_columns,
    feature_plan,
    group_ids,
)


@dataclass
class FeaturizedTask:
    """Blocked + featurized + scaled pair sets for one dataset.

    ``cross`` (and optionally ``left``/``right`` for the intra-table models)
    are DataFrames of ``l_id, r_id, <feature>…`` with features min-max scaled
    to [0, 1]. Shared by ZeroER and by every baseline so Table 3 compares
    methods on identical inputs (the paper's protocol). ``matrices`` holds
    each model's (ids, X) as numpy arrays sorted by (l_id, r_id), when
    :func:`featurize` built the task; the DataFrames are built from them.
    """

    ds: ERDataset
    cols: list[str]
    groups: np.ndarray
    cross: DataFrame
    left: DataFrame | None = None
    right: DataFrame | None = None
    matrices: dict[str, tuple[np.ndarray, np.ndarray]] | None = None

    def unpersist(self) -> None:
        """Release the caches a caller put on this task's DataFrames."""
        for df in (self.cross, self.left, self.right):
            if df is not None:
                df.unpersist()


def _view(spark: SparkSession, ids: np.ndarray, X: np.ndarray, cols: list[str]) -> DataFrame:
    """``l_id long, r_id long, <cols> double`` from a model's matrices, via Arrow."""
    columns = [ids[:, 0], ids[:, 1], *X.T]
    return spark.createDataFrame(pa.table(columns, names=["l_id", "r_id", *cols]))


def featurize(
    spark: SparkSession,
    ds: ERDataset,
    *,
    include_intra: bool = False,
    min_overlap: int = 1,
    max_df_frac: float = 0.05,
) -> FeaturizedTask:
    """Run blocking + feature generation + scaling for a dataset.

    Every model (cross, and with ``include_intra`` left and right) goes
    through one model-tagged Spark program: :func:`block_models` builds all
    models' candidate pairs with both records' ``ds.attributes`` (one join,
    two shuffles), and one ``mapInPandas`` kernel pass over them is collected
    in one ``toArrow()``. On the driver, each model's matrix is scaled by a
    :class:`Scaler` fitted on it, and the DataFrame views are built from the
    scaled matrices; nothing is cached.
    """
    plan = feature_plan(ds.attributes, ds.attr_types)
    cols = feature_columns(plan)
    models = tuple(MODEL_SIDES) if include_intra else ("c",)
    pairs = block_models(
        ds.left, ds.right, ds.blocking_attr, models, ds.attributes,
        max_df_frac=max_df_frac, min_overlap=min_overlap,
    )
    table = compute_features(pairs, plan, ds.attr_types).toArrow()
    matrices = {
        m: (ids, Scaler.fit(X, cols).transform(X))
        for m, (ids, X) in model_matrices(table, cols, models).items()
    }
    views = {m: _view(spark, ids, X, cols) for m, (ids, X) in matrices.items()}
    return FeaturizedTask(
        ds=ds, cols=cols, groups=group_ids(plan), cross=views["c"],
        left=views.get("l"), right=views.get("r"), matrices=matrices,
    )


@dataclass
class ZeroERResult:
    """Predictions + diagnostics of one ZeroER run."""

    predictions: DataFrame  # (l_id, r_id) with γ > 0.5
    posteriors: pd.DataFrame  # cross pairs: l_id, r_id, gamma
    n_candidates: int
    n_iterations: int
    history: list[float]  # expected log-likelihood per iteration (all models)


def _transitivity_overrides(
    backends: dict[str, NumpyBackend],
    params: dict[str, ModelParams],
    constraints: trans_mod.Constraints,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Resolve Q' (Eq. 18) and return each model's adjusted pairs as
    (rows, γ') override arrays.

    Each distinct pair the constraints name is looked up once in its model's
    backend, and the pairs found get consecutive positions in one value
    table. A pair that is not a candidate of its model, blocked out or of a
    model left out, gets position −1: pinned at γ = 0.
    """
    positions = np.full(constraints.keys.shape, -1, dtype=np.int64)
    rows: dict[str, np.ndarray] = {}
    values, logm, logu = [], [], []
    base = 0
    for code, m in enumerate(trans_mod.MODELS):
        if m not in backends:
            continue
        slots = constraints.models == code
        keys, named = np.unique(constraints.keys[slots], return_inverse=True)
        row, g, lm, lu = backends[m].lookup(params[m], keys)
        found = row >= 0
        positions[slots] = np.where(found, base + np.cumsum(found) - 1, -1)[named]
        rows[m] = row[found]
        values.append(g)
        logm.append(lm)
        logu.append(lu)
        base += len(g)
    adjusted = trans_mod.resolve(
        positions, np.concatenate(values), np.concatenate(logm), np.concatenate(logu)
    )
    at = np.fromiter(adjusted.keys(), dtype=np.int64, count=len(adjusted))
    new = np.fromiter(adjusted.values(), dtype=np.float64, count=len(adjusted))
    out, first = {}, 0
    for m, r in rows.items():
        mine = (at >= first) & (at < first + len(r))
        out[m] = (r[at[mine] - first], new[mine])
        first += len(r)
    return out


_STABLE_WINDOW = 10  # early stop when the cross match set is this long stable


def _joint_em(
    backends: dict[str, NumpyBackend],
    groups: np.ndarray,
    config: EMConfig,
    use_transitivity: bool,
) -> tuple[dict[str, ModelParams], np.ndarray, list[float]]:
    """Algorithm 2's loop over the linked models in ``backends``; returns the
    last parameters, the cross posterior and the likelihood history.

    ``backends`` maps "c" (required), "l" and "r" to non-empty models. A
    missing intra model is treated as blocked out: its closing pairs keep
    γ = 0 under the transitivity constraints. With ``use_transitivity=False``
    (or a single "c" backend) this degrades to Algorithm 1 run independently
    per model.

    With transitivity, each iteration re-enumerates Q' from the models'
    γ ≥ 0.5 (ids, γ) arrays and resolves it (:func:`_transitivity_overrides`);
    the adjusted pairs reach the sufficient statistics and the posteriors as
    per-model (rows, γ') arrays, a pair named by its row in its model.

    Transitivity projections can make the expected log-likelihood oscillate
    (a pair forced across components contributes a huge negative density
    term), so in addition to the paper's likelihood threshold we stop when
    the cross model's predicted match set has been stable for
    ``_STABLE_WINDOW`` iterations; if a match-set transition repeats (a
    cycle) or the iteration cap is hit instead, the returned cross posterior
    is the average of the last ``tail_average`` iterations' γ (§3.3's remedy);
    otherwise it is the last iteration's.
    """
    R = {m: em_mod.shared_correlation(b, groups) for m, b in backends.items()}
    stats = {m: b.init_stats(config.eps_init) for m, b in backends.items()}
    overrides: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    history: list[float] = []
    params: dict[str, ModelParams] = {}
    gamma_tail: deque[np.ndarray] = deque(maxlen=max(1, config.tail_average))
    # Cross match sets as the bytes of their sorted row indices: compared
    # exactly, so a repeated transition is a real cycle, not a hash collision.
    match_sets: deque[bytes] = deque(maxlen=_STABLE_WINDOW)
    seen_transitions: set[tuple[bytes, bytes]] = set()
    cycling = False
    for _ in range(config.max_iter):
        params = {
            m: em_mod.build_params(stats[m], R[m], groups, config) for m in backends
        }
        if use_transitivity:
            matches = {m: backends[m].match_candidates(params[m]) for m in backends}
            constraints = trans_mod.enumerate_constraints(matches)
            overrides = _transitivity_overrides(backends, params, constraints)
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
        gamma = np.mean(np.stack(gamma_tail), axis=0)
    return params, gamma, history


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
    one-to-one post-processing (the Table 5 ablation). The backends are built
    from ``task.matrices``, so a featurized task runs no Spark job here; a
    task built from DataFrames alone is collected in one Arrow transfer
    (:meth:`NumpyBackend.from_spark`). A model without candidate pairs is not
    fitted: an empty intra model leaves its pairs blocked out (γ = 0), and an
    empty cross model yields no predictions.
    """
    config = config or EMConfig()
    use_constraint = transitivity == "constraint"
    frames = {"c": task.cross}
    if use_constraint:
        if task.left is None or task.right is None:
            raise ValueError("transitivity='constraint' needs featurize(include_intra=True)")
        frames.update(l=task.left, r=task.right)
    if task.matrices is None:
        collected = NumpyBackend.from_spark(frames, task.cols)
    else:
        collected = {m: NumpyBackend(*task.matrices[m]) for m in frames}
    cb = collected["c"]
    backends = {m: b for m, b in collected.items() if b.n}

    gamma = np.zeros(0)
    history: list[float] = []
    if cb.n:
        _, gamma, history = _joint_em(backends, task.groups, config, use_constraint)
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
