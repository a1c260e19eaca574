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


class FeaturizedTask:
    """Blocked + featurized + scaled pair sets for one dataset, shared by
    ZeroER and every baseline so Table 3 compares methods on identical
    inputs (the paper's protocol).

    ``matrices`` maps each featurized model ("c", and "l"/"r" for the intra
    models) to its (ids, X), rows sorted by (l_id, r_id), features min-max
    scaled to [0, 1]. ``cross``, ``left`` and ``right`` are DataFrame views
    ``l_id, r_id, <feature>…`` built from them on first access (Arrow
    ``createDataFrame``) and kept, or ``None`` for a model not featurized.
    A task built from such frames instead (``cross=`` …) collects them into
    ``matrices`` here, by :meth:`NumpyBackend.from_spark`, and keeps them.
    """

    def __init__(
        self, ds: ERDataset, cols: list[str], groups: np.ndarray,
        matrices: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
        *, cross: DataFrame | None = None, left: DataFrame | None = None,
        right: DataFrame | None = None,
    ):
        self.ds, self.cols, self.groups = ds, cols, groups
        self._views = {m: df for m, df in (("c", cross), ("l", left), ("r", right)) if df is not None}
        if matrices is None:
            collected = NumpyBackend.from_spark(self._views, cols)
            matrices = {m: (b.ids, b.X) for m, b in collected.items()}
        self.matrices = matrices

    def _view(self, m: str) -> DataFrame | None:
        if m not in self._views and m in self.matrices:
            ids, X = self.matrices[m]
            columns = [ids[:, 0], ids[:, 1], *X.T]
            table = pa.table(columns, names=["l_id", "r_id", *self.cols])
            self._views[m] = self.ds.left.sparkSession.createDataFrame(table)
        return self._views.get(m)

    cross = property(lambda self: self._view("c"))
    left = property(lambda self: self._view("l"))
    right = property(lambda self: self._view("r"))

    def unpersist(self) -> None:
        """Release the caches a caller put on the views built so far."""
        for df in self._views.values():
            df.unpersist()


def featurize(
    spark: SparkSession, ds: ERDataset, *, include_intra: bool = False
) -> FeaturizedTask:
    """Run blocking + feature generation + scaling for a dataset.

    Every model (cross, and with ``include_intra`` left and right) goes
    through one model-tagged Spark program: :func:`block_models`, at its
    default stop-token cap and overlap, builds all models' candidate pairs
    with both records' ``ds.attributes`` (one join, two shuffles), and one
    ``mapInPandas`` kernel pass over them is collected in one ``toArrow()``. On the driver, each model's matrix is scaled by a
    :class:`Scaler` fitted on it. The task is those matrices: it builds no
    DataFrame until a view is read, and nothing is cached.
    """
    plan = feature_plan(ds.attributes, ds.attr_types)
    cols = feature_columns(plan)
    models = tuple(MODEL_SIDES) if include_intra else ("c",)
    pairs = block_models(ds.left, ds.right, ds.blocking_attr, models, ds.attributes)
    table = compute_features(pairs, plan, ds.attr_types).toArrow()
    matrices = {
        m: (ids, Scaler.fit(X, cols).transform(X))
        for m, (ids, X) in model_matrices(table, cols, models).items()
    }
    return FeaturizedTask(ds, cols, group_ids(plan), matrices)


@dataclass
class ZeroERResult:
    """Predictions + diagnostics of one ZeroER run."""

    predictions: DataFrame  # (l_id, r_id) with γ > 0.5
    posteriors: pd.DataFrame  # cross pairs: l_id, r_id, gamma
    n_candidates: int
    n_iterations: int
    history: list[float]  # expected log-likelihood per iteration (all models)
    stop: str  # why EM stopped: "tol", "stable", "cycle", "cap", or "empty" (no cross pairs)


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
) -> tuple[dict[str, ModelParams], np.ndarray, list[float], str]:
    """Algorithm 2's loop over the linked models in ``backends``; returns the
    last parameters, the cross posterior, the likelihood history and why the
    loop stopped.

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
    ``_STABLE_WINDOW`` iterations. The stop reason is ``"tol"`` (likelihood
    threshold), ``"stable"`` (stable match set), ``"cycle"`` (a match-set
    transition repeats) or ``"cap"`` (``max_iter`` reached). After a cycle
    or at the cap, the returned cross posterior is the average of the last
    ``tail_average`` iterations' γ (§3.3's remedy); otherwise it is the last
    iteration's.
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
    stop = "cap"
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
            stop = "tol"
            break
        if len(match_sets) == _STABLE_WINDOW and len(set(match_sets)) == 1:
            stop = "stable"
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
                stop = "cycle"
                break
            seen_transitions.add(transition)
    if stop in ("cycle", "cap"):
        gamma = np.mean(np.stack(gamma_tail), axis=0)
    return params, gamma, history, stop


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

    ``transitivity='constraint'`` is Algorithm 2 (requires the intra models
    of ``featurize(include_intra=True)``), ``'none'`` is Algorithm 1,
    ``'post'`` is Algorithm 1 + duplicate-free one-to-one post-processing
    (the Table 5 ablation). The backends are built from ``task.matrices``,
    so this runs no Spark job before the predictions frame and reads no
    DataFrame view. A model without candidate pairs is not fitted: an empty
    intra model leaves its pairs blocked out (γ = 0), and an empty cross
    model yields no predictions.
    """
    config = config or EMConfig()
    use_constraint = transitivity == "constraint"
    models = tuple(MODEL_SIDES) if use_constraint else ("c",)
    if not task.matrices.keys() >= set(models):
        raise ValueError("transitivity='constraint' needs featurize(include_intra=True)")
    collected = {m: NumpyBackend(*task.matrices[m]) for m in models}
    cb = collected["c"]
    backends = {m: b for m, b in collected.items() if b.n}

    gamma, history, stop = np.zeros(0), [], "empty"
    if cb.n:
        _, gamma, history, stop = _joint_em(backends, task.groups, config, use_constraint)
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
        stop=stop,
    )
