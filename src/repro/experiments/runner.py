"""The tables' driver and the method registry of Tables 3 and 4.

:func:`run_tables` generates and featurizes each dataset once and hands the
one :class:`repro.core.zeroer.FeaturizedTask` to every requested table. Every
method consumes that task (same blocking, same Magellan-style features — the
paper's protocol) except PP* (its own concatenated-token join) and DM (its
own richer representation).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import import_module

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines import active_learning, deepmatcher_lite, ecm, gmm_naive, kmeans, ppjoin, supervised
from repro.core.zeroer import FeaturizedTask, featurize, run_zeroer
from repro.erdata.generators import CODES, dataset_by_code
from repro.eval import PRF, evaluate

UNSUPERVISED = ["ZeroER", "ECM", "KM-RL", "KM-SK", "GMM", "PP*"]
SUPERVISED = ["RF", "LR", "MLP", "DM"]
ACTIVE = ["AL-RF"]
ALL_METHODS = UNSUPERVISED + SUPERVISED + ACTIVE


@dataclass
class MethodResult:
    """F1 (plus components) of one method on one dataset."""

    dataset: str
    method: str
    f1: float
    precision: float
    recall: float
    extra: dict | None = None

    @classmethod
    def from_prf(cls, dataset: str, method: str, prf: PRF, extra: dict | None = None):
        return cls(dataset, method, prf.f1, prf.precision, prf.recall, extra)


def run_method(
    spark: SparkSession, task: FeaturizedTask, method: str, *, seed: int = 0
) -> MethodResult:
    """Run one Table 3 method on a featurized dataset and score it."""
    ds = task.ds
    truth = ds.matches
    if method == "ZeroER":
        res = run_zeroer(spark, task, transitivity="constraint")
        prf = evaluate(res.predictions, truth)
        return MethodResult.from_prf(ds.code, method, prf, {"iters": res.n_iterations})
    if method == "ECM":
        return MethodResult.from_prf(
            ds.code, method, evaluate(ecm.ecm(spark, task.cross, task.cols), truth)
        )
    if method == "KM-RL":
        return MethodResult.from_prf(
            ds.code, method, evaluate(kmeans.km_rl(spark, task.cross, task.cols), truth)
        )
    if method == "KM-SK":
        return MethodResult.from_prf(
            ds.code, method, evaluate(kmeans.km_sk(task.cross, task.cols, seed=seed), truth)
        )
    if method == "GMM":
        return MethodResult.from_prf(
            ds.code, method, evaluate(gmm_naive.gmm_naive(task.cross, task.cols, seed=seed), truth)
        )
    if method == "PP*":
        best, sweep = ppjoin.pp_star(ds)
        return MethodResult.from_prf(ds.code, method, best, {"sweep": sweep.to_dict("records")})
    if method in ("RF", "LR", "MLP"):
        run = supervised.supervised_f1(method, task.cross, task.cols, truth, seed=seed)
        return MethodResult.from_prf(ds.code, method, run.prf, {"n_train": run.n_train})
    if method == "DM":
        pairs = task.cross.select("l_id", "r_id")
        run = deepmatcher_lite.dm_lite_f1(spark, pairs, ds, seed=seed)
        return MethodResult.from_prf(ds.code, method, run.prf, {"n_train": run.n_train})
    if method == "AL-RF":
        res = active_learning.al_rf(spark, task.cross, task.cols, truth, seed=seed)
        return MethodResult.from_prf(
            ds.code, method, res.prf, {"n_labeled": res.n_labeled, "trajectory": res.trajectory}
        )
    raise ValueError(f"unknown method {method!r}")


def run_tables(
    spark: SparkSession,
    tables: list[int],
    *,
    scale: float,
    datasets: list[str] | None = None,
    seed: int = 0,
    timings: dict[int, list[dict]] | None = None,
) -> dict[int, pd.DataFrame]:
    """Paper tables ``tables`` (numbers 1–5) over ``datasets`` (default all
    five): one frame per table of its ``experiments.table<N>.rows``, the
    datasets in paper order.

    Each dataset is generated and featurized (with the intra models) once,
    and every table reads that one task; then the task's views and the
    dataset's cached tables are released. With ``timings``, each table gets
    one record per dataset under its number: ``dataset``, ``generate_s`` and
    ``featurize_s`` (shared by the tables) and the table's own ``table_s``.
    """
    modules = {n: import_module(f"repro.experiments.table{n}") for n in tables}
    rows: dict[int, list[dict]] = {n: [] for n in tables}
    for code in [c for c in CODES if datasets is None or c in datasets]:
        t0 = time.perf_counter()
        ds = dataset_by_code(spark, code, scale=scale)
        t1 = time.perf_counter()
        task = featurize(spark, ds, include_intra=True)
        shared = {"dataset": code, "generate_s": t1 - t0, "featurize_s": time.perf_counter() - t1}
        for n in tables:
            t = time.perf_counter()
            rows[n] += modules[n].rows(spark, task, seed=seed)
            if timings is not None:
                timings.setdefault(n, []).append(shared | {"table_s": time.perf_counter() - t})
        task.unpersist()
        ds.unpersist()
    return {n: pd.DataFrame(r) for n, r in rows.items()}
