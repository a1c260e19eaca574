"""End-to-end ZeroER tests on generated datasets (quality + mechanics)."""
from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.core.em import EMConfig
from repro.core.variants import VARIANTS
from repro.core.zeroer import FeaturizedTask, _postprocess_one_to_one, featurize, run_zeroer
from repro.eval import evaluate
from tests.test_scaling import assert_matrices_equal_reference


def test_featurize_shapes(task_fz, fz):
    assert task_fz.cols
    assert len(task_fz.groups) == len(task_fz.cols)
    assert set(task_fz.cross.columns) == {"l_id", "r_id", *task_fz.cols}
    assert task_fz.left is not None and task_fz.right is not None
    # intra pairs are within-table: ids bounded by the table size
    nl = fz.left.count()
    lp = task_fz.left.select("l_id", "r_id").toPandas()
    assert lp.l_id.between(0, nl - 1).all() and lp.r_id.between(0, nl - 1).all()
    assert (lp.l_id < lp.r_id).all()


def test_featurize_scaled_unit_interval(task_fz):
    pdf = task_fz.cross.toPandas()
    vals = pdf[task_fz.cols].to_numpy()
    assert np.nanmin(vals) >= 0.0 and np.nanmax(vals) <= 1.0 + 1e-9
    assert not np.isnan(vals).any()  # imputed


def test_zeroer_fz_quality(spark, fz, task_fz):
    """The paper's headline: ZeroER ≈ perfect on the clean FZ dataset."""
    res = run_zeroer(spark, task_fz, transitivity="constraint")
    prf = evaluate(res.predictions, fz.matches)
    assert prf.f1 >= 0.9
    assert prf.recall >= 0.9


def test_zeroer_result_fields(spark, task_fz):
    res = run_zeroer(spark, task_fz, transitivity="constraint")
    assert res.n_candidates == task_fz.cross.count()
    assert res.n_iterations == len(res.history) > 0
    assert {"l_id", "r_id", "gamma"} <= set(res.posteriors.columns)
    assert res.predictions.columns == ["l_id", "r_id"]


def test_zeroer_predictions_subset_of_candidates(spark, task_fz):
    res = run_zeroer(spark, task_fz, transitivity="constraint")
    extra = res.predictions.join(
        task_fz.cross.select("l_id", "r_id"), ["l_id", "r_id"], "left_anti"
    )
    assert extra.count() == 0


def test_zeroer_no_transitivity_runs(spark, fz, task_fz):
    res = run_zeroer(spark, task_fz, transitivity="none")
    prf = evaluate(res.predictions, fz.matches)
    assert prf.recall >= 0.9  # may lose precision without transitivity


def test_zeroer_constraint_requires_intra(spark, task_ds):
    with pytest.raises(ValueError):
        run_zeroer(task_ds.cross.sparkSession, task_ds, transitivity="constraint")


def _without(task, view: str):
    """``task`` with the model of ``view`` ("cross", "left" or "right") left
    without pairs, built from its matrices alone."""
    ids, X = task.matrices[view[0]]
    matrices = {**task.matrices, view[0]: (ids[:0], X[:0])}
    return FeaturizedTask(task.ds, task.cols, task.groups, matrices)


@pytest.mark.parametrize(
    "empty, transitivity", [("left", "constraint"), ("cross", "constraint"), ("cross", "none")]
)
def test_zeroer_empty_model(spark, fz, task_fz, empty, transitivity):
    """Blocking yields no pairs when no two tuples share a rare token. An
    empty intra model is left out of EM (its pairs stay blocked out, γ = 0);
    an empty cross model gives no candidates and no predictions."""
    task = _without(task_fz, empty)
    res = run_zeroer(spark, task, transitivity=transitivity)
    if empty == "cross":
        assert res.n_candidates == 0 and res.n_iterations == 0 and res.stop == "empty"
        assert res.predictions.count() == 0 and res.posteriors.empty
    else:
        assert res.n_candidates == task_fz.cross.count()
        assert evaluate(res.predictions, fz.matches).f1 >= 0.9


def test_zeroer_stop_reason(spark, task_fz):
    """The result says why EM stopped: at the iteration cap after one
    iteration, and by the likelihood threshold or a stable match set by
    default."""
    capped = run_zeroer(spark, task_fz, config=EMConfig(max_iter=1), transitivity="constraint")
    assert capped.stop == "cap" and capped.n_iterations == 1
    assert run_zeroer(spark, task_fz, transitivity="constraint").stop in ("tol", "stable")


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Route ``owner.name`` through a wrapper that appends to the returned list."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_featurize_and_run_create_one_frame(spark, monkeypatch, few_partitions, fz):
    """featurize builds no DataFrame view, and run_zeroer reads none: the
    only ``createDataFrame`` of Algorithm 2 is the predictions frame."""
    from pyspark.sql import SparkSession

    calls = _count_calls(monkeypatch, SparkSession, "createDataFrame")
    task = featurize(spark, fz, include_intra=True)
    assert not calls
    run_zeroer(spark, task, transitivity="constraint")
    assert len(calls) == 1


def test_task_from_frames_equals_featurized(spark, task_fz):
    """A task built from DataFrames (``cross=``, ``left=``, ``right=``)
    collects them into matrices bit-identical to the featurized task's, and
    keeps the frames as its views; ZeroER's posteriors are equal as bytes."""
    frames = {"cross": task_fz.cross, "left": task_fz.left, "right": task_fz.right}
    task = FeaturizedTask(ds=task_fz.ds, cols=task_fz.cols, groups=task_fz.groups, **frames)
    assert set(task.matrices) == set(task_fz.matrices)
    for m, (ids, X) in task_fz.matrices.items():
        np.testing.assert_array_equal(task.matrices[m][0], ids, err_msg=m)
        assert task.matrices[m][1].tobytes() == X.tobytes(), m
    assert all(getattr(task, name) is df for name, df in frames.items())
    got = run_zeroer(spark, task, transitivity="constraint").posteriors
    want = run_zeroer(spark, task_fz, transitivity="constraint").posteriors
    assert got["gamma"].to_numpy().tobytes() == want["gamma"].to_numpy().tobytes()
    pd.testing.assert_frame_equal(got, want)


def test_unpersist_builds_no_view(monkeypatch, task_fz):
    """Releasing a task whose views were never read builds none of them."""
    from pyspark.sql import SparkSession

    task = FeaturizedTask(task_fz.ds, task_fz.cols, task_fz.groups, task_fz.matrices)
    calls = _count_calls(monkeypatch, SparkSession, "createDataFrame")
    task.unpersist()
    assert not calls
    assert task.cross is not None and len(calls) == 1
    task.unpersist()
    assert len(calls) == 1


def test_zeroer_all_missing_attribute(spark, fz):
    """An attribute that is NULL in both tables end to end: the scaler pins
    its features to a constant 0 in every model, and EM still converges to
    finite posteriors and a good F1 on the remaining attributes."""
    from pyspark.sql import functions as F

    assert fz.blocking_attr != "addr"
    nulled = F.lit(None).cast("string")
    ds = dataclasses.replace(
        fz, left=fz.left.withColumn("addr", nulled), right=fz.right.withColumn("addr", nulled)
    )
    task = featurize(spark, ds, include_intra=True)
    addr_cols = [c for c in task.cols if c.startswith("addr_")]
    assert addr_cols
    for df in (task.cross, task.left, task.right):
        assert (df.select(*addr_cols).toPandas().to_numpy() == 0.0).all()
    assert_matrices_equal_reference(task, ("c", "l", "r"))
    res = run_zeroer(spark, task, transitivity="constraint")
    assert np.isfinite(res.posteriors["gamma"].to_numpy()).all()
    assert evaluate(res.predictions, ds.matches).f1 >= 0.9
    task.unpersist()


@contextlib.contextmanager
def _adaptive_off(spark):
    """Adaptive execution off: it would add a job per shuffle stage, and it
    plans each stage only when the stage runs."""
    saved = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try:
        yield
    finally:
        spark.conf.set("spark.sql.adaptive.enabled", saved)


def _jobs(spark, group: str, fn):
    """(fn's result, ids of the Spark jobs it ran), counted with adaptive
    execution off."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        with _adaptive_off(spark):
            out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, sc.statusTracker().getJobIdsForGroup(group)


def _plan_nodes(df) -> list[str]:
    """Node names of ``df``'s physical plan; a reused exchange is one leaf."""
    todo, names = [df._jdf.queryExecution().executedPlan()], []
    while todo:
        node = todo.pop()
        names.append(node.nodeName())
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return names


def test_featurize_program_plans_one_join(spark, monkeypatch, few_partitions, fz):
    """featurize's Spark program up to the kernels (the frame it hands to
    ``compute_features``) plans one join and two shuffles: by token for the
    document frequencies and the self-join, and by pair for the overlap
    count. Blocking and the attribute joins as separate steps planned 5 joins
    and 8 shuffles."""
    from repro.core import zeroer

    handed, compute_features = [], zeroer.compute_features

    def spy(df, *args):
        handed.append(df)
        return compute_features(df, *args)

    monkeypatch.setattr(zeroer, "compute_features", spy)
    with _adaptive_off(spark):
        task = featurize(spark, fz, include_intra=True)
        (frame,) = handed
        names = _plan_nodes(frame)
    assert set(task.matrices) == {"c", "l", "r"}
    assert frame.columns[:3] == ["model", "l_id", "r_id"]
    assert sum("Join" in n or n == "CartesianProduct" for n in names) == 1, names
    assert names.count("Exchange") == 2, names


def test_algorithm2_spark_job_count(spark, few_partitions):
    """featurize(include_intra) + run_zeroer("constraint") + evaluate runs
    three Spark jobs: the blocking's table counts, the one Arrow collect of
    all three models' features, and the evaluation. Scaling and EM run on
    the driver; a chain of jobs per model ran 16. The count does not depend
    on the partition count."""
    from repro.erdata import fodors_zagats

    fz = fodors_zagats(spark, scale=0.3, seed=12)
    fz.counts()  # the input tables' caches are filled outside the count

    def algorithm2():
        task = featurize(spark, fz, include_intra=True)
        res = run_zeroer(spark, task, transitivity="constraint")
        return evaluate(res.predictions, fz.matches)

    prf, jobs = _jobs(spark, "test_algorithm2_spark_job_count", algorithm2)
    for df in (fz.left, fz.right, fz.matches):
        df.unpersist()
    assert prf.f1 >= 0.9
    assert len(jobs) == 3


def test_run_zeroer_runs_no_spark_job(spark, task_fz):
    """A featurized task carries its scaled matrices: run_zeroer builds its
    backends from them and runs EM and the predictions frame without a job."""
    res, jobs = _jobs(
        spark, "test_run_zeroer_runs_no_spark_job",
        lambda: run_zeroer(spark, task_fz, transitivity="constraint"),
    )
    assert res.n_iterations > 0 and len(jobs) == 0


def test_featurize_twice_then_unpersist_first(spark, few_partitions, fz, task_fz):
    """Two tasks of one dataset share nothing: unpersisting one leaves the
    other's views and posteriors as they were, and featurize leaves no
    persistent RDD behind."""
    sc = spark.sparkContext
    before = set(sc._jsc.getPersistentRDDs().keySet())
    first = featurize(spark, fz, include_intra=True)
    second = featurize(spark, fz, include_intra=True)
    assert set(sc._jsc.getPersistentRDDs().keySet()) == before
    frames = (second.cross, second.left, second.right)
    views = [df.toPandas() for df in frames]
    post = run_zeroer(spark, second, transitivity="constraint").posteriors
    first.unpersist()
    for df, view in zip(frames, views):
        pd.testing.assert_frame_equal(df.toPandas(), view)
    pd.testing.assert_frame_equal(run_zeroer(spark, second, transitivity="constraint").posteriors, post)
    want = run_zeroer(spark, task_fz, transitivity="constraint").posteriors
    pd.testing.assert_frame_equal(post, want)


def test_postprocess_one_to_one_keeps_best():
    post = pd.DataFrame(
        {
            "l_id": [1, 1, 2, 3],
            "r_id": [10, 11, 10, 12],
            "gamma": [0.9, 0.8, 0.95, 0.4],
        }
    )
    out = _postprocess_one_to_one(post)
    got = set(zip(out.l_id, out.r_id))
    # (2,10) wins 10; then (1,10) blocked, (1,11) wins; (3,12) below threshold.
    assert got == {(2, 10), (1, 11)}


def test_postprocess_is_one_to_one(spark, task_fz):
    res = run_zeroer(spark, task_fz, transitivity="post")
    pred = res.predictions.toPandas()
    assert pred.l_id.is_unique and pred.r_id.is_unique


def test_transitivity_beats_postprocessing_on_ds(spark, ds_dirty):
    """The paper's key Table 5 contrast: on DS (right side has duplicates),
    posterior constraints must beat duplicate-free post-processing."""
    task = featurize(spark, ds_dirty, include_intra=True)
    f1 = {}
    for name in ("ZeroER", "post-processing"):
        v = VARIANTS[name]
        res = run_zeroer(spark, task, config=v["config"], transitivity=v["transitivity"])
        f1[name] = evaluate(res.predictions, ds_dirty.matches).f1
    task.unpersist()
    assert f1["ZeroER"] > f1["post-processing"]


def test_variants_registry_complete():
    assert set(VARIANTS) == {"ZeroER", "diag+share cov", "uniform reg", "post-processing"}
    for v in VARIANTS.values():
        assert isinstance(v["config"], EMConfig)
        assert v["transitivity"] in ("constraint", "post")


def test_zeroer_uniform_reg_variant_runs(spark, fz, task_fz):
    v = VARIANTS["uniform reg"]
    res = run_zeroer(spark, task_fz, config=v["config"], transitivity=v["transitivity"])
    assert evaluate(res.predictions, fz.matches).recall > 0.5


def test_zeroer_eps_sensitivity_moderate_range(spark, fz, task_fz):
    """Fig 8(b): quality is stable for moderate ε around the default."""
    f1s = []
    for eps in (0.4, 0.5, 0.6):
        res = run_zeroer(spark, task_fz, config=EMConfig(eps_init=eps), transitivity="constraint")
        f1s.append(evaluate(res.predictions, fz.matches).f1)
    assert min(f1s) >= 0.85
    assert max(f1s) - min(f1s) <= 0.1
