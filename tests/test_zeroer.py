"""End-to-end ZeroER tests on generated datasets (quality + mechanics)."""
from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.core.em import EMConfig
from repro.core.variants import VARIANTS
from repro.core.zeroer import _postprocess_one_to_one, featurize, run_zeroer
from repro.eval import evaluate


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


@pytest.mark.parametrize(
    "empty, transitivity", [("left", "constraint"), ("cross", "constraint"), ("cross", "none")]
)
def test_zeroer_empty_model(spark, fz, task_fz, empty, transitivity):
    """Blocking yields no pairs when no two tuples share a rare token. An
    empty intra model is left out of EM (its pairs stay blocked out, γ = 0);
    an empty cross model gives no candidates and no predictions."""
    task = dataclasses.replace(task_fz, **{empty: getattr(task_fz, empty).limit(0)})
    res = run_zeroer(spark, task, transitivity=transitivity)
    if empty == "cross":
        assert res.n_candidates == 0 and res.n_iterations == 0
        assert res.predictions.count() == 0 and res.posteriors.empty
    else:
        assert res.n_candidates == task_fz.cross.count()
        assert evaluate(res.predictions, fz.matches).f1 >= 0.9


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
