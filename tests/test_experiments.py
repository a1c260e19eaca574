"""Tests for the table harnesses, their driver and the method registry."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.zeroer import featurize
from repro.erdata import dataset_by_code
from repro.experiments import runner, table1, table2, table3, table4, table5
from repro.experiments.runner import ALL_METHODS, run_method, run_tables

TABLES = {1: table1, 2: table2, 3: table3, 4: table4, 5: table5}


@pytest.fixture(scope="module")
def fz_run(spark):
    """Tables 1, 2 and 5 over FZ alone, with each generation and
    featurization ``run_tables`` asks for recorded."""
    calls = {"generate": [], "featurize": [], "tasks": []}

    def record_generate(spark, code, *, scale):
        calls["generate"].append((code, scale))
        return dataset_by_code(spark, code, scale=scale)

    def record_featurize(spark, ds, **kw):
        calls["featurize"].append((ds.code, kw))
        calls["tasks"].append(featurize(spark, ds, **kw))
        return calls["tasks"][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "dataset_by_code", record_generate)
        mp.setattr(runner, "featurize", record_featurize)
        frames = run_tables(spark, [1, 2, 5], scale=0.06, datasets=["FZ"])
    return frames, calls


def test_registry_matches_paper_methods():
    assert set(ALL_METHODS) == set(table3.PAPER_TABLE3)
    assert len(ALL_METHODS) == 11


def test_paper_constants_complete():
    for tbl in (table3.PAPER_TABLE3, table5.PAPER_TABLE5, table4.PAPER_TABLE4):
        for method, per_ds in tbl.items():
            assert set(per_ds) == {"FZ", "DA", "DS", "AB", "AG"}, method
    for row in table1.PAPER_TABLE1.values():
        assert set(row) == {"FZ", "DA", "DS", "AB", "AG"}


def test_run_method_unknown_raises(spark, task_fz):
    with pytest.raises(ValueError):
        run_method(spark, task_fz, "NOPE")


def test_run_method_zeroer(spark, task_fz):
    res = run_method(spark, task_fz, "ZeroER")
    assert res.dataset == "FZ" and res.method == "ZeroER"
    assert res.f1 > 0.85
    assert res.extra and res.extra["iters"] > 0


def test_run_method_fast_baselines(spark, task_fz):
    for m in ("ECM", "KM-RL", "KM-SK"):
        res = run_method(spark, task_fz, m)
        assert 0.0 <= res.f1 <= 1.0


def test_table2_counts(fz_run):
    frames, calls = fz_run
    df = frames[2]
    assert list(df["dataset"]) == ["FZ"]
    assert (df["attributes"] == df["paper attributes"]).all()
    assert {"tuples", "paper tuples", "matches", "paper matches"} <= set(df.columns)
    nl, nr, nm = calls["tasks"][0].ds.counts()
    assert df.loc[0, "tuples"] == f"{nl} - {nr}" and df.loc[0, "matches"] == nm


def test_run_tables_generates_and_featurizes_once(fz_run):
    frames, calls = fz_run
    assert calls["generate"] == [("FZ", 0.06)]
    assert calls["featurize"] == [("FZ", {"include_intra": True})]
    assert set(frames) == {1, 2, 5}
    assert all(list(df["dataset"].unique()) == ["FZ"] for df in frames.values())
    assert list(frames[5]["variant"]) == list(table5.PAPER_TABLE5)


def test_run_tables_table1_equals_cross_only_featurization(spark, fz_run):
    frames, calls = fz_run
    shared = calls["tasks"][0]
    cross_only = featurize(spark, shared.ds)
    for a, b in zip(shared.matrices["c"], cross_only.matrices["c"]):
        assert np.array_equal(a, b)
    cos_s, cos_r = table1.grouped_cosines(cross_only)
    row = frames[1].iloc[0]
    assert row["cosine(S_M,S_U)"] == round(cos_s, 2)
    assert row["cosine(R_M,R_U)"] == round(cos_r, 2)


def test_tables_job_passes_datasets_and_seed_to_every_table(spark, monkeypatch, tmp_path):
    """``jobs/tables.py --datasets DA FZ --seed 7`` generates DA and FZ alone,
    in paper order, hands every table the seed, releases each task and
    dataset, and writes one BENCH file per table."""
    path = Path(__file__).resolve().parents[1] / "jobs" / "tables.py"
    spec = importlib.util.spec_from_file_location("tables_job", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    generated, released = [], []

    def generate(spark, code, *, scale):
        generated.append((code, scale))
        return SimpleNamespace(code=code, unpersist=lambda: released.append(("ds", code)))

    def fake_featurize(spark, ds, *, include_intra):
        assert include_intra
        return SimpleNamespace(ds=ds, unpersist=lambda: released.append(("task", ds.code)))

    monkeypatch.setattr(runner, "dataset_by_code", generate)
    monkeypatch.setattr(runner, "featurize", fake_featurize)
    # Each fake row also carries the columns the job's pivots of Tables 3 and 5 read.
    pivoted = {"method": "ZeroER", "variant": "ZeroER", "f1": 0.5}
    for n, module in TABLES.items():
        monkeypatch.setattr(
            module, "rows",
            lambda spark, task, *, seed, n=n: [{"table": n, "dataset": task.ds.code, "seed": seed, **pivoted}],
        )
    monkeypatch.chdir(tmp_path)
    args = job.parse_args(["--scale", "0.1", "--datasets", "DA", "FZ", "--seed", "7"])
    frames = job.run(spark, args)
    assert generated == [("FZ", 0.1), ("DA", 0.1)]
    assert released == [("task", "FZ"), ("ds", "FZ"), ("task", "DA"), ("ds", "DA")]
    for n in TABLES:
        want = [{"table": n, "dataset": c, "seed": 7, **pivoted} for c in ("FZ", "DA")]
        assert frames[n].to_dict("records") == want
        record = json.loads((tmp_path / f"BENCH_table{n}.json").read_text())
        assert record["rows"] == want and record["seed"] == 7 and record["scale"] == 0.1
        assert [t["dataset"] for t in record["seconds"]] == ["FZ", "DA"]


def test_table1_cosines_in_range_and_corr_higher(spark, fz, task_fz):
    cos_s, cos_r = table1.grouped_cosines(task_fz)
    assert -1.0 <= cos_s <= 1.0 and -1.0 <= cos_r <= 1.0
    # The paper's claim: correlation matrices agree much more than covariances.
    assert cos_r > cos_s


def test_table4_budget_grid():
    grid = table4._budget_grid(1000, start=50)
    assert grid[0] == 50 and grid[-1] == 1000
    assert all(b < 1000 for b in grid[:-1])
    assert grid == sorted(grid)


def test_table3_pivot_layout():
    import pandas as pd

    df = pd.DataFrame(
        [
            {"dataset": d, "method": m, "f1": 0.5}
            for d in ("FZ", "DA")
            for m in ("ZeroER", "GMM")
        ]
    )
    wide = table3.pivot(df)
    assert list(wide.index) == ["FZ", "DA", "average"]
    assert list(wide.columns) == ["ZeroER", "GMM"]


def test_table5_pivot_layout():
    import pandas as pd

    df = pd.DataFrame(
        [
            {"dataset": d, "variant": v, "f1": 0.5}
            for d in ("FZ",)
            for v in ("ZeroER", "uniform reg")
        ]
    )
    wide = table5.pivot(df)
    assert "average" in wide.index
    assert list(wide.columns) == ["ZeroER", "uniform reg"]
