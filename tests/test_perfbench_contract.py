"""The benchmark's use of the program (``perfbench/``), run in the suite.

The benchmark builds tasks from DataFrames in its traced run, patches
``NumpyBackend.from_spark`` and the EM layers' public names, and reads each
operation's pair counts and predictions. A change to any of these then fails
here, not only in a benchmark run. ``perfbench/`` is imported, never changed.
"""
from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_and_untraced_operations_pass_the_check(spark, monkeypatch, few_partitions, fz):
    """One traced and one untraced operation on FZ pass one checker: no
    prediction outside the candidates, and equal pair counts and F1. Each
    pair count is the row count of the task's matrix of that model."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")

    traced, metrics = tracing.traced_operation(spark, fz)
    untraced = workloads.resolve(spark, fz)
    checker = workloads.Checker(None)
    for resolved in (traced, untraced):
        got = workloads.outcome(resolved)
        assert not checker.check(0, got)
        task = resolved[0]
        assert got.pairs == {m: len(task.matrices[m][0]) for m in ("c", "l", "r")}
        got.release()
    assert checker.failed == 0 and not checker.problems
    assert metrics["em.iterations"] == traced[1].n_iterations > 0
    assert metrics["blocking.pairs_cross"] == len(traced[0].matrices["c"][0])
