"""Table 2 — dataset characteristics (#tuples, #matches, #attributes).

Ours are the synthetic generators' actual counts; the paper's counts ride
along so EXPERIMENTS.md can show the size mapping (DESIGN.md documents the
deliberate down-scaling of DA and DS).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.zeroer import FeaturizedTask


def rows(spark: SparkSession, task: FeaturizedTask, *, seed: int = 0) -> list[dict]:
    """Table 2's row for ``task.ds``; ``seed`` is unused (counts draw nothing)."""
    ds = task.ds
    nl, nr, nm = ds.counts()
    return [
        {
            "dataset": ds.code,
            "tuples": f"{nl} - {nr}",
            "paper tuples": ds.paper_stats["tuples"],
            "matches": nm,
            "paper matches": ds.paper_stats["matches"],
            "attributes": len(ds.attributes),
            "paper attributes": ds.paper_stats["attributes"],
        }
    ]
