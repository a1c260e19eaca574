"""The suite's hung-job watchdog (``tests/conftest.py``): a Spark job that
outlives the limit is cancelled, so its test fails instead of stalling the
suite."""
from __future__ import annotations

import time

import pytest


def test_watchdog_cancels_sleeping_job(spark, hung_job_watchdog):
    def sleepy(batches):
        for pdf in batches:
            time.sleep(30)
            yield pdf

    hung = spark.range(1, numPartitions=1).mapInPandas(sleepy, "id long")
    hung_job_watchdog.arm(2.0)  # lowered from HUNG_TEST_S for the test
    start = time.monotonic()
    with pytest.raises(Exception, match="cancel"):
        hung.collect()
    assert hung_job_watchdog.fired
    assert time.monotonic() - start < 20
    assert spark.range(3).count() == 3  # later jobs still run
