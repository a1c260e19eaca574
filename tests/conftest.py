"""Shared test fixtures: small datasets and featurized tasks (session-scoped
so the expensive blocking/featurization runs once per test session), and a
watchdog that cancels the Spark jobs of a hung test."""
from __future__ import annotations

import threading

import pytest

# A test still running Spark jobs after this long is taken as hung: several
# times the slowest test of a full run (68-94 s, the AL-RF tests).
HUNG_TEST_S = 600.0


class JobWatchdog:
    """Cancels every job of the active SparkContext once its timer fires, so
    a hung job fails its test instead of stalling the suite. A job that
    ignores the cancellation (a task thread busy in native code) still holds
    its core, but the driver call that waits on it returns."""

    def __init__(self) -> None:
        self.timer: threading.Timer | None = None
        self.fired = False

    def arm(self, seconds: float) -> None:
        """Fire ``seconds`` from now (replacing an armed timer)."""
        self.disarm()
        self.timer = threading.Timer(seconds, self._cancel)
        self.timer.daemon = True
        self.timer.start()

    def disarm(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def _cancel(self) -> None:
        from pyspark import SparkContext

        sc = SparkContext._active_spark_context
        if sc is not None:
            self.fired = True
            sc.cancelAllJobs()


@pytest.fixture(autouse=True)
def hung_job_watchdog():
    """Armed for :data:`HUNG_TEST_S` around every test. A test that does not
    start Spark is not made to: the watchdog cancels only the jobs of a
    context that already runs."""
    watchdog = JobWatchdog()
    watchdog.arm(HUNG_TEST_S)
    yield watchdog
    watchdog.disarm()


@pytest.fixture(scope="session")
def fz(spark):
    """Small Fodors-Zagats (clean restaurants)."""
    from repro.erdata import fodors_zagats

    return fodors_zagats(spark, scale=0.3)


@pytest.fixture(scope="session")
def ds_dirty(spark):
    """Small DBLP-Scholar (dirty, right side has duplicates)."""
    from repro.erdata import dblp_scholar

    return dblp_scholar(spark, scale=0.12)


@pytest.fixture(scope="session")
def ag_small(spark):
    """Small Amazon-Google (long descriptions, numeric price)."""
    from repro.erdata import amazon_google

    return amazon_google(spark, scale=0.05)


@pytest.fixture(scope="session")
def task_fz(spark, fz):
    """Featurized FZ with intra-table models (for ZeroER end-to-end tests)."""
    from repro.core.zeroer import featurize

    return featurize(spark, fz, include_intra=True)


@pytest.fixture(scope="session")
def task_ds(spark, ds_dirty):
    """Featurized small DS, cross only (for baseline tests)."""
    from repro.core.zeroer import featurize

    return featurize(spark, ds_dirty, include_intra=False)


@pytest.fixture
def few_partitions(spark):
    """Four shuffle partitions for the duration of a test, for reference
    dataflows whose results do not depend on partitioning: every shuffle
    stage runs one task per partition (one Python worker task each under
    ``mapInPandas``)."""
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    spark.conf.set(key, "4")
    try:
        yield
    finally:
        spark.conf.set(key, saved)
