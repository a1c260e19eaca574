"""Shared test fixtures: small datasets and featurized tasks (session-scoped
so the expensive blocking/featurization runs once per test session)."""
from __future__ import annotations

import pytest


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
