"""Benchmark configuration: scale factor shared by all table benchmarks.

``REPRO_BENCH_SCALE`` scales the DESIGN.md dataset sizes (default 0.4; the
wall time of the full 5-table regeneration at that scale on a 4-core box has
not been measured). Table 4's label sweep uses a smaller default because it
trains O(grid) MLlib models per dataset per method.
"""
import os

import pytest

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.4"))
TABLE4_SCALE = float(os.environ.get("REPRO_TABLE4_SCALE", str(min(BENCH_SCALE, 0.25))))


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def table4_scale() -> float:
    return TABLE4_SCALE
