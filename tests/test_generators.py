"""Invariant tests for the five synthetic ER dataset generators."""
from __future__ import annotations

import numpy as np
import pytest

from repro.erdata import generators as gen

CODES = ["FZ", "DA", "DS", "AB", "AG"]
SCALE = 0.12


@pytest.fixture(scope="module")
def built(spark):
    return {c: gen.dataset_by_code(spark, c, scale=SCALE) for c in CODES}


@pytest.mark.parametrize("code", CODES)
def test_schema_matches_attr_types(built, code):
    ds = built[code]
    assert set(ds.attributes) <= set(ds.left.columns)
    assert set(ds.attributes) <= set(ds.right.columns)
    assert set(ds.attr_types) == set(ds.attributes)
    assert "_id" in ds.left.columns and "_id" in ds.right.columns


@pytest.mark.parametrize("code", CODES)
def test_ids_are_dense_and_unique(built, code):
    ds = built[code]
    for side in (ds.left, ds.right):
        ids = sorted(r["_id"] for r in side.select("_id").collect())
        assert ids == list(range(len(ids)))


@pytest.mark.parametrize("code", CODES)
def test_matches_reference_valid_ids(built, code):
    ds = built[code]
    nl, nr, nm = ds.counts()
    m = ds.matches.toPandas()
    assert nm == len(m) == len(m.drop_duplicates())
    assert m.l_id.between(0, nl - 1).all()
    assert m.r_id.between(0, nr - 1).all()
    assert nm > 0


@pytest.mark.parametrize("code", CODES)
def test_counts_scale_with_paper_ratios(built, code):
    ds = built[code]
    nl, nr, nm = ds.counts()
    # matches never exceed the smaller side by more than the documented
    # duplicate factor (DS/AB/AG allow multi-matching).
    assert nm <= 1.4 * min(nl, nr) + 5
    assert nl > 10 and nr > 10


@pytest.mark.parametrize("code", CODES)
def test_blocking_attr_present_and_nonnull(built, code):
    ds = built[code]
    nulls = ds.left.where(ds.left[ds.blocking_attr].isNull()).count()
    assert nulls == 0  # blocking attribute always populated on the left


@pytest.mark.parametrize("code", CODES)
def test_paper_stats_recorded(built, code):
    ds = built[code]
    assert {"tuples", "matches", "attributes"} <= set(ds.paper_stats)
    assert ds.paper_stats["attributes"] == len(ds.attributes)


@pytest.mark.parametrize("code", CODES)
def test_deterministic_in_seed(spark, built, code):
    ds1 = built[code]
    ds2 = gen.dataset_by_code(spark, code, scale=SCALE)
    a = ds1.left.toPandas().fillna("∅").astype(str)
    b = ds2.left.toPandas().fillna("∅").astype(str)
    assert a.equals(b)
    assert ds1.matches.toPandas().equals(ds2.matches.toPandas())


def test_ds_right_side_has_duplicates(built):
    """DBLP-Scholar's defining property: one left paper can match several
    Scholar rows (the right side is not duplicate-free)."""
    m = built["DS"].matches.toPandas()
    assert (m.groupby("l_id").size() > 1).any()


def test_ds_right_much_larger(built):
    nl, nr, _ = built["DS"].counts()
    assert nr > 5 * nl


def test_ds_missing_values_present(built):
    ds = built["DS"]
    rp = ds.right.toPandas()
    assert rp["venue"].isna().mean() > 0.2
    assert rp["year"].isna().mean() > 0.1


@pytest.mark.parametrize("code", ["AB", "AG"])
def test_product_price_missingness(built, code):
    rp = built[code].right.toPandas()
    assert rp["price"].isna().mean() > 0.05
    assert (rp["price"].dropna() > 0).all()


def test_fz_phone_format_divergence(built):
    ds = built["FZ"]
    lp = ds.left.toPandas()
    rp = ds.right.toPandas()
    assert lp["phone"].str.contains("/").all()
    assert not rp["phone"].str.contains("/").any()


def test_fz_is_one_to_one(built):
    m = built["FZ"].matches.toPandas()
    assert m.l_id.is_unique and m.r_id.is_unique


def test_da_year_numeric(built):
    ds = built["DA"]
    assert dict(ds.left.dtypes)["year"] == "double"


@pytest.mark.parametrize("code", ["AB", "AG"])
def test_product_matches_share_tokens(built, code):
    """A sanity floor: most matches share at least one name token."""
    ds = built[code]
    attr = ds.blocking_attr
    lp = ds.left.toPandas().set_index("_id")
    rp = ds.right.toPandas().set_index("_id")
    m = ds.matches.toPandas()
    share = 0
    for l, r in m.to_numpy():
        lt = set(str(lp.loc[l, attr]).lower().split())
        rt = set(str(rp.loc[r, attr]).lower().split())
        share += bool(lt & rt)
    assert share / len(m) > 0.9


def test_codes_in_paper_order(spark):
    assert list(gen.CODES) == CODES
    assert [gen.dataset_by_code(spark, c, scale=0.05).code for c in gen.CODES] == CODES


def test_dataset_by_code_unknown_raises(spark):
    with pytest.raises(KeyError):
        gen.dataset_by_code(spark, "XX")


def test_scale_changes_size(spark, built):
    small = gen.dataset_by_code(spark, "FZ", scale=0.06)
    assert small.left.count() < built["FZ"].left.count()
