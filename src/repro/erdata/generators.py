"""Synthetic equivalents of the five ZeroER benchmark ER datasets.

Each generator returns an :class:`ERDataset` whose two sides mimic the real
benchmark's schema, size ratio, match count and *dirtiness profile*:

- ``fodors_zagats`` (FZ)  — restaurants, clean, systematic format divergence
  (phone separators, city abbreviations) exactly as described in the paper.
- ``dblp_acm`` (DA)       — publications, clean.
- ``dblp_scholar`` (DS)   — publications, dirty right side with *intra-table
  duplicates* (Scholar is not duplicate-free — the property that makes
  transitivity-as-post-processing fail in the paper's Table 5).
- ``abt_buy`` (AB)        — products, hard: long noisy names/descriptions,
  same-brand hard negatives differing only in model code.
- ``amazon_google`` (AG)  — products/software, hard, right side much larger.

All generators are deterministic in ``seed`` and accept a ``scale`` factor;
``scale=1.0`` is the benchmark default size documented in DESIGN.md (FZ/AB/AG
at paper size, DA at half, DS at roughly a quarter × an eighth). Paper sizes
are carried in :attr:`ERDataset.paper_stats` for the Table 2 harness.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.erdata import corrupt, vocab


@dataclass(frozen=True)
class ERDataset:
    """A two-table ER task with ground truth.

    ``left``/``right`` carry an ``_id`` long column plus the string/numeric
    attributes; ``matches`` has columns ``l_id, r_id``. ``attr_types`` maps
    each attribute to one of ``short_str | long_str | phone | numeric`` and
    drives Magellan-style feature generation (one feature *group* per
    attribute). ``blocking_attr`` is the attribute token-blocking keys on.
    """

    name: str
    code: str
    left: DataFrame
    right: DataFrame
    matches: DataFrame
    attributes: list[str]
    attr_types: dict[str, str]
    blocking_attr: str
    paper_stats: dict = field(default_factory=dict)

    def counts(self) -> tuple[int, int, int]:
        """(#left tuples, #right tuples, #matches) — actual, not paper."""
        return (self.left.count(), self.right.count(), self.matches.count())

    def unpersist(self) -> None:
        """Release the cache the generator put on the three tables."""
        for df in (self.left, self.right, self.matches):
            df.unpersist()


def _finish(
    spark: SparkSession,
    *,
    name: str,
    code: str,
    left_rows: list[dict],
    right_rows: list[dict],
    match_pairs: list[tuple[int, int]],
    attributes: list[str],
    attr_types: dict[str, str],
    blocking_attr: str,
    paper_stats: dict,
) -> ERDataset:
    """Assemble pandas rows into Spark DataFrames with stable ``_id`` columns."""
    lp = pd.DataFrame(left_rows, columns=attributes)
    rp = pd.DataFrame(right_rows, columns=attributes)
    for df in (lp, rp):
        for a in attributes:
            if attr_types[a] == "numeric":
                df[a] = pd.to_numeric(df[a], errors="coerce").astype("float64")
            else:
                df[a] = df[a].astype("object").where(df[a].notna(), None)
    lp.insert(0, "_id", np.arange(len(lp), dtype="int64"))
    rp.insert(0, "_id", np.arange(len(rp), dtype="int64"))
    mp = pd.DataFrame(match_pairs, columns=["l_id", "r_id"]).astype("int64")
    # The sides and the matches are read again by `pairs_with_attrs`, PPJoin
    # and `evaluate` (on the matches); caching avoids re-running the Arrow
    # conversion on every action (`ERDataset.unpersist` releases it).
    # `block_models`' SQL statement does not read this cache: its plan scans
    # the local tables.
    return ERDataset(
        name=name,
        code=code,
        left=spark.createDataFrame(lp).cache(),
        right=spark.createDataFrame(rp).cache(),
        matches=spark.createDataFrame(mp).cache(),
        attributes=attributes,
        attr_types=attr_types,
        blocking_attr=blocking_attr,
        paper_stats=paper_stats,
    )


def _n(base: int, scale: float) -> int:
    return max(2, int(round(base * scale)))


# --------------------------------------------------------------------------
# FZ — restaurants
# --------------------------------------------------------------------------

_CITY_ABBREV = {"los angeles": "la", "new york": "ny", "san francisco": "sf"}


def fodors_zagats(spark: SparkSession, *, scale: float = 1.0, seed: int = 11) -> ERDataset:
    """FZ: 533 × 331 restaurants, 112 matches, 7 attributes, clean."""
    rng = np.random.default_rng(seed)
    n_left, n_right, n_match = _n(533, scale), _n(331, scale), _n(112, scale)
    n_match = min(n_match, n_left, n_right)

    name_words = vocab.vocab(rng, 220)
    kinds = ["cafe", "grill", "bistro", "kitchen", "diner", "room", "house", "bar"]
    cities = ["atlanta", "los angeles", "new york", "san francisco", "chicago", "boston"]
    cuisines = ["american", "french", "italian", "chinese", "seafood", "steakhouse",
                "international", "mexican", "japanese", "delis"]
    streets = vocab.vocab(rng, 80)

    def entity() -> dict:
        return {
            "name": f"{rng.choice(name_words)} {rng.choice(name_words)} {rng.choice(kinds)}",
            "addr": vocab.street_address(rng, streets),
            "city": str(rng.choice(cities)),
            "phone": vocab.phone_number(rng),
            "cuisine": str(rng.choice(cuisines)),
            "zip": f"{rng.integers(10000, 99999)}",
        }

    n_entities = n_left + n_right - n_match
    entities = [entity() for _ in range(n_entities)]
    # Hard negatives: ~12% of entities get a sibling at the same address/city
    # (the fd1/fd3 "cafe vs dining room in the same hotel" pattern): shared
    # name head and addr/city, but distinct name tail, phone, cuisine and zip
    # — hard for name-token blocking/joins, but separable by a model that
    # weighs all features, like the real FZ siblings.
    for i in range(0, n_entities, 8):
        j = (i + 1) % n_entities
        base = entities[i]
        head = " ".join(base["name"].split()[:2])
        other_kind = str(rng.choice([k for k in kinds if not base["name"].endswith(k)]))
        other_cuisine = str(rng.choice([c for c in cuisines if c != base["cuisine"]]))
        entities[j] = dict(
            base,
            name=f"{head} {other_kind}",
            phone=vocab.phone_number(rng),
            cuisine=other_cuisine,
            zip=f"{rng.integers(10000, 99999)}",
        )

    def render_left(e: dict) -> dict:
        a, p, l = e["phone"]
        return {
            "name": e["name"], "addr": e["addr"], "city": e["city"],
            "phone": f"{a}/{p}-{l}", "type": e["cuisine"], "cuisine": e["cuisine"],
            "zipcode": e["zip"],
        }

    def render_right(e: dict) -> dict:
        a, p, l = e["phone"]
        city = _CITY_ABBREV.get(e["city"], e["city"])
        qual = str(rng.choice(["", " (new)", " (traditional)"]))
        return {
            "name": corrupt.corrupt_string(e["name"], rng, 0.10),
            "addr": corrupt.corrupt_string(e["addr"], rng, 0.10),
            "city": city, "phone": f"{a}-{p}-{l}",
            "type": f"{e['cuisine']}{qual}", "cuisine": e["cuisine"],
            "zipcode": e["zip"] if rng.random() > 0.05 else f"{rng.integers(10000, 99999)}",
        }

    left_rows = [render_left(entities[i]) for i in range(n_left)]
    right_entity_idx = list(range(n_match)) + list(range(n_left, n_entities))
    right_rows = [render_right(entities[i]) for i in right_entity_idx]
    match_pairs = [(i, i) for i in range(n_match)]

    attrs = ["name", "addr", "city", "phone", "type", "cuisine", "zipcode"]
    types = {"name": "short_str", "addr": "short_str", "city": "short_str",
             "phone": "phone", "type": "short_str", "cuisine": "short_str",
             "zipcode": "short_str"}
    return _finish(
        spark, name="fodors-zagats", code="FZ",
        left_rows=left_rows, right_rows=right_rows, match_pairs=match_pairs,
        attributes=attrs, attr_types=types, blocking_attr="name",
        paper_stats={"tuples": "533 - 331", "matches": 112, "attributes": 7},
    )


# --------------------------------------------------------------------------
# Publications: shared machinery for DA and DS
# --------------------------------------------------------------------------

def _paper_pool(rng: np.random.Generator, n: int) -> list[dict]:
    """``n`` publication entities with hard-negative title families."""
    title_words = vocab.vocab(rng, 500)
    firsts, lasts = vocab.vocab(rng, 120), vocab.vocab(rng, 200)
    venues = [" ".join(vocab.vocab(rng, 3, 2, 3)) for _ in range(12)]
    out: list[dict] = []
    for _ in range(n):
        k = int(rng.integers(5, 11))
        title = " ".join(str(w) for w in rng.choice(title_words, size=k))
        authors = ", ".join(
            vocab.person_name(rng, firsts, lasts) for _ in range(int(rng.integers(1, 4)))
        )
        out.append({
            "title": title, "authors": authors,
            "venue": str(rng.choice(venues)),
            "year": float(rng.integers(1995, 2011)),
        })
    # Title families: every 10th paper is a related-work sibling of its
    # neighbour — same venue, ~1/3 of the title words replaced, and (with
    # probability 0.7) the *same author list*: the same research group's
    # follow-up paper. No single attribute separates these from matches;
    # only the joint per-class structure does.
    for i in range(0, n - 1, 10):
        base = out[i]["title"].split()
        for j in rng.choice(len(base), size=max(2, len(base) // 3), replace=False):
            base[int(j)] = str(rng.choice(title_words))
        sibling = dict(
            out[i + 1],
            title=" ".join(base),
            venue=out[i]["venue"],
        )
        if rng.random() < 0.7:
            sibling["authors"] = out[i]["authors"]
        out[i + 1] = sibling
    return out


def _abbrev_venue(v: str) -> str:
    return "".join(w[0] for w in v.split())


def dblp_acm(spark: SparkSession, *, scale: float = 1.0, seed: int = 22) -> ERDataset:
    """DA: publications, clean; sized at half the paper's 2616 × 2294 / 2224."""
    rng = np.random.default_rng(seed)
    n_left, n_right, n_match = _n(1308, scale), _n(1147, scale), _n(1112, scale)
    n_match = min(n_match, n_left, n_right)
    n_entities = n_left + n_right - n_match
    pool = _paper_pool(rng, n_entities)

    def render_left(e: dict) -> dict:
        return dict(e)

    def render_right(e: dict) -> dict:
        authors = ", ".join(
            f"{a.strip().split()[0][0]}. {a.strip().split()[-1]}"
            for a in e["authors"].split(",")
        )
        return {
            "title": corrupt.corrupt_string(e["title"], rng, 0.06),
            "authors": authors,
            "venue": _abbrev_venue(e["venue"]),
            "year": e["year"],
        }

    left_rows = [render_left(pool[i]) for i in range(n_left)]
    right_idx = list(range(n_match)) + list(range(n_left, n_entities))
    right_rows = [render_right(pool[i]) for i in right_idx]
    match_pairs = [(i, i) for i in range(n_match)]

    attrs = ["title", "authors", "venue", "year"]
    types = {"title": "short_str", "authors": "short_str",
             "venue": "short_str", "year": "numeric"}
    return _finish(
        spark, name="dblp-acm", code="DA",
        left_rows=left_rows, right_rows=right_rows, match_pairs=match_pairs,
        attributes=attrs, attr_types=types, blocking_attr="title",
        paper_stats={"tuples": "2,616 - 2,294", "matches": 2224, "attributes": 4},
    )


def dblp_scholar(spark: SparkSession, *, scale: float = 1.0, seed: int = 33) -> ERDataset:
    """DS: dirty, asymmetric; the Scholar side contains intra-table duplicates.

    Sized at 654 × ~8033 with ~1337 matches (paper: 2616 × 64263, 5347): a
    quarter of the left side and an eighth of the right, keeping the defining
    properties — right ≫ left, multiple right rows matching one left row.
    """
    rng = np.random.default_rng(seed)
    n_left = _n(654, scale)
    n_matched_left = min(_n(1070, scale), n_left)
    n_right_only = _n(6696, scale)
    pool = _paper_pool(rng, n_left + n_right_only)

    def render_left(e: dict) -> dict:
        return dict(e)

    def render_scholar(e: dict) -> dict:
        # Scholar rows are heterogeneously dirty: some are near-verbatim,
        # some heavily mangled. This spread is what defeats a tied-variance
        # model (its match component cannot have fat tails) while ZeroER's
        # per-class variances absorb it — the paper's Table 5 contrast.
        intensity = float(rng.choice([0.08, 0.30, 0.55], p=[0.45, 0.35, 0.20]))
        year = e["year"] if rng.random() > 0.40 else np.nan
        venue = e["venue"]
        r = rng.random()
        if r < 0.50:
            venue = None
        elif r < 0.75:
            venue = _abbrev_venue(venue)
        authors = e["authors"]
        r_auth = rng.random()
        if r_auth < 0.15:
            authors = None  # Scholar rows frequently lack author metadata
        elif r_auth < 0.45:
            authors = authors.split(",")[0] + " et al"
        title = corrupt.corrupt_string(e["title"], rng, intensity)
        if rng.random() < 1.2 * intensity:
            title = corrupt.truncate_tokens(title, rng, keep_min=3)
        return {"title": title, "authors": authors, "venue": venue, "year": year}

    left_rows = [render_left(pool[i]) for i in range(n_left)]
    right_rows: list[dict] = []
    match_pairs: list[tuple[int, int]] = []
    # Matched left papers: each gets 1 scholar copy; 25% get a 2nd duplicate.
    for i in range(n_matched_left):
        right_rows.append(render_scholar(pool[i]))
        match_pairs.append((i, len(right_rows) - 1))
        if rng.random() < 0.25:
            right_rows.append(render_scholar(pool[i]))
            match_pairs.append((i, len(right_rows) - 1))
    for i in range(n_left, n_left + n_right_only):
        right_rows.append(render_scholar(pool[i]))

    attrs = ["title", "authors", "venue", "year"]
    types = {"title": "short_str", "authors": "short_str",
             "venue": "short_str", "year": "numeric"}
    return _finish(
        spark, name="dblp-scholar", code="DS",
        left_rows=left_rows, right_rows=right_rows, match_pairs=match_pairs,
        attributes=attrs, attr_types=types, blocking_attr="title",
        paper_stats={"tuples": "2,616 - 64,263", "matches": 5347, "attributes": 4},
    )


# --------------------------------------------------------------------------
# Products: shared machinery for AB and AG
# --------------------------------------------------------------------------

def _product_pool(rng: np.random.Generator, n: int, kind_words: list[str]) -> list[dict]:
    """``n`` product entities organized in brand families.

    Every brand has its own small kind-word vocabulary, so same-brand
    products share most name/description tokens — the candidate set becomes
    a dense continuum of mid-similarity non-matches (the property that makes
    naive 2-clusterers collapse on the real Abt-Buy / Amazon-Google).
    On top, every 4th product has a sibling whose model code differs by one
    digit — the nearly-indistinguishable hard negatives that cap everyone's
    precision.
    """
    brands = vocab.vocab(rng, 40, 2, 3)
    brand_kinds = {
        b: [str(w) for w in rng.choice(kind_words, size=5, replace=False)] for b in brands
    }
    spec_words = vocab.vocab(rng, 120)
    brand_specs = {
        b: [str(w) for w in rng.choice(spec_words, size=20, replace=False)] for b in brands
    }
    out: list[dict] = []
    for _ in range(n):
        brand = str(rng.choice(brands))
        code = vocab.model_code(rng)
        kw = " ".join(
            str(w) for w in rng.choice(brand_kinds[brand], size=int(rng.integers(2, 4)))
        )
        desc = " ".join(
            str(w) for w in rng.choice(brand_specs[brand], size=int(rng.integers(12, 24)))
        )
        out.append({
            "brand": brand, "code": code, "kind": kw,
            "name": f"{brand} {kw} {code}",
            "description": f"{brand} {kw} {desc}",
            "price": float(np.round(rng.random() * 900 + 20, 2)),
        })
    for i in range(0, n - 1, 4):
        base = out[i]
        digits = list(base["code"])
        pos = int(rng.integers(3, len(digits)))
        digits[pos] = str(rng.integers(0, 10))
        code = "".join(digits)
        out[i + 1] = dict(
            base,
            code=code,
            name=f"{base['brand']} {base['kind']} {code}",
            description=base["description"],
            price=float(np.round(base["price"] * float(rng.uniform(0.7, 1.3)), 2)),
        )
    return out


_MARKETING = ["new", "sale", "oem", "retail", "pack", "black", "white", "pro",
              "plus", "edition", "bundle", "kit", "series", "genuine"]


def abt_buy(spark: SparkSession, *, scale: float = 1.0, seed: int = 44) -> ERDataset:
    """AB: 1082 × 1093 products, ~1097 matches, hard (noisy long text)."""
    rng = np.random.default_rng(seed)
    n_left, n_right = _n(1082, scale), _n(1093, scale)
    n_match_base = min(_n(1060, scale), n_left, n_right)
    kind_words = vocab.vocab(rng, 60)
    n_entities = n_left + (n_right - n_match_base)
    pool = _product_pool(rng, n_entities, kind_words)

    def render_left(e: dict) -> dict:
        return {"name": e["name"], "description": e["description"], "price": e["price"]}

    def render_right(e: dict) -> dict:
        name = corrupt.corrupt_string(e["name"], rng, 0.45, noise_pool=_MARKETING)
        desc = corrupt.maybe_missing(
            corrupt.truncate_tokens(
                corrupt.corrupt_string(e["description"], rng, 0.5), rng, keep_min=4
            ),
            rng, 0.40,
        )
        price = corrupt.jitter_price(e["price"], rng, 0.08) if rng.random() > 0.20 else np.nan
        return {"name": name, "description": desc, "price": price}

    left_rows = [render_left(pool[i]) for i in range(n_left)]
    right_idx = list(range(n_match_base)) + list(range(n_left, n_entities))
    right_rows = [render_right(pool[i]) for i in right_idx]
    match_pairs = [(i, i) for i in range(n_match_base)]
    # ~3% of matched left products have a second right listing (1097 > 1082).
    extra = int(round(0.035 * n_match_base))
    for i in range(extra):
        right_rows.append(render_right(pool[i]))
        match_pairs.append((i, len(right_rows) - 1))

    attrs = ["name", "description", "price"]
    types = {"name": "short_str", "description": "long_str", "price": "numeric"}
    return _finish(
        spark, name="abt-buy", code="AB",
        left_rows=left_rows, right_rows=right_rows, match_pairs=match_pairs,
        attributes=attrs, attr_types=types, blocking_attr="name",
        paper_stats={"tuples": "1,082 - 1,093", "matches": 1097, "attributes": 3},
    )


def amazon_google(spark: SparkSession, *, scale: float = 1.0, seed: int = 55) -> ERDataset:
    """AG: 1363 × 3226 software products, 1300 matches, hard."""
    rng = np.random.default_rng(seed)
    n_left, n_right = _n(1363, scale), _n(3226, scale)
    n_match_base = min(_n(1180, scale), n_left)
    kind_words = vocab.vocab(rng, 50)
    n_right_only = n_right - n_match_base
    n_entities = n_left + n_right_only
    pool = _product_pool(rng, n_entities, kind_words)

    def render_left(e: dict) -> dict:
        version = f"v{int(e['price']) % 9 + 1}.0"
        return {
            "title": f"{e['name']} {version}",
            "manufacturer": e["brand"],
            "description": e["description"],
            "price": e["price"],
        }

    def render_right(e: dict) -> dict:
        version = f"v{int(e['price']) % 9 + 1}.0"
        title = corrupt.corrupt_string(f"{e['name']} {version}", rng, 0.5, noise_pool=_MARKETING)
        manu = corrupt.maybe_missing(e["brand"], rng, 0.35)
        desc = corrupt.maybe_missing(
            corrupt.truncate_tokens(
                corrupt.corrupt_string(e["description"], rng, 0.5), rng, keep_min=4
            ),
            rng, 0.30,
        )
        price = corrupt.jitter_price(e["price"], rng, 0.12) if rng.random() > 0.25 else np.nan
        return {"title": title, "manufacturer": manu, "description": desc, "price": price}

    left_rows = [render_left(pool[i]) for i in range(n_left)]
    right_idx = list(range(n_match_base)) + list(range(n_left, n_entities))
    right_rows = [render_right(pool[i]) for i in right_idx]
    match_pairs = [(i, i) for i in range(n_match_base)]
    extra = min(_n(120, scale), n_match_base)  # 1300 - 1180 double matches
    for i in range(extra):
        right_rows.append(render_right(pool[i]))
        match_pairs.append((i, len(right_rows) - 1))

    attrs = ["title", "manufacturer", "description", "price"]
    types = {"title": "short_str", "manufacturer": "short_str",
             "description": "long_str", "price": "numeric"}
    return _finish(
        spark, name="amazon-google", code="AG",
        left_rows=left_rows, right_rows=right_rows, match_pairs=match_pairs,
        attributes=attrs, attr_types=types, blocking_attr="title",
        paper_stats={"tuples": "1,363 - 3,226", "matches": 1300, "attributes": 4},
    )


_GENERATORS = {
    "FZ": fodors_zagats,
    "DA": dblp_acm,
    "DS": dblp_scholar,
    "AB": abt_buy,
    "AG": amazon_google,
}


CODES = tuple(_GENERATORS)  # the paper's dataset order


def dataset_by_code(spark: SparkSession, code: str, *, scale: float = 1.0) -> ERDataset:
    """Build one dataset by its paper code (FZ/DA/DS/AB/AG)."""
    return _GENERATORS[code](spark, scale=scale)
