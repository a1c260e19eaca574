"""Synthetic ER benchmark datasets (substitute for the five real benchmarks).

The real Fodors-Zagat / DBLP-ACM / DBLP-Scholar / Abt-Buy / Amazon-Google
datasets are not available offline; :mod:`repro.erdata.generators` builds
deterministic synthetic equivalents with the same schemas, size ratios,
match counts and dirtiness profiles (see DESIGN.md, "Substitutions").
"""
from repro.erdata.generators import (  # noqa: F401
    CODES,
    ERDataset,
    abt_buy,
    amazon_google,
    dataset_by_code,
    dblp_acm,
    dblp_scholar,
    fodors_zagats,
)
