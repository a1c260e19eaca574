"""Similarity-function library + Magellan-style feature generation.

This is the offline substitute for the Magellan ``py_entitymatching`` feature
engineering ZeroER consumes as a black box: each attribute gets a bundle of
similarity functions chosen by its type, and the bundle defines one feature
*group* (the unit of ZeroER's block-diagonal covariance).
"""
from repro.textsim.features import (  # noqa: F401
    Feature,
    compute_features,
    feature_columns,
    feature_plan,
    group_ids,
    pairs_with_attrs,
)
