"""The traced run: per-layer spans and counts recorded from the benchmark side.

Spans are recorded around calls into each layer's public functions, never
inside the program:

- Eager layers (EM, GMM, regularization, transitivity) are wrapped by
  patching the attribute the caller looks up: ``core.zeroer`` calls
  ``em_mod.build_params``/``em_mod.shared_correlation``,
  ``trans_mod.enumerate_constraints``/``trans_mod.resolve`` and the
  ``NumpyBackend`` methods; ``core.em`` calls ``gmm.BlockGaussian.logpdf``
  and ``regularization.adaptive_kappas``.
- Spark layers are lazy, and ``core.zeroer`` imports them by name, so the
  traced operation does not call ``featurize``: it calls ``cross_block``,
  ``self_block``, ``pairs_with_attrs``, ``compute_features`` and
  ``scale_features`` one stage at a time, forcing each with cache + count.
  The result must pass the same correctness check as ``featurize``'s.

A layer's ``*_s`` metric is its self time: its spans' durations minus the
part covered by child spans. ``zeroer.featurize_s`` and ``zeroer.run_s`` are
inclusive; ``zeroer.em_self_s`` is ``run_zeroer``'s self time (the dict
building inside ``_joint_em`` and the result assembly). Each metric is the
median over the run's traced operations. ``trace.traced_s`` next to
``trace.untraced_s`` (untraced operations of the same run) is the tracing
overhead, which includes forcing every Spark stage separately.

Properties of the workload's data are measured once per run, outside any
operation, from the first traced dataset's candidate pairs:
``blocking.recall`` (the share of true matches among the cross candidates),
``textsim.<kernel>_us`` (single-threaded µs/call of the ``textsim.sim``
kernels on a fixed sample of real attribute-value pairs) and
``textsim.repeat_share.<attr>`` (the share of (l_value, r_value) pairs that
repeat an earlier one; 0 for an attribute the dataset does not have).
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pandas as pd

from repro.blocking import cross_block, self_block
from repro.core import em as em_mod
from repro.core import gmm
from repro.core import regularization
from repro.core import transitivity as trans_mod
from repro.core.em import NumpyBackend
from repro.core.scaling import scale_features
from repro.core.zeroer import FeaturizedTask
from repro.textsim import (
    compute_features,
    feature_columns,
    feature_plan,
    group_ids,
    pairs_with_attrs,
    sim,
    tokenize,
)

import workloads

# Attributes of the benchmark's datasets (DBLP-Scholar, Amazon-Google); every
# traced run reports a repeat share for each, so all workloads print one set.
REPEAT_ATTRS = ("title", "authors", "venue", "year", "manufacturer", "description", "price")
# Kernel → call on one sampled pair (l_str, r_str, l_qgrams, r_qgrams).
KERNELS = {
    "lev_sim": lambda s: sim.lev_sim(s[0], s[1]),
    "jaro_winkler": lambda s: sim.jaro_winkler(s[0], s[1]),
    "jaccard": lambda s: sim.jaccard(s[2], s[3]),
    "cosine": lambda s: sim.cosine(s[2], s[3]),
}
KERNEL_SAMPLE = 1000
KERNEL_REPEATS = 5

SPAN_METRICS = {
    "blocking.cross_s": "blocking.cross",
    "blocking.self_s": "blocking.self",
    "textsim.join_s": "textsim.join",
    "textsim.features_s": "textsim.features",
    "scaling.scale_s": "scaling.scale",
    "em.collect_s": "em.collect",
    "em.init_s": "em.init",
    "em.estep_s": "em.estep",
    "em.mstep_s": "em.mstep",
    "gmm.logpdf_s": "gmm.logpdf",
    "regularization.kappa_s": "regularization.kappa",
    "transitivity.enumerate_s": "transitivity.enumerate",
    "transitivity.project_s": "transitivity.project",
    "zeroer.em_self_s": "zeroer.run",
    "eval.evaluate_s": "eval.evaluate",
}
INCLUSIVE_METRICS = {"zeroer.featurize_s": "zeroer.featurize", "zeroer.run_s": "zeroer.run"}
COUNT_METRICS = (
    "blocking.pairs_cross", "blocking.pairs_left", "blocking.pairs_right",
    "textsim.pairs", "em.iterations", "gmm.logpdf_calls",
    "transitivity.constraints", "transitivity.projected",
)


class Tracer:
    """Spans (name, start, end, parent) and counts of one traced operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self time, inclusive time) per span name, summed over its spans."""
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - covered[idx]
            total[name] += end - start
        return own, total

    def metrics(self) -> dict[str, float]:
        own, total = self.times()
        out = {m: own.get(s, 0.0) for m, s in SPAN_METRICS.items()}
        out.update({m: total.get(s, 0.0) for m, s in INCLUSIVE_METRICS.items()})
        out.update({m: self.counts.get(m, 0.0) for m in COUNT_METRICS})
        pairs = self.counts.get("textsim.pairs", 0.0)
        out["textsim.us_per_pair"] = 1e6 * out["textsim.features_s"] / pairs if pairs else 0.0
        return out


def _wrapped(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if on_result is not None:
            on_result(out)
        return out

    return call


@contextmanager
def patched(tracer: Tracer):
    """Route the eager layers' public calls through ``tracer`` spans."""
    def counted(name):
        return lambda out: tracer.count(name, len(out))

    targets = [
        (trans_mod, "enumerate_constraints", "transitivity.enumerate", counted("transitivity.constraints")),
        (trans_mod, "resolve", "transitivity.project", counted("transitivity.projected")),
        (em_mod, "build_params", "em.mstep", None),
        (em_mod, "shared_correlation", "em.init", None),
        (regularization, "adaptive_kappas", "regularization.kappa", None),
        (gmm.BlockGaussian, "logpdf", "gmm.logpdf", lambda out: tracer.count("gmm.logpdf_calls", 1)),
        (NumpyBackend, "init_stats", "em.init", None),
        (NumpyBackend, "suffstats", "em.estep", None),
        (NumpyBackend, "match_candidates", "em.estep", None),
        (NumpyBackend, "lookup", "em.estep", None),
        (NumpyBackend, "posterior_vector", "em.estep", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    saved.append((NumpyBackend, "from_spark", NumpyBackend.__dict__["from_spark"]))
    try:
        for owner, attr, name, on_result in targets:
            setattr(owner, attr, _wrapped(tracer, name, getattr(owner, attr), on_result))
        collect = _wrapped(tracer, "em.collect", NumpyBackend.from_spark)
        NumpyBackend.from_spark = classmethod(lambda cls, *a, **k: collect(*a, **k))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def featurize_staged(spark, ds, tracer: Tracer) -> FeaturizedTask:
    """``featurize(include_intra=True)`` one forced Spark stage at a time."""
    plan = feature_plan(ds.attributes, ds.attr_types)
    cols = feature_columns(plan)
    held = []

    def force(name: str, build):
        # ``build`` runs inside the span: the blocking functions count their
        # input tables and ``scale_features`` fits its scaler eagerly.
        with tracer.span(name):
            df = build().cache()
            n = df.count()
        held.append(df)
        return df, n

    with tracer.span("zeroer.featurize"):
        cross, n_cross = force("blocking.cross", lambda: cross_block(ds.left, ds.right, ds.blocking_attr))
        left, n_left = force("blocking.self", lambda: self_block(ds.left, ds.blocking_attr))
        right, n_right = force("blocking.self", lambda: self_block(ds.right, ds.blocking_attr))
        tracer.count("blocking.pairs_cross", n_cross)
        tracer.count("blocking.pairs_left", n_left)
        tracer.count("blocking.pairs_right", n_right)
        tracer.count("textsim.pairs", n_cross + n_left + n_right)
        scaled = []
        for pairs, lt, rt in ((cross, ds.left, ds.right), (left, ds.left, ds.left), (right, ds.right, ds.right)):
            pa, _ = force("textsim.join", lambda: pairs_with_attrs(pairs, lt, rt, ds.attributes))
            raw, _ = force("textsim.features", lambda: compute_features(pa, plan, ds.attr_types))
            out, _ = force("scaling.scale", lambda: scale_features(raw, cols))
            held.pop()  # the scaled frame is the task's, released with it
            scaled.append(out)
        for df in held:
            df.unpersist()
    return FeaturizedTask(ds=ds, cols=cols, groups=group_ids(plan), cross=scaled[0], left=scaled[1], right=scaled[2])


def traced_operation(spark, ds):
    """One operation with every layer traced; returns (resolved, metrics)."""
    tracer = Tracer()
    t = time.perf_counter()
    with patched(tracer):
        task = featurize_staged(spark, ds, tracer)
        resolved = workloads.resolve(spark, ds, task=task, span=tracer.span)
    took = time.perf_counter() - t
    metrics = tracer.metrics()
    metrics["em.iterations"] = float(resolved[1].n_iterations)
    metrics["trace.traced_s"] = took
    return resolved, metrics


def data_properties(spark, ds, task: FeaturizedTask, seed: int) -> dict[str, float]:
    """Blocking recall, per-attribute value-pair repeat share and kernel µs/call."""
    out: dict[str, float] = {}
    truth = ds.matches.select("l_id", "r_id").distinct()
    n_true = truth.count()
    found = task.cross.select("l_id", "r_id").join(truth, ["l_id", "r_id"]).count()
    out["blocking.recall"] = found / n_true if n_true else 0.0

    frames = [
        pairs_with_attrs(df.select("l_id", "r_id"), lt, rt, ds.attributes).toPandas()
        for df, lt, rt in ((task.cross, ds.left, ds.right), (task.left, ds.left, ds.left), (task.right, ds.right, ds.right))
    ]
    pa = pd.concat(frames, ignore_index=True)
    for attr in REPEAT_ATTRS:
        share = 0.0
        if attr in ds.attributes and len(pa):
            both = pa[[f"l_{attr}", f"r_{attr}"]].astype(str)
            share = 1.0 - len(both.drop_duplicates()) / len(both)
        out[f"textsim.repeat_share.{attr}"] = share

    strings = [a for a in ds.attributes if ds.attr_types[a] in ("short_str", "long_str")]
    rng = np.random.default_rng(seed)
    sample = []
    for attr in strings:
        col = pa[[f"l_{attr}", f"r_{attr}"]].dropna()
        take = rng.choice(len(col), size=min(len(col), KERNEL_SAMPLE // len(strings)), replace=False)
        for lv, rv in col.iloc[np.sort(take)].itertuples(index=False):
            ls, rs = tokenize.normalize(lv), tokenize.normalize(rv)
            sample.append((ls, rs, tokenize.qgrams(ls), tokenize.qgrams(rs)))
    for kernel, fn in KERNELS.items():
        runs = []
        for _ in range(KERNEL_REPEATS):
            t = time.perf_counter()
            for s in sample:
                fn(s)
            runs.append(time.perf_counter() - t)
        out[f"textsim.{kernel}_us"] = 1e6 * statistics.median(runs) / max(1, len(sample))
    return out
