"""Tests for the EM engine: parameter estimation, the numpy backend, recovery,
and single-model runs of the joint EM loop on degenerate inputs."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.em import (
    EMConfig,
    NumpyBackend,
    apply_overrides,
    build_params,
    class_logliks,
    gammas,
    shared_correlation,
    stats_from_gamma,
)
from repro.core.zeroer import _joint_em
from repro.oracle import assert_equivalent


def synthetic_mixture(n=2000, d=4, pi=0.05, seed=0):
    """A cleanly separated 2-component Gaussian mixture in [0,1]^d."""
    g = np.random.default_rng(seed)
    n_m = int(n * pi)
    Xm = np.clip(g.normal(0.85, 0.05, (n_m, d)), 0, 1)
    Xu = np.clip(g.normal(0.15, 0.05, (n - n_m, d)), 0, 1)
    X = np.vstack([Xm, Xu])
    y = np.concatenate([np.ones(n_m), np.zeros(n - n_m)])
    ids = np.column_stack([np.arange(n), np.arange(n)])
    return ids, X, y


GROUPS2 = np.array([0, 0, 1, 1])


def fit_one(be: NumpyBackend, config: EMConfig, groups=GROUPS2):
    """Algorithm 1 on one model: the joint EM loop with only a cross model."""
    params, _, history, tail_gamma = _joint_em({"c": be}, groups, config, False)
    return params["c"], history, tail_gamma


def test_stats_from_gamma_moments():
    g = np.random.default_rng(1)
    X = g.random((30, 3))
    gamma = g.random(30)
    s = stats_from_gamma(X, gamma)
    assert s.n == 30
    assert s.n_m == pytest.approx(gamma.sum())
    np.testing.assert_allclose(s.s1_m, gamma @ X)
    np.testing.assert_allclose(s.s1_u, (1 - gamma) @ X)
    assert s.ell == 0.0


def test_build_params_from_known_assignment():
    ids, X, y = synthetic_mixture()
    stats = stats_from_gamma(X, y)
    p = build_params(stats, np.eye(4), GROUPS2, EMConfig(regularization="none"))
    assert p.pi_m == pytest.approx(y.mean(), rel=1e-6)
    np.testing.assert_allclose(p.mu_m, X[y == 1].mean(0), atol=1e-9)
    np.testing.assert_allclose(p.mu_u, X[y == 0].mean(0), atol=1e-9)
    np.testing.assert_allclose(p.var_m, X[y == 1].var(0), atol=1e-9)


def test_build_params_diag_shared_cov():
    ids, X, y = synthetic_mixture()
    stats = stats_from_gamma(X, y)
    p = build_params(stats, np.eye(4), GROUPS2, EMConfig(covariance="diag_shared_cov", regularization="none"))
    np.testing.assert_allclose(p.Sigma_m, p.Sigma_u)
    assert np.all(p.Sigma_m == np.diag(np.diag(p.Sigma_m)))


def test_build_params_uniform_reg_adds_constant():
    ids, X, y = synthetic_mixture()
    stats = stats_from_gamma(X, y)
    none = build_params(stats, np.eye(4), GROUPS2, EMConfig(regularization="none"))
    unif = build_params(stats, np.eye(4), GROUPS2, EMConfig(regularization="uniform", uniform_kappa=0.01))
    np.testing.assert_allclose(np.diag(unif.Sigma_m) - np.diag(none.Sigma_m), 0.01, atol=1e-12)


def test_build_params_adaptive_reg_positive_on_degenerate():
    X = np.zeros((100, 2))
    X[:5] = 1.0  # degenerate features: variance 0 within each class
    gamma = np.zeros(100)
    gamma[:5] = 1.0
    stats = stats_from_gamma(X, gamma)
    p = build_params(stats, np.eye(2), np.array([0, 1]), EMConfig())
    assert np.all(np.diag(p.Sigma_m) > 0)


def test_build_params_unknown_modes_raise():
    ids, X, y = synthetic_mixture(n=100)
    stats = stats_from_gamma(X, y)
    with pytest.raises(ValueError):
        build_params(stats, np.eye(4), GROUPS2, EMConfig(covariance="nope"))
    with pytest.raises(ValueError):
        build_params(stats, np.eye(4), GROUPS2, EMConfig(regularization="nope"))


def test_gammas_sigmoid_of_logodds():
    logm = np.array([0.0, 5.0, -5.0])
    logu = np.array([0.0, -5.0, 5.0])
    g = gammas(logm, logu)
    assert g[0] == pytest.approx(0.5)
    assert g[1] > 0.99 and g[2] < 0.01


def test_apply_overrides_vectorized_matches_naive():
    g = np.random.default_rng(3)
    ids = g.integers(0, 50, (200, 2)).astype(np.int64)
    gamma = g.random(200)
    overrides = {(int(ids[i, 0]), int(ids[i, 1])): 0.42 for i in [150, 3, 77]}
    keys = np.array([(a << 32) | b for a, b in overrides], dtype=np.int64)
    out = apply_overrides(ids, gamma, (keys, np.full(len(keys), 0.42)))
    for i in range(200):
        k = (int(ids[i, 0]), int(ids[i, 1]))
        assert out[i] == (pytest.approx(0.42) if k in overrides else gamma[i])
    assert apply_overrides(ids, gamma, (np.zeros(0, np.int64), np.zeros(0))) is gamma
    assert apply_overrides(ids, gamma, None) is gamma


def test_numpy_backend_em_recovers_mixture():
    ids, X, y = synthetic_mixture()
    be = NumpyBackend(ids, X)
    params, hist, _ = fit_one(be, EMConfig())
    gamma = be.posterior_vector(params)
    pred = gamma > 0.5
    assert (pred == (y == 1)).mean() > 0.995
    assert params.pi_m == pytest.approx(0.05, abs=0.01)
    assert len(hist) < 200  # converged


def test_numpy_backend_init_stats_eps():
    ids, X, y = synthetic_mixture()
    be = NumpyBackend(ids, X)
    s = be.init_stats(0.5)
    # matches have mean ≈ 0.85 > 0.5, unmatches ≈ 0.15 < 0.5
    assert s.n_m == pytest.approx(y.sum())


def test_numpy_backend_match_candidates_and_lookup():
    ids, X, y = synthetic_mixture(n=500)
    be = NumpyBackend(ids, X)
    params, _, _ = fit_one(be, EMConfig())
    mc = be.match_candidates(params)
    assert set(mc.columns) == {"l_id", "r_id", "gamma", "logm", "logu"}
    assert (mc.gamma >= 0.5).all()
    head = mc.head(3)
    keys = (head.l_id.to_numpy() << 32) | head.r_id.to_numpy()
    missing = (999999 << 32) | 999999
    found, g, lm, lu = be.lookup(params, np.r_[keys[:2], missing, keys[2:]])
    assert found.tolist() == [True, True, False, True]
    assert g.tolist() == head.gamma.tolist()
    assert lm.tolist() == head.logm.tolist() and lu.tolist() == head.logu.tolist()
    found, g, _, _ = be.lookup(params, np.array([missing]))
    assert found.tolist() == [False] and len(g) == 0


def test_shared_correlation_identity_for_independent_groups():
    g = np.random.default_rng(5)
    X = g.random((3000, 4))
    be = NumpyBackend(np.column_stack([np.arange(3000)] * 2), X)
    R = shared_correlation(be, GROUPS2)
    # independent uniform features: correlations ≈ 0 off-diagonal
    off = R - np.eye(4)
    assert np.abs(off).max() < 0.1


def test_suffstats_oracle_weighted_sums(spark):
    """The M-step's weighted moments equal the SQL aggregation DuckDB runs."""
    ids, X, _ = synthetic_mixture(n=800, seed=7)
    nb = NumpyBackend(ids, X)
    params, _, _ = fit_one(nb, EMConfig(max_iter=2))
    logm, logu = class_logliks(X, params)
    g = gammas(logm, logu)
    gdf = pd.DataFrame(
        {"l_id": ids[:, 0], "r_id": ids[:, 1], "gamma": g, "f0": X[:, 0], "f1": X[:, 1]}
    )
    stats = nb.suffstats(params)
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "n_m": [stats.n_m],
                "s1_f0": [stats.s1_m[0]],
                "s2_f1": [stats.s2_m[1]],
            }
        )
    )
    sql = """
    SELECT SUM(gamma) AS n_m,
           SUM(gamma * f0) AS s1_f0,
           SUM(gamma * f1 * f1) AS s2_f1
    FROM g
    """
    assert_equivalent(got, sql, g=gdf)


def _degenerate(case: str) -> np.ndarray:
    X = np.random.default_rng(11).random((200, 4))
    if case == "no row above eps at init":
        return 0.4 * X  # every row's mean similarity is below ε = 0.5
    if case == "constant feature group":
        X[:, 2:] = 0.7  # group 1 has zero variance in both classes
        return X
    return X[:1]  # one-row model


@pytest.mark.parametrize(
    "case", ["no row above eps at init", "constant feature group", "one-row model"]
)
def test_joint_em_degenerate_single_model(case):
    """Single-model EM on a degenerate input finishes with finite posteriors."""
    X = _degenerate(case)
    be = NumpyBackend(np.column_stack([np.arange(len(X))] * 2), X)
    params, history, tail_gamma = fit_one(be, EMConfig())
    gamma = tail_gamma if tail_gamma is not None else be.posterior_vector(params)
    assert history and len(gamma) == len(X)
    assert np.isfinite(gamma).all() and ((gamma >= 0.0) & (gamma <= 1.0)).all()


def test_from_spark_collects_every_model_sorted(spark):
    """One transfer gives each model its own rows, sorted by (l_id, r_id)
    whatever order the frames hold them in, with each feature row kept on
    its pair; a model without rows gives an empty (0, d) backend."""
    rng = np.random.default_rng(3)
    cols = ["f0", "f1"]

    def frame(n, seed):
        ids = np.random.default_rng(seed).permutation(n * n)[:n]
        pdf = pd.DataFrame({"l_id": ids // n, "r_id": ids % n})
        pdf[cols] = rng.uniform(size=(n, 2))
        return pdf, spark.createDataFrame(pdf.astype({"l_id": "int64", "r_id": "int64"}))

    (pc, dc), (pl, dl) = frame(40, 1), frame(15, 2)
    got = NumpyBackend.from_spark({"c": dc, "l": dl, "r": dl.limit(0)}, cols)
    for m, pdf in (("c", pc), ("l", pl)):
        want = pdf.sort_values(["l_id", "r_id"], ignore_index=True)
        np.testing.assert_array_equal(got[m].ids, want[["l_id", "r_id"]].to_numpy())
        np.testing.assert_array_equal(got[m].X, want[cols].to_numpy())
    assert (got["r"].n, got["r"].d) == (0, 2)
