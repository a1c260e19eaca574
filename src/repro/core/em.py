"""EM engine for the ZeroER generative model (Algorithm 1's inner loop).

The model after feature grouping + correlation sharing has parameters
``Θ = {π_M, μ_M, μ_U, Λ_M, Λ_U}`` (4d+1 scalars); the shared correlation
matrix R is estimated once from all data. Its sufficient statistics are
per-feature first/second moments weighted by the posteriors γ, so one EM
iteration is: (E) per-row class log-likelihoods → γ, (M) weighted moments →
new Θ, covariance composition ``Σ_C = Λ_C R Λ_C`` and adaptive regularization
``Σ_C += K`` (Algorithm 1 lines 8–14).

The passes run on the driver in :class:`NumpyBackend`: each model's
post-blocking feature matrix is collected once (the largest one measured,
DBLP-Scholar's right self-block at scale 0.4, is 320,932 × 29 doubles,
≈74 MB) and every E-step and M-step is vectorized numpy over it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core import gmm, regularization

GammaKey = tuple[int, int]

_GAMMA_CLIP = 1e-7
_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class EMConfig:
    """Knobs of Algorithm 1/2, defaults per the paper's §5.1.

    ``covariance``: ``grouped_shared_corr`` (ZeroER) or ``diag_shared_cov``
    (the "existing approaches" ablation: diagonal Σ shared by both classes).
    ``regularization``: ``adaptive`` (ZeroER), ``uniform`` (sklearn-style
    constant ridge) or ``none``.
    """

    kappa_prime: float = 0.01
    eps_init: float = 0.5
    max_iter: int = 200
    tol: float = 1e-5
    covariance: str = "grouped_shared_corr"
    regularization: str = "adaptive"
    uniform_kappa: float = 1e-6  # sklearn GaussianMixture reg_covar default
    tail_average: int = 20  # γ-averaging window when max_iter is hit (§3.3)


@dataclass
class SuffStats:
    """Weighted per-feature moments + expected complete-data log-likelihood."""

    n: float
    n_m: float
    s1_m: np.ndarray
    s2_m: np.ndarray
    s1_u: np.ndarray
    s2_u: np.ndarray
    ell: float


@dataclass
class ModelParams:
    """One component pair's parameters, post-regularization, ready to score."""

    pi_m: float
    mu_m: np.ndarray
    mu_u: np.ndarray
    var_m: np.ndarray  # pre-regularization variances (Λ² diagonals)
    var_u: np.ndarray
    Sigma_m: np.ndarray  # regularized covariances actually used by the E-step
    Sigma_u: np.ndarray
    groups: np.ndarray
    gauss_m: gmm.BlockGaussian = field(repr=False, default=None)
    gauss_u: gmm.BlockGaussian = field(repr=False, default=None)

    def __post_init__(self):
        if self.gauss_m is None:
            self.gauss_m = gmm.BlockGaussian(self.mu_m, self.Sigma_m, self.groups)
            self.gauss_u = gmm.BlockGaussian(self.mu_u, self.Sigma_u, self.groups)


# ---------------------------------------------------------------------------
# Shared numpy kernels
# ---------------------------------------------------------------------------

def class_logliks(X: np.ndarray, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(log π_M + log N(x|θ_M), log π_U + log N(x|θ_U)) per row."""
    logm = np.log(p.pi_m) + p.gauss_m.logpdf(X)
    logu = np.log1p(-p.pi_m) + p.gauss_u.logpdf(X)
    return logm, logu


def gammas(logm: np.ndarray, logu: np.ndarray) -> np.ndarray:
    """Posterior P(y=M|x) from the class log-likelihoods (Eq. 3), clipped
    away from {0,1} so transitivity ratios and entropies stay finite."""
    g = 1.0 / (1.0 + np.exp(np.clip(logu - logm, -700, 700)))
    return np.clip(g, _GAMMA_CLIP, 1.0 - _GAMMA_CLIP)


def stats_from_gamma(
    X: np.ndarray, gamma: np.ndarray,
    logm: np.ndarray | None = None, logu: np.ndarray | None = None,
) -> SuffStats:
    """Sufficient statistics for the M-step; ``ell`` is Eq. 4 (0 at init,
    when no parameters exist yet to score against)."""
    n_m, s1_m, s2_m = gmm.weighted_moments(X, gamma)
    _, s1_u, s2_u = gmm.weighted_moments(X, 1.0 - gamma)
    ell = 0.0
    if logm is not None:
        ell = float(gamma @ logm + (1.0 - gamma) @ logu)
    return SuffStats(float(len(gamma)), n_m, s1_m, s2_m, s1_u, s2_u, ell)


def _encode_ids(ids: np.ndarray) -> np.ndarray:
    """(l_id, r_id) → single int64 key (ids are table row indices < 2^31)."""
    return (ids[:, 0].astype(np.int64) << 32) | ids[:, 1].astype(np.int64)


def apply_overrides(
    ids: np.ndarray, gamma: np.ndarray, overrides: dict[GammaKey, float] | None
) -> np.ndarray:
    """Replace γ at the (l_id, r_id) keys adjusted by transitivity projection.

    Vectorized via sorted-key search: O(n log m) for m overrides, instead of
    a per-row dict probe (this runs twice per EM iteration per model).
    """
    if not overrides:
        return gamma
    okeys = np.fromiter(
        ((k[0] << 32) | k[1] for k in overrides), dtype=np.int64, count=len(overrides)
    )
    ovals = np.fromiter(overrides.values(), dtype=np.float64, count=len(overrides))
    order = np.argsort(okeys)
    okeys, ovals = okeys[order], ovals[order]
    enc = _encode_ids(ids)
    pos = np.clip(np.searchsorted(okeys, enc), 0, len(okeys) - 1)
    hit = okeys[pos] == enc
    out = gamma.copy()
    out[hit] = np.clip(ovals[pos[hit]], _GAMMA_CLIP, 1.0 - _GAMMA_CLIP)
    return out


def build_params(stats: SuffStats, R: np.ndarray, groups: np.ndarray, config: EMConfig) -> ModelParams:
    """M-step: moments → Θ, covariance composition, regularization (lines 8–12)."""
    n_m = max(stats.n_m, 1e-9)
    n_u = max(stats.n - stats.n_m, 1e-9)
    pi_m = float(np.clip(stats.n_m / stats.n, 1e-6, 1.0 - 1e-6))
    mu_m = stats.s1_m / n_m
    mu_u = stats.s1_u / n_u
    var_m = np.clip(stats.s2_m / n_m - mu_m**2, _VAR_FLOOR, None)
    var_u = np.clip(stats.s2_u / n_u - mu_u**2, _VAR_FLOOR, None)

    if config.covariance == "grouped_shared_corr":
        Sigma_m = gmm.compose_covariance(np.sqrt(var_m), R)
        Sigma_u = gmm.compose_covariance(np.sqrt(var_u), R)
    elif config.covariance == "diag_shared_cov":
        shared = (n_m * var_m + n_u * var_u) / (n_m + n_u)
        Sigma_m = np.diag(shared)
        Sigma_u = np.diag(shared.copy())
    else:
        raise ValueError(f"unknown covariance mode {config.covariance!r}")

    if config.regularization == "adaptive":
        K = regularization.adaptive_kappas(
            np.diag(Sigma_m).copy(), np.diag(Sigma_u).copy(), mu_m, mu_u, config.kappa_prime
        )
    elif config.regularization == "uniform":
        K = np.full(len(mu_m), config.uniform_kappa)
    elif config.regularization == "none":
        K = np.zeros(len(mu_m))
    else:
        raise ValueError(f"unknown regularization mode {config.regularization!r}")
    Sigma_m = Sigma_m + np.diag(K)
    Sigma_u = Sigma_u + np.diag(K)
    return ModelParams(pi_m, mu_m, mu_u, var_m, var_u, Sigma_m, Sigma_u, groups)


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

class NumpyBackend:
    """One model's collected (ids, X) feature matrix and its EM passes."""

    def __init__(self, ids: np.ndarray, X: np.ndarray):
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1, 2)
        self.X = np.asarray(X, dtype=np.float64)
        self.n, self.d = self.X.shape
        self._cache_params: ModelParams | None = None
        self._cache: tuple[np.ndarray, np.ndarray] | None = None
        self._index: dict[GammaKey, int] | None = None

    @classmethod
    def from_spark(cls, feat_df: DataFrame, cols: list[str]) -> "NumpyBackend":
        pdf = feat_df.select("l_id", "r_id", *cols).toPandas()
        return cls(pdf[["l_id", "r_id"]].to_numpy(), pdf[cols].to_numpy(dtype=np.float64))

    def _logliks(self, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
        if self._cache_params is not params:
            self._cache = class_logliks(self.X, params)
            self._cache_params = params
        return self._cache

    def global_moments(self, groups: np.ndarray):
        """(n, Σx, [Σ x_g x_gᵀ per group]) for the shared correlation matrix."""
        s1 = self.X.sum(axis=0)
        s2 = [self.X[:, idx].T @ self.X[:, idx] for idx in gmm.group_slices(groups)]
        return float(self.n), s1, s2

    def init_stats(self, eps: float) -> SuffStats:
        """Initialization (line 4): γ=1 iff the row's mean scaled similarity
        ‖x‖₁/d exceeds ε (the paper's ‖x‖ > ε, normalized to [0,1] so the
        default ε=0.5 is dimension-independent)."""
        gamma = (self.X.mean(axis=1) > eps).astype(np.float64)
        return stats_from_gamma(self.X, gamma)

    def suffstats(self, params: ModelParams, overrides: dict[GammaKey, float] | None = None) -> SuffStats:
        logm, logu = self._logliks(params)
        g = apply_overrides(self.ids, gammas(logm, logu), overrides)
        return stats_from_gamma(self.X, g, logm, logu)

    def match_candidates(self, params: ModelParams, thresh: float = 0.5) -> pd.DataFrame:
        logm, logu = self._logliks(params)
        g = gammas(logm, logu)
        keep = g >= thresh
        return pd.DataFrame(
            {
                "l_id": self.ids[keep, 0], "r_id": self.ids[keep, 1],
                "gamma": g[keep], "logm": logm[keep], "logu": logu[keep],
            }
        )

    def _row_index(self) -> dict[GammaKey, int]:
        if self._index is None:
            self._index = {
                (int(a), int(b)): i for i, (a, b) in enumerate(self.ids)
            }
        return self._index

    def lookup(self, params: ModelParams, keys: set[GammaKey]) -> dict[GammaKey, tuple[float, float, float]]:
        if not keys:
            return {}
        logm, logu = self._logliks(params)
        g = gammas(logm, logu)
        index = self._row_index()
        out = {}
        for k in keys:
            i = index.get(k)
            if i is not None:
                out[k] = (float(g[i]), float(logm[i]), float(logu[i]))
        return out

    def posterior_vector(self, params: ModelParams, overrides: dict[GammaKey, float] | None = None) -> np.ndarray:
        logm, logu = self._logliks(params)
        return apply_overrides(self.ids, gammas(logm, logu), overrides)

    def posteriors_pdf(self, gamma: np.ndarray) -> pd.DataFrame:
        return pd.DataFrame({"l_id": self.ids[:, 0], "r_id": self.ids[:, 1], "gamma": gamma})


def shared_correlation(backend, groups: np.ndarray) -> np.ndarray:
    """The preprocessing step of §3.1: estimate R once from all data."""
    n, s1, s2_blocks = backend.global_moments(groups)
    return gmm.block_correlation(s1, s2_blocks, n, groups)

