"""Block-diagonal Gaussian math for the ZeroER generative model (§3.1).

After *feature grouping* the covariance of each mixture component is block
diagonal (one block per source attribute); after *correlation sharing* it is
``Σ_C = Λ_C R Λ_C`` with a shared correlation matrix ``R`` estimated once from
all data (Eq. 7). This module holds the matrix plumbing: building block
correlation matrices, composing covariances, and evaluating log-densities
group by group (groups are ≤ ~10 features, so inversion is trivial).
"""
from __future__ import annotations

import numpy as np

VAR_FLOOR = 1e-12  # the smallest variance any estimate takes
_LOG2PI = float(np.log(2.0 * np.pi))


def group_slices(groups: np.ndarray) -> list[np.ndarray]:
    """Index arrays of each feature group, in ascending group-id order."""
    return [np.flatnonzero(groups == g) for g in np.unique(groups)]


def block_correlation(s1: np.ndarray, s2_blocks: list[np.ndarray], n: float, groups: np.ndarray) -> np.ndarray:
    """Shared correlation matrix R (block diagonal) from global moments.

    ``s1`` = Σx per feature; ``s2_blocks[g]`` = Σ x_g x_gᵀ for group g's
    features; ``n`` = row count. Zero-variance features get an identity
    row/column (correlation undefined → treated as uncorrelated).
    """
    d = s1.shape[0]
    R = np.eye(d)
    mu = s1 / n
    for idx, s2 in zip(group_slices(groups), s2_blocks):
        cov = s2 / n - np.outer(mu[idx], mu[idx])
        sd = np.sqrt(np.clip(np.diag(cov), VAR_FLOOR, None))
        corr = cov / np.outer(sd, sd)
        degenerate = np.diag(cov) <= VAR_FLOOR
        corr[degenerate, :] = 0.0
        corr[:, degenerate] = 0.0
        np.fill_diagonal(corr, 1.0)
        R[np.ix_(idx, idx)] = np.clip(corr, -1.0, 1.0)
    return R


def compose_covariance(std: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Σ = Λ R Λ (Eq. 7) for a diagonal Λ given as a std vector."""
    return R * np.outer(std, std)


def weighted_moments(X: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(Σw, Σw·x, Σw·x²) — the per-feature sufficient statistics of the
    reduced model (only diagonal second moments are free parameters)."""
    return float(w.sum()), w @ X, w @ (X * X)


def weighted_cov(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full weighted covariance S and correlation R for one class.

    Used by the Table 1 harness (cosine(S_M, S_U) vs cosine(R_M, R_U) from
    ground truth) and by tests; the EM path never materializes full S.
    """
    n = max(float(w.sum()), VAR_FLOOR)
    mu = (w @ X) / n
    Xc = X - mu
    S = (Xc * w[:, None]).T @ Xc / n
    sd = np.sqrt(np.clip(np.diag(S), VAR_FLOOR, None))
    R = np.clip(S / np.outer(sd, sd), -1.0, 1.0)
    np.fill_diagonal(R, 1.0)
    return S, R


def block_of(M: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Zero out all cross-group entries — the feature-grouping projection."""
    out = np.zeros_like(M)
    for idx in group_slices(groups):
        out[np.ix_(idx, idx)] = M[np.ix_(idx, idx)]
    return out


class BlockGaussian:
    """A multivariate normal with block-diagonal covariance.

    Precomputes each block's inverse and log-determinant so ``logpdf`` is a
    handful of small matmuls per batch — called once per EM iteration per
    component over every candidate pair.
    """

    def __init__(self, mu: np.ndarray, Sigma: np.ndarray, groups: np.ndarray):
        self.mu = np.asarray(mu, dtype=np.float64)
        self._blocks: list[tuple[np.ndarray, np.ndarray, float]] = []
        logdet = 0.0
        for idx in group_slices(groups):
            block = Sigma[np.ix_(idx, idx)]
            block = block + np.eye(len(idx)) * VAR_FLOOR
            sign, ld = np.linalg.slogdet(block)
            if sign <= 0:  # numerically non-PD block: fall back to diagonal
                block = np.diag(np.clip(np.diag(block), VAR_FLOOR, None))
                _, ld = np.linalg.slogdet(block)
            self._blocks.append((idx, np.linalg.inv(block), float(ld)))
            logdet += float(ld)
        self._logdet = logdet
        self._d = len(self.mu)

    def logpdf(self, X: np.ndarray) -> np.ndarray:
        """Row-wise log N(x | μ, Σ) for an (n, d) matrix."""
        quad = np.zeros(X.shape[0])
        for idx, inv, _ in self._blocks:
            Z = X[:, idx] - self.mu[idx]
            quad += np.einsum("ij,jk,ik->i", Z, inv, Z)
        return -0.5 * (self._d * _LOG2PI + self._logdet + quad)
