"""Adaptive feature regularization via Bhattacharyya-coefficient overlap (§3.2).

For each feature j, ZeroER picks a ridge ``κ_j`` (added to both components'
variances of that feature) such that the feature's M/U overlap — measured by
the Bhattacharyya coefficient (Eq. 10) — increases by exactly the constant
``κ'`` (Eq. 11). Every feature then loses the same absolute amount of
discriminative power: dominating (near-zero-variance) features are tamed but
the influence *ordering* of features is preserved.

``BC(κ)`` is strictly increasing in κ with ``BC(∞) = 1``, so Eq. 11 has a
unique root whenever the target ``BC_j + κ'`` is below 1; we solve it with a
Newton iteration safeguarded by bisection (the paper uses Newton-Raphson).
"""
from __future__ import annotations

import numpy as np

from repro.core.gmm import VAR_FLOOR


def bhattacharyya(
    var_m: np.ndarray, var_u: np.ndarray, mu_m: np.ndarray, mu_u: np.ndarray
) -> np.ndarray:
    """Per-feature Bhattacharyya coefficient of the M and U Gaussians (Eq. 10)."""
    vm = np.clip(var_m, VAR_FLOOR, None)
    vu = np.clip(var_u, VAR_FLOOR, None)
    ratio = 0.25 * (vm / vu + vu / vm + 2.0)
    dist = 0.25 * np.log(ratio) + 0.25 * (mu_m - mu_u) ** 2 / (vm + vu)
    return np.exp(-dist)


def _bc_scalar(vm: float, vu: float, dmu2: float, kappa: float) -> float:
    # The Newton central difference may probe κ−h slightly below 0; clamp so
    # the variances stay positive and log() never sees a negative ratio.
    a = max(vm + kappa, VAR_FLOOR)
    b = max(vu + kappa, VAR_FLOOR)
    ratio = 0.25 * (a / b + b / a + 2.0)
    return float(np.exp(-(0.25 * np.log(ratio) + 0.25 * dmu2 / (a + b))))


def solve_kappa(
    vm: float, vu: float, dmu2: float, target: float, *, tol: float = 1e-10, max_iter: int = 100
) -> float:
    """κ ≥ 0 with BC(vm+κ, vu+κ) = target, via safeguarded Newton.

    ``dmu2`` is (μ_M − μ_U)². Returns 0 when the feature already overlaps at
    least ``target``; caps at the bisection bracket if the target is
    numerically unreachable.
    """
    vm = max(vm, VAR_FLOOR)
    vu = max(vu, VAR_FLOOR)
    target = min(target, 1.0 - 1e-12)
    if _bc_scalar(vm, vu, dmu2, 0.0) >= target:
        return 0.0
    lo, hi = 0.0, 1e-6
    while _bc_scalar(vm, vu, dmu2, hi) < target:
        hi *= 4.0
        if hi > 1e9:  # pathological: return the cap rather than diverge
            return hi
    kappa = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f = _bc_scalar(vm, vu, dmu2, kappa) - target
        if abs(f) < tol:
            break
        if f < 0:
            lo = kappa
        else:
            hi = kappa
        # Newton step on g(κ) = BC(κ) − target, numerical derivative.
        h = max(1e-9, 1e-6 * kappa)
        df = (_bc_scalar(vm, vu, dmu2, kappa + h) - _bc_scalar(vm, vu, dmu2, kappa - h)) / (2 * h)
        nxt = kappa - f / df if df > 0 else 0.5 * (lo + hi)
        kappa = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return float(kappa)


def adaptive_kappas(
    var_m: np.ndarray,
    var_u: np.ndarray,
    mu_m: np.ndarray,
    mu_u: np.ndarray,
    kappa_prime: float,
) -> np.ndarray:
    """The diagonal of K = diag(κ_1 … κ_d) solving Eq. 11 feature-wise.

    Features whose overlap is already within κ' of the maximum (BC_j + κ' ≥ 1)
    cannot absorb the full increase — Eq. 11 has no finite root there. They
    are also exactly the features with no overfitting risk (M and U already
    nearly coincide), so we close at most half the remaining gap instead of
    letting the solver run off to an effectively-infinite ridge.
    """
    bc0 = bhattacharyya(var_m, var_u, mu_m, mu_u)
    dmu2 = (np.asarray(mu_m) - np.asarray(mu_u)) ** 2
    targets = bc0 + np.minimum(kappa_prime, 0.5 * (1.0 - bc0))
    return np.asarray(
        [
            solve_kappa(float(var_m[j]), float(var_u[j]), float(dmu2[j]), float(targets[j]))
            for j in range(len(bc0))
        ]
    )
