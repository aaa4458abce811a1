"""One-dimensional Gaussian-mixture baseline with BIC model selection.

EM with unequal variances, deterministic quantile initialization, and the
usual 3k-1 parameter count (k means, k variances, k-1 free weights) in the
BIC penalty.  Used as the comparison method for mode counting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["GmmFit", "fit_gmm", "select_gmm"]

_VAR_FLOOR = 1e-12
_TOL = 1e-8
_MAX_ITERS = 500
K_MAX = 3  # largest k select_gmm fits by default; it needs 2 * K_MAX points


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class GmmFit:
    k: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    loglik: float
    bic: float
    collapsed: bool = False  # True if a variance-collapsed component was removed


def _log_componentwise(x, weights, means, variances):
    # k x n matrix of log(w_j N(x_i | mu_j, var_j))
    return (
        np.log(weights)[:, None]
        - 0.5 * np.log(2.0 * np.pi * variances)[:, None]
        - 0.5 * (x[None, :] - means[:, None]) ** 2 / variances[:, None]
    )


def _logsumexp(logr):
    top = logr.max(axis=0)
    return top + np.log(np.exp(logr - top).sum(axis=0))


def fit_gmm(x: np.ndarray, k: int) -> GmmFit:
    """EM fit with k components from a deterministic quantile initialization.

    A log-likelihood decrease between iterations raises RuntimeError, which
    select_gmm does not catch, so a broken fit is never silently skipped.  A
    component whose variance collapses below the floor is removed (k drops,
    flagged) and the fit continues with the survivors.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n < 2 * k:
        raise DomainError(f"need at least 2k={2 * k} points, got {n}")

    if k == 1:
        mean = float(x.mean())
        var = float(np.mean((x - mean) ** 2))
        var = max(var, _VAR_FLOOR)
        ll = float(np.sum(-0.5 * np.log(2 * np.pi * var) - 0.5 * (x - mean) ** 2 / var))
        return GmmFit(1, np.array([1.0]), np.array([mean]), np.array([var]), ll, _bic(ll, 1, n))

    qs = (np.arange(k) + 0.5) / k
    means = np.quantile(x, qs)
    variances = np.full(k, max(float(np.var(x)), _VAR_FLOOR))
    weights = np.full(k, 1.0 / k)

    collapsed = False
    prev_ll = -np.inf
    for _ in range(_MAX_ITERS):
        logr = _log_componentwise(x, weights, means, variances)
        lse = _logsumexp(logr)
        ll = float(lse.sum())
        if ll < prev_ll - 1e-10 * max(1.0, abs(prev_ll)):
            raise RuntimeError(f"EM log-likelihood decreased from {prev_ll!r} to {ll!r}")
        resp = np.exp(logr - lse)

        nk = resp.sum(axis=1)
        weights = nk / n
        means = (resp @ x) / nk
        variances = (resp @ x**2) / nk - means**2

        alive = variances >= _VAR_FLOOR
        if not alive.all():
            collapsed = True
            if not alive.any():
                raise DomainError("all mixture components collapsed")
            weights, means, variances = weights[alive], means[alive], variances[alive]
            weights = weights / weights.sum()
            prev_ll = -np.inf  # restart the monotonicity reference after surgery
            continue

        if ll - prev_ll < _TOL and np.isfinite(prev_ll):
            prev_ll = ll
            break
        prev_ll = ll

    k_eff = len(means)
    order = np.argsort(means)
    return GmmFit(
        k_eff, weights[order], means[order], variances[order], prev_ll, _bic(prev_ll, k_eff, n), collapsed
    )


def _bic(loglik: float, k: int, n: int) -> float:
    return -2.0 * loglik + (3 * k - 1) * np.log(n)


def select_gmm(h_set: np.ndarray, k_max: int = K_MAX, seed: int = 0) -> GmmFit:
    """Best fit over k = 1..k_max by the BIC criterion (smaller is better).

    The fit is deterministic, so seed is accepted only for interface
    symmetry with the spectral pipeline.
    """
    x = np.asarray(h_set, dtype=float)
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    if len(x) < 2 * k_max:
        raise DomainError(f"need p >= 2*k_max = {2 * k_max} points, got {len(x)}")
    fits = []  # the k = 1 fit of >= 2 points cannot fail, so never empty
    for k in range(1, k_max + 1):
        try:
            fits.append(fit_gmm(x, k))
        except DomainError:
            warnings.warn(f"GMM fit with k={k} failed; skipping", RuntimeWarning)
    return min(fits, key=lambda f: f.bic)
