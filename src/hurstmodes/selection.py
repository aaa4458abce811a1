"""Model selection over the clustering-precision grid.

The fixed-precision estimator runs at eps_k = k*M/m for k = 1..m and the
scheme minimizing the intra-cluster standard deviation is selected.  The
grid is walked from k = m down, and the eigenvector-free proof of a count
of one (see cluster) is tried only until the first point that splits.
Schemes containing clusters smaller than min_cluster are excluded from the
argmin (singleton clusters minimize the ICSD trivially) but stay in the
trace for diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterScheme, estimate_at_epsilon
from .errors import ConfigError, DomainError

__all__ = ["EstimationResult", "SelectionTrace", "select_scheme"]


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class SelectionTrace:
    """Per-grid-point diagnostics of one selection run."""

    grid: np.ndarray
    icsd_curve: np.ndarray
    chosen_index: int
    excluded: np.ndarray  # True where the min-cluster guard removed the point
    schemes: tuple[ClusterScheme, ...]


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class EstimationResult:
    """Selected scheme plus the full selection trace."""

    r_hat: int
    modes: np.ndarray
    probs: np.ndarray
    epsilon_ms: float
    icsd: float
    scheme: ClusterScheme
    trace: SelectionTrace


def _epsilon_seed(seed: int, k: int, m: int) -> int:
    """Sub-seed tied to the grid value k/m rather than the index k, so a
    refined grid reuses identical seeds at coincident epsilon values."""
    g = math.gcd(k, m)
    return np.random.default_rng((seed, 4, k // g, m // g)).integers(2**63)


def select_scheme(
    h_set: np.ndarray,
    grid_max: float,
    m: int = 10,
    seed: int = 0,
    min_cluster: int = 2,
) -> EstimationResult:
    """Estimate the Hurst distribution by ICSD-minimizing precision selection.

    grid_max is the upper end M of the grid, finite and positive; pipelines
    pass the bound that harness.log_eigen_set resolves.  Ties in the ICSD
    resolve toward the smaller epsilon.
    """
    values = np.asarray(h_set, dtype=float)
    if len(values) < 2:
        raise DomainError(f"need at least 2 statistics, got {len(values)}")
    if m < 1:
        raise ConfigError(f"grid size m must be >= 1, got {m}")
    if min_cluster < 1:
        raise ConfigError(f"min_cluster must be >= 1, got {min_cluster}")
    if not (math.isfinite(grid_max) and grid_max > 0.0):
        raise ConfigError(f"grid_max must be finite and positive, got {grid_max}")

    grid = grid_max * np.arange(1, m + 1) / m
    # from the largest epsilon down: a denser graph is the likelier to have a
    # count of one that estimate_at_epsilon proves without eigenvectors, and
    # once a point splits the smaller ones go straight to eigh.  The seeds
    # are tied to k/m and the trace keeps index order, so the walk changes
    # only the cost
    schemes = [None] * m
    prove_one = True
    for k in range(m, 0, -1):
        scheme = estimate_at_epsilon(values, grid[k - 1], seed=_epsilon_seed(seed, k, m), prove_one=prove_one)
        schemes[k - 1] = scheme
        prove_one = prove_one and scheme.r_hat == 1
    curve = np.array([s.icsd for s in schemes])
    excluded = np.array([s.min_cluster_size < min_cluster for s in schemes])

    if excluded.all():
        warnings.warn(
            f"every grid point has a cluster smaller than min_cluster={min_cluster}; "
            "dropping the constraint for this selection",
            RuntimeWarning,
        )
        excluded = np.zeros(len(grid), dtype=bool)

    # argmin returns the first minimum: ties go to the smaller epsilon
    chosen = int(np.argmin(np.where(excluded, np.inf, curve)))
    best = schemes[chosen]

    trace = SelectionTrace(
        grid=grid,
        icsd_curve=curve,
        chosen_index=chosen,
        excluded=excluded,
        schemes=tuple(schemes),
    )
    return EstimationResult(
        r_hat=best.r_hat,
        modes=best.mode_estimates,
        probs=best.prob_estimates,
        epsilon_ms=float(grid[chosen]),
        icsd=float(curve[chosen]),
        scheme=best,
        trace=trace,
    )
