"""Wavelet random matrices and rescaled log-eigenvalue statistics.

At a dyadic scale a*2^j the sample second-moment matrix of the detail
vectors has eigenvalues whose logarithms, divided by 2 log a and shifted by
1/2, estimate the ordered Hurst exponents of the latent rows.  A weighted
regression of log2-eigenvalues across octaves gives the multiscale variant,
which cancels the scale-independent constants and is what real-data
analyses should prefer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, DomainError
from .wavelet import WaveletDecomposition

__all__ = [
    "WaveletRandomMatrix",
    "heuristic_m",
    "log_eigen",
    "log_eigen_multiscale",
    "wavelet_random_matrix",
]


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class WaveletRandomMatrix:
    """Symmetric p x p matrix (1/n_j) sum_k d_k d_k^T at one octave."""

    matrix: np.ndarray
    octave: int
    effective_count: int

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, computed once on first read; raises
        DegenerateSpectrumError on every read when it is not positive."""
        lam = np.linalg.eigvalsh(self.matrix)
        if lam[0] <= 0.0:
            raise DegenerateSpectrumError(
                f"non-positive eigenvalue {lam[0]:.3e} at octave {self.octave}: effective sample "
                "size too small or rank-deficient panel"
            )
        return lam


def wavelet_random_matrix(decomp: WaveletDecomposition, octave: int) -> WaveletRandomMatrix:
    """Second-moment matrix of the border-free detail vectors at an octave.
    Raises DegenerateSpectrumError, before forming it, when p exceeds n_j."""
    d = decomp.require_octave(octave)
    p, n_j = d.shape
    if p > n_j:
        raise DegenerateSpectrumError(
            f"p={p} exceeds the effective sample size n_j={n_j} at octave {octave}: "
            "the matrix is rank deficient"
        )
    # numpy sends d @ d.T to syrk, which mirrors one triangle: exactly symmetric
    return WaveletRandomMatrix(d @ d.T / n_j, octave, n_j)


def log_eigen(wrm: WaveletRandomMatrix, a: int) -> np.ndarray:
    """Per-rank statistic log lambda_l / (2 log a) - 1/2, sorted ascending."""
    if a < 2:
        raise DomainError(f"scale factor a must be >= 2, got {a}")
    return np.log(wrm.eigenvalues) / (2.0 * np.log(a)) - 0.5


def log_eigen_multiscale(decomp: WaveletDecomposition, j1: int, j2: int) -> np.ndarray:
    """Weighted-least-squares slope statistic across octaves j1..j2.

    For each eigenvalue rank, regress log2 lambda_l at octave j on j with
    weights proportional to the effective counts n_j; the estimate is
    (slope - 1) / 2.  Scale-independent constants cancel in the slope, so
    this variant has smaller finite-sample bias than the single-scale one.
    Returns the statistics sorted ascending.
    """
    if not j1 < j2:
        raise ConfigError(f"need j1 < j2, got j1={j1}, j2={j2}")
    octaves = list(range(j1, j2 + 1))
    loglam = []
    weights = []
    for j in octaves:
        wrm = wavelet_random_matrix(decomp, j)
        loglam.append(np.log2(wrm.eigenvalues))
        weights.append(float(wrm.effective_count))
    y = np.vstack(loglam)  # octaves x p, each row ascending
    w = np.asarray(weights)
    x = np.asarray(octaves, dtype=float)
    xbar = (w @ x) / w.sum()
    # sum_j w_j (x_j - xbar) ybar vanishes, so the centered-x form suffices
    slope = ((w * (x - xbar)) @ y) / (w @ (x - xbar) ** 2)
    return np.sort((slope - 1.0) / 2.0)


def heuristic_m(wrm: WaveletRandomMatrix, a: int) -> float:
    """Data-driven upper bound for useful clustering precision values:
    log of the extreme-eigenvalue ratio of the analysis-scale matrix,
    divided by 2 log a.  This equals the spread of log_eigen(wrm, a), so
    every threshold that can produce more than one cluster lies below it.
    Zero when the spectrum is flat.  Reads the spectrum log_eigen has
    already computed for the same matrix."""
    if a < 2:
        raise DomainError(f"scale factor a must be >= 2, got {a}")
    lam = wrm.eigenvalues
    return float(np.log(lam[-1] / lam[0]) / (2.0 * np.log(a)))
