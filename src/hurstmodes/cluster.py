"""Spectral clustering of log-eigenvalue sets at a fixed precision threshold.

The chain is: threshold graph on the sorted statistics, unnormalized graph
Laplacian L = D - A, eigengap count of the ascending spectrum, embedding by
the leading eigenvector rows, and Lloyd k-means on the embedded points.
The resulting partition is converted into mode estimates (cluster means),
probabilities (cluster sizes / p) and the intra-cluster standard deviation
used for model selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .synth import subseed

__all__ = [
    "ClusterScheme",
    "EpsilonGraph",
    "LaplacianSpectrum",
    "eigengap_count",
    "epsilon_graph",
    "estimate_at_epsilon",
    "icsd",
    "kmeans",
    "laplacian_spectrum",
    "spectral_embed",
]

_MAX_ITERS = 100  # Lloyd iterations before kmeans stops without converging


@dataclass(frozen=True)
class EpsilonGraph:
    """0/1 adjacency with zero diagonal: edge iff distance strictly below epsilon."""

    adjacency: np.ndarray
    epsilon: float


@dataclass(frozen=True)
class LaplacianSpectrum:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns aligned with eigenvalues


@dataclass(frozen=True)
class ClusterScheme:
    """Partition of {0..p-1} with derived Hurst-distribution estimates.

    clusters are ordered by their mode estimate; probabilities are exact
    cluster frequencies and therefore sum to 1 exactly.
    """

    clusters: tuple[tuple[int, ...], ...]
    r_hat: int
    mode_estimates: np.ndarray
    prob_estimates: np.ndarray
    icsd: float
    epsilon_used: float

    @property
    def min_cluster_size(self) -> int:
        return min(len(c) for c in self.clusters)


def epsilon_graph(points: np.ndarray, eps: float) -> EpsilonGraph:
    """Threshold graph: vertices i != j joined iff ||x_i - x_j|| < eps (strict)."""
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    x = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("points must be finite")
    if x.ndim == 1:
        x = x[:, None]
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    adj = (dist < eps).astype(float)
    np.fill_diagonal(adj, 0.0)
    return EpsilonGraph(adj, float(eps))


def laplacian_spectrum(graph: EpsilonGraph) -> LaplacianSpectrum:
    """Full symmetric eigendecomposition of L = D - A, ascending."""
    a = graph.adjacency
    lap = np.diag(a.sum(axis=1)) - a
    theta, u = np.linalg.eigh(lap)
    return LaplacianSpectrum(theta, u)


def eigengap_count(spectrum: LaplacianSpectrum) -> int:
    """Index of the largest ascending gap; ties resolve to the smallest index."""
    theta = spectrum.eigenvalues
    if len(theta) < 2:
        raise DomainError(f"need at least 2 eigenvalues, got {len(theta)}")
    gaps = theta[1:] - theta[:-1]
    return int(np.argmax(gaps)) + 1


def spectral_embed(spectrum: LaplacianSpectrum, r_hat: int) -> np.ndarray:
    """Rows of the p x r_hat matrix of leading eigenvectors."""
    p = len(spectrum.eigenvalues)
    if not 1 <= r_hat <= p:
        raise DomainError(f"r_hat must be in 1..{p}, got {r_hat}")
    return spectrum.eigenvectors[:, :r_hat].copy()


def _farthest_point_init(x: np.ndarray, kappa: int, rng: np.random.Generator) -> np.ndarray:
    """kappa distinct rows of x, first seeded uniformly, the rest spread out."""
    distinct = np.unique(x, axis=0)
    centers = np.empty((kappa, x.shape[1]))
    first = rng.integers(len(distinct))
    centers[0] = distinct[first]
    d2 = np.sum((distinct - centers[0]) ** 2, axis=1)
    for i in range(1, kappa):
        centers[i] = distinct[np.argmax(d2)]
        d2 = np.minimum(d2, np.sum((distinct - centers[i]) ** 2, axis=1))
    return centers


def kmeans(points: np.ndarray, kappa: int, seed: int = 0) -> tuple[tuple[int, ...], ...]:
    """Lloyd iteration on d-dimensional points, deterministic under seed.

    Stops when the centers stop moving (or after _MAX_ITERS, a guard real
    arithmetic needs even though exact convergence is typical).  Empty
    clusters are reseeded at the point farthest from their stale center.
    Returns the partition as index tuples, ordered by smallest member.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    p = len(x)
    n_distinct = len(np.unique(x, axis=0))
    if not 1 <= kappa <= n_distinct:
        raise DomainError(f"kappa must be in 1..{n_distinct} (distinct points), got {kappa}")

    centers = _farthest_point_init(x, kappa, subseed(seed, 3))
    labels = np.zeros(p, dtype=int)
    for _ in range(_MAX_ITERS):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        labels = np.argmin(d2, axis=1)  # ties go to the lowest center index
        new_centers = centers.copy()
        for i in range(kappa):
            members = labels == i
            if members.any():
                new_centers[i] = x[members].mean(axis=0)
            else:
                new_centers[i] = x[np.argmax(np.sum((x - centers[i]) ** 2, axis=1))]
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers

    groups = [tuple(np.flatnonzero(labels == i)) for i in range(kappa) if np.any(labels == i)]
    return tuple(sorted(groups, key=lambda g: g[0]))


def icsd(values: np.ndarray, clusters) -> float:
    """Intra-cluster standard deviation: sum over clusters of the root mean
    squared deviation from the cluster mean.  Singletons contribute zero."""
    values = np.asarray(values, dtype=float)
    total = 0.0
    for members in clusters:
        v = values[list(members)]
        total += float(np.sqrt(np.mean((v - v.mean()) ** 2)))
    return total


def estimate_at_epsilon(h_set: np.ndarray, eps: float, seed: int = 0) -> ClusterScheme:
    """Full fixed-precision estimation chain on a log-eigenvalue set.

    Threshold graph, Laplacian eigengap for the number of modes, spectral
    embedding, and k-means; clusters are mapped back to the input indices,
    and mode/probability estimates plus the ICSD are computed from them.
    A count of one short-circuits to the single whole-set cluster.
    """
    values = np.asarray(h_set, dtype=float)
    p = len(values)
    if p < 2:
        raise DomainError(f"need at least 2 points, got {p}")

    spectrum = laplacian_spectrum(epsilon_graph(values, eps))
    r_hat = eigengap_count(spectrum)
    if r_hat == 1:
        clusters = (tuple(range(p)),)
    else:
        rows = spectral_embed(spectrum, r_hat)
        clusters = kmeans(rows, r_hat, seed=seed)

    means = np.array([values[list(c)].mean() for c in clusters])
    order = np.argsort(means)
    clusters = tuple(tuple(sorted(clusters[i])) for i in order)
    means = means[order]
    sizes = np.array([len(c) for c in clusters], dtype=float)
    return ClusterScheme(
        clusters=clusters,
        r_hat=len(clusters),
        mode_estimates=means,
        prob_estimates=sizes / p,
        icsd=icsd(values, clusters),
        epsilon_used=float(eps),
    )
