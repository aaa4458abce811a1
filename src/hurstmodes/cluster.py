"""Spectral clustering of log-eigenvalue sets at a fixed precision threshold.

The chain is: threshold graph on the sorted statistics, unnormalized graph
Laplacian L = D - A, eigengap count of the ascending spectrum (von Luxburg
2007, "A tutorial on spectral clustering", Stat. Comput. 17:395, section 8),
embedding by the leading eigenvector rows, and Lloyd k-means on the embedded
points.  The resulting partition is converted into mode estimates (cluster
means), probabilities (cluster sizes / p) and the intra-cluster standard
deviation used for model selection.

A count of one needs no eigenvectors, so the count is decided by the first
of two tiers that settles it, each giving the count eigh's eigenvalues give:

1. The complement's eigenvalues.  With G' the complement graph,
   L(G) + L(G') = pI - J (Merris 1994, Linear Algebra Appl. 197-198:143), so
   L(G) has the eigenvalues 0 and p - nu, nu those of L(G') less one zero.
   eigvalsh runs on L(G') at the q vertices with a non-neighbor, none if q = 0.
   A count of one is accepted only when the first gap beats every other by
   more than _GAP_MARGIN * max(1, theta_max), over 900,000 times the largest
   disagreement with eigh on the acceptance and p=512 Laplacians (1.1e-14 *
   max(1, theta_max); near-empty graphs, where nu is near p, reach 1.8e-12
   at p = 512); exact ties of the top two gaps, which do occur there, and
   every other outcome go on to tier 2.
2. laplacian_spectrum (eigh), the count from its eigenvalues and k-means on
   the eigenvector rows.

Where the top two gaps tie in exact arithmetic, eigh's rounding decides
which computed gap is the larger, so another LAPACK build or BLAS thread
count can change the count there, and with it r_hat and the chosen
scheme: at 43 of the 12,000 acceptance grid points the rounding, not the
smallest-index rule, gave the count (criterion-4 panel 13 at k = 6-8 gets
47 where the rule gives 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .synth import subseed

__all__ = [
    "ClusterScheme",
    "eigengap_count",
    "epsilon_graph",
    "estimate_at_epsilon",
    "icsd",
    "kmeans",
    "laplacian_spectrum",
]

_MAX_ITERS = 100  # Lloyd iterations before kmeans stops without converging
_GAP_MARGIN = 1e-8  # tier 1's margin, relative to max(1, theta_max)


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
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

    @property
    def min_cluster_size(self) -> int:
        return min(len(c) for c in self.clusters)


def epsilon_graph(values: np.ndarray, eps: float) -> np.ndarray:
    """0/1 adjacency of the threshold graph on 1-D statistics: vertices
    i != j joined iff |x_i - x_j| < eps (strict); zero diagonal."""
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise DomainError(f"statistics must be 1-D, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise DomainError("statistics must be finite")
    adj = (np.abs(x[:, None] - x[None, :]) < eps).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


def laplacian_spectrum(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, eigenvector columns) of L = D - A."""
    return np.linalg.eigh(np.diag(adjacency.sum(axis=1)) - adjacency)


def eigengap_count(theta: np.ndarray) -> int:
    """Index of the largest gap in ascending eigenvalues; ties of the computed
    gaps resolve to the smallest index.  Of gaps that tie in exact
    arithmetic, rounding picks one (see the module docstring)."""
    if len(theta) < 2:
        raise DomainError(f"need at least 2 eigenvalues, got {len(theta)}")
    gaps = theta[1:] - theta[:-1]
    return int(np.argmax(gaps)) + 1


def _complement_spectrum(adjacency: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of L = D - A from the complement graph (tier 1)."""
    p = len(adjacency)
    co = adjacency == 0.0  # the complement's edges
    np.fill_diagonal(co, False)
    keep = co.any(axis=1)
    sub = co[np.ix_(keep, keep)].astype(float)
    nu = np.zeros(p - 1)  # L(G')'s eigenvalues less one zero
    if len(sub):
        nu[p - len(sub):] = np.linalg.eigvalsh(np.diag(sub.sum(axis=1)) - sub)[1:]
    return np.sort(np.r_[0.0, p - nu])


def _count_is_one(adjacency: np.ndarray) -> bool:
    """True when eigengap_count of L = D - A is proved to be 1 by tier 1 of
    the module docstring.  False proves nothing."""
    theta = _complement_spectrum(adjacency)
    gaps = theta[1:] - theta[:-1]
    return gaps[0] - np.max(gaps[1:], initial=-np.inf) > _GAP_MARGIN * max(1.0, theta[-1])


def _farthest_point_init(distinct: np.ndarray, kappa: int, rng: np.random.Generator) -> np.ndarray:
    """kappa of the distinct rows, first seeded uniformly, the rest spread out."""
    centers = np.empty((kappa, distinct.shape[1]))
    first = rng.integers(len(distinct))
    centers[0] = distinct[first]
    d2 = np.sum((distinct - centers[0]) ** 2, axis=1)
    for i in range(1, kappa):
        centers[i] = distinct[np.argmax(d2)]
        d2 = np.minimum(d2, np.sum((distinct - centers[i]) ** 2, axis=1))
    return centers


def kmeans(points: np.ndarray, kappa: int, seed: int = 0) -> tuple[tuple[int, ...], ...]:
    """Lloyd iteration on the rows of a p x d array, deterministic under seed.

    Stops when the centers stop moving (or after _MAX_ITERS, a guard real
    arithmetic needs even though exact convergence is typical).  Empty
    clusters are reseeded at the point farthest from their stale center.
    Returns the partition as index tuples, ordered by smallest member.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"points must be a p x d array, got ndim={x.ndim}")
    p = len(x)
    distinct = np.unique(x, axis=0)
    if not 1 <= kappa <= len(distinct):
        raise DomainError(f"kappa must be in 1..{len(distinct)} (distinct points), got {kappa}")

    centers = _farthest_point_init(distinct, kappa, subseed(seed, 3))
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


def estimate_at_epsilon(h_set: np.ndarray, eps: float, seed: int = 0, *, prove_one: bool = True) -> ClusterScheme:
    """Full fixed-precision estimation chain on a log-eigenvalue set.

    Threshold graph, Laplacian eigengap for the number of modes, spectral
    embedding, and k-means; clusters are mapped back to the input indices,
    and mode/probability estimates plus the ICSD are computed from them.
    A count of one short-circuits to the single whole-set cluster.  The
    chain runs on the stably sorted statistics, so the input order only
    permutes the clusters.

    The count is decided by the first tier of the module docstring that
    settles it.  Tier 1 only ever proves a count of one, the count eigh's
    eigenvalues give there, so both tiers yield the same scheme.
    prove_one=False skips tier 1; it changes the cost, never the result.
    """
    values = np.asarray(h_set, dtype=float)
    p = len(values)
    if p < 2:
        raise DomainError(f"need at least 2 points, got {p}")
    perm = np.argsort(values, kind="stable")
    x = values[perm]

    adjacency = epsilon_graph(x, eps)
    if prove_one and _count_is_one(adjacency):
        r_hat = 1
    else:
        theta, u = laplacian_spectrum(adjacency)
        r_hat = eigengap_count(theta)
    if r_hat == 1:
        clusters = (tuple(range(p)),)
    else:
        clusters = kmeans(u[:, :r_hat], r_hat, seed=seed)

    means = np.array([x[list(c)].mean() for c in clusters])
    order = np.argsort(means)
    clusters = tuple(clusters[i] for i in order)
    means = means[order]
    sizes = np.array([len(c) for c in clusters], dtype=float)
    return ClusterScheme(
        clusters=tuple(tuple(sorted(perm[list(c)].tolist())) for c in clusters),
        r_hat=len(clusters),
        mode_estimates=means,
        prob_estimates=sizes / p,
        icsd=icsd(x, clusters),
    )
