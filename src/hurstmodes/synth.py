"""Synthetic fractal panels: fBm paths with randomly drawn Hurst exponents,
mixed through a Haar-random orthogonal coordinates matrix.

fBm paths use circulant embedding of the increment process (Davies & Harte
1987; Dieker 2004), which is exact and O(n log n).  The embedded spectrum is
Hermitian and the path real, so synthesis works on the half spectrum only: the
n+1 distinct circulant eigenvalues come from one real transform of the
autocovariance and are cached per (H, n) as n+1 scaled weights, and each path
is one inverse real FFT of length 2n.

The rows of a panel are independent under the seed tree, and their normals,
FFT and cumulative sum run in numpy code that releases the GIL, so
gen_panel synthesizes them on wavelet's row pool (_each_row, which the
cascade shares): a thread per CPU the process may run on, capped at one
thread per six rows, which bounds the temporaries in flight by the panel.
Each row depends only on its own generator and its mode's weights, so the
panel is bitwise the same for any number of threads.  The mixing
Y = Q X then overwrites X in place, one block of columns at a time, so the
panel is the only p x n array gen_panel holds.  The panel is an
ingest.Panel: the analysis modules and ingest never import this simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .ingest import Panel
from .wavelet import _each_row

__all__ = [
    "HurstDistribution",
    "MixingMatrix",
    "fbm_path",
    "gen_panel",
    "sample_hurst",
]


@dataclass(frozen=True)
class HurstDistribution:
    """Discrete law of Hurst exponents: sorted modes in (0,1) with probabilities."""

    modes: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        modes = tuple(float(h) for h in self.modes)
        probs = tuple(float(w) for w in self.probs)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "probs", probs)
        if len(modes) == 0 or len(modes) != len(probs):
            raise ConfigError("modes and probs must be non-empty and of equal length")
        if any(not (0.0 < h < 1.0) for h in modes):
            raise ConfigError(f"modes must lie in the open interval (0,1): {modes}")
        if any(h2 <= h1 for h1, h2 in zip(modes, modes[1:])):
            raise ConfigError(f"modes must be strictly increasing: {modes}")
        if any(not (0.0 < w <= 1.0) for w in probs):
            raise ConfigError(f"probabilities must lie in (0,1]: {probs}")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ConfigError(f"probabilities must sum to 1 within 1e-12, got {sum(probs)!r}")

    @property
    def r(self) -> int:
        return len(self.modes)

    @classmethod
    def point(cls, h: float) -> "HurstDistribution":
        return cls((h,), (1.0,))

    @classmethod
    def uniform(cls, modes) -> "HurstDistribution":
        modes = tuple(sorted(float(h) for h in modes))
        k = len(modes)
        probs = (1.0 / k,) * k
        # nudge the last weight so the tuple sums to 1 exactly in binary
        probs = probs[:-1] + (1.0 - sum(probs[:-1]),)
        return cls(modes, probs)


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class MixingMatrix:
    """The p x p Haar-random orthogonal Q that gen_panel applies to its
    latent panel, the one mixing policy: Q maps each wavelet random matrix
    W_j to Q W_j Q^T, which has the same spectrum, so the mixing leaves
    every statistic as it was."""

    matrix: np.ndarray

    @classmethod
    def haar(cls, p: int, seed: int) -> "MixingMatrix":
        """Haar-distributed random orthogonal matrix.

        QR of an i.i.d. Gaussian matrix with the R-diagonal sign fixed so the
        factor is drawn from the Haar measure rather than a skewed slice of it
        (Mezzadri 2007).  copysign gives each column a sign of +-1 even where
        a diagonal entry is 0.0, so the factor is orthogonal by construction.
        """
        rng = np.random.default_rng((seed, 1))
        q, r = np.linalg.qr(rng.standard_normal((p, p)))
        return cls(q * np.copysign(1.0, np.diag(r)))


def sample_hurst(dist: HurstDistribution, p: int, seed: int) -> np.ndarray:
    """p i.i.d. draws from the Hurst distribution, reproducible under seed."""
    if p < 1:
        raise DomainError(f"need p >= 1, got {p}")
    rng = np.random.default_rng((seed, 0))
    return rng.choice(np.asarray(dist.modes), size=p, p=np.asarray(dist.probs))


def fgn_autocovariance(H: float, n: int) -> np.ndarray:
    """Autocovariance gamma(0..n-1) of unit-step fBm increments.

    For k >= 2 the second difference (k+1)^2H - 2k^2H + (k-1)^2H is taken as
    k^2H (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))): the direct form
    cancels to ~1e-4 relative error at lag 2^18, enough to make the circulant
    embedding indefinite for H near 1.
    """
    k = np.arange(n, dtype=float)
    near, far = k[:2], k[2:]
    head = 0.5 * ((near + 1.0) ** (2.0 * H) - 2.0 * near ** (2.0 * H) + np.abs(near - 1.0) ** (2.0 * H))
    tail = 0.5 * far ** (2.0 * H) * (np.expm1(2.0 * H * np.log1p(1.0 / far))
                                     + np.expm1(2.0 * H * np.log1p(-1.0 / far)))
    return np.concatenate([head, tail])


# the transform of the embedded autocovariance is deterministic and reused
# across paths for the same mode; callers must not write to the weights
@lru_cache(maxsize=64)
def _embedding_sqrt_eigs(H: float, n: int) -> np.ndarray:
    """Half-spectrum weights of the circulant embedding; ConfigError if it is
    not PSD (lru_cache does not cache the error).

    The symmetric length-2n circulant row has n+1 distinct eigenvalues, at
    frequencies 0..n.  The weights are their square roots scaled by
    1/(2 sqrt n), and by sqrt 2 at the real frequencies 0 and n, so that
    _fgn_from_noise needs one multiply and one inverse real FFT.
    """
    lam = np.fft.hfft(fgn_autocovariance(H, n + 1), 2 * n)[: n + 1]
    if lam.min() < -1e-9 * lam.max():
        raise ConfigError(f"circulant embedding not PSD for H={H}, n={n}")
    out = np.sqrt(np.clip(lam, 0.0, None)) / (2.0 * np.sqrt(n))
    out[[0, n]] *= np.sqrt(2.0)
    return out


def _fgn_from_noise(z: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Deterministic linear map from 2n standard normals to an exact fGn path.

    The normals fill the (conjugated) half of a Hermitian spectrum: z[0] and
    z[1] at the real frequencies 0 and n, z[2:n+1] - i z[n+1:] in between.
    Weighted, its inverse real FFT of length 2n is the real embedded path.
    Kept separate from the random draws so its implied covariance can be
    checked column by column in tests.
    """
    c = np.empty(n + 1, dtype=complex)
    c.real[0], c.real[n] = z[0], z[1]
    c.real[1:n] = z[2 : n + 1]
    c.imag[[0, n]] = 0.0
    np.negative(z[n + 1 :], out=c.imag[1:n])
    c *= weights
    return np.fft.irfft(c, 2 * n, norm="forward")[:n]


def _path(rng: np.random.Generator, weights: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """One fBm path from 2n normals of rng, written into out (length n): the
    body shared by fbm_path and gen_panel's rows."""
    return np.cumsum(_fgn_from_noise(rng.standard_normal(2 * n), weights, n), out=out)


def fbm_path(H: float, n: int, seed: int | None = None, rng: np.random.Generator | None = None) -> np.ndarray:
    """One exact discrete-time fBm path (B_H(1), ..., B_H(n)) by circulant embedding."""
    if not (0.0 < H < 1.0):
        raise DomainError(f"Hurst exponent must lie in (0,1), got {H}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if rng is None:
        rng = np.random.default_rng((0 if seed is None else seed, 2, 0))
    return _path(rng, _embedding_sqrt_eigs(H, n), n, np.empty(n))


_BLOCK = 4096  # panel columns mixed per matrix product


def gen_panel(dist: HurstDistribution, p: int, n: int, seed: int = 0) -> tuple[Panel, np.ndarray]:
    """p x n observed panel Y = Q X with independent fBm rows in X.

    Returns the panel together with the true Hurst exponents of the latent
    rows (for scoring in simulation studies).  Q is MixingMatrix.haar(p,
    seed), the one mixing policy: Q is orthogonal, so it leaves the spectrum
    of every wavelet random matrix as it was.  Y is formed in place of X,
    _BLOCK columns per product through one p x _BLOCK buffer, so the panel
    is the only p x n array.
    """
    if p < 1 or n < 2:
        raise DomainError(f"need p >= 1 and n >= 2, got p={p}, n={n}")
    h = sample_hurst(dist, p, seed)
    # weights of each distinct mode, in order of first appearance, on this
    # thread: the first non-PSD row raises before any row starts, and the
    # rows read no module state
    weights = {}
    for H in h:
        if H not in weights:
            weights[H] = _embedding_sqrt_eigs(H, n)
    x = np.empty((p, n))

    def fill(i: int) -> None:
        _path(np.random.default_rng((seed, 2, i)), weights[h[i]], n, x[i])

    # a row in flight holds ~48 bytes per sample, so at most one thread per
    # six rows keeps the rows in flight from holding more than the panel
    _each_row(p, max(1, p // 6), fill)

    # mixing holds the BLAS calls (QR, product), so it runs after the pool
    # and never shares the CPUs with it
    q = MixingMatrix.haar(p, seed).matrix
    buf = np.empty((p, min(n, _BLOCK)))
    for c in range(0, n, _BLOCK):
        cols = x[:, c : c + _BLOCK]
        out = buf[:, : cols.shape[1]]
        np.matmul(q, cols, out=out)
        cols[...] = out
    return Panel(x), h
