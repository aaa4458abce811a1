"""Daubechies filter banks and the pyramidal multiresolution transform.

The transform keeps, at every octave, only the detail coefficients whose
dependency cone lies entirely inside the observed samples (no zero-padding
contamination at the series edges).  Those are the coefficients with shift
index k in [ceil(T/2^j), floor((n+1)/2^j - T)] for a length-T filter, and
their count n_j ~ n/2^j is the effective sample size at octave j.  Only
the octaves a statistic reads are kept, each as a C-contiguous p x n_j
array; the pyramid computes no high-pass below them and none deeper.  The
cascade runs one series at a time through every octave, so the only p-row
arrays it allocates are the kept detail matrices.

Rows of 2^16 samples or more run on k threads, one per CPU the process
may run on and at most one per row, thread w taking rows w, w + k, ...:
np.convolve releases the GIL inside its loop.  On shorter rows each call
holds the GIL about as long as it computes, so those run on the calling
thread.  Each row writes only its own row of each detail matrix, by the
same operations on any thread, so the details are bitwise the same for any
number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "FilterBank",
    "WaveletDecomposition",
    "daubechies",
    "decompose",
    "max_octave",
    "require_depth",
    "trimmed_count",
]

_MAX_ORDER = 10


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class FilterBank:
    """Conjugate quadrature pair: unit-norm lowpass u and highpass v_k = (-1)^k u_{T-1-k}."""

    lowpass: np.ndarray
    highpass: np.ndarray

    @property
    def support_length(self) -> int:
        return len(self.lowpass)


def _daubechies_initial(order: int) -> np.ndarray:
    """Extremal-phase lowpass filter via spectral factorization.

    Roots of z^{N-1} P((2 - z - 1/z)/4) split into reciprocal pairs; keeping
    the ones inside the unit circle (minimum phase) and the N-fold zero at
    z = -1 gives the classical filter up to normalization, its energy
    already front-loaded.
    """
    n = order
    if n == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    # q(z) = sum_k C(N-1+k, k) (-1/4)^k z^{N-1-k} (z-1)^{2k}, ascending coefficients
    qa = np.zeros(2 * n - 1)
    for k in range(n):
        binom = np.zeros(2 * n - 1)
        factor = np.polynomial.polynomial.polypow([-1.0, 1.0], 2 * k)  # (z-1)^{2k}, ascending
        binom[n - 1 - k : n - 1 - k + 2 * k + 1] = factor
        qa += comb(n - 1 + k, k) * (-0.25) ** k * binom
    roots = np.roots(qa[::-1])
    inside = roots[np.abs(roots) < 1.0]
    h = np.array([1.0], dtype=complex)
    for _ in range(n):
        h = np.convolve(h, [1.0, 1.0])  # (1 + z)^N
    for r in inside:
        h = np.convolve(h, [1.0, -r])
    h = h.real
    h *= np.sqrt(2.0) / h.sum()
    return h


def _daubechies_polish(h: np.ndarray, order: int) -> np.ndarray:
    """Newton refinement on the defining equations (shift-orthonormality and
    the N-fold zero at the Nyquist frequency) to machine precision."""
    n = order
    t = 2 * n
    idx = np.arange(t, dtype=float)
    sign = (-1.0) ** np.arange(t)
    # moment rows scaled to O(1) entries (k/(T-1))^m, 0^0 = 1, for conditioning
    powers = np.vstack([sign * (idx / (t - 1.0)) ** m for m in range(n)])

    u = h.copy()
    for _ in range(50):
        f = np.empty(t)
        jac = np.zeros((t, t))
        for m in range(n):
            shifted = np.zeros(t)
            shifted[: t - 2 * m] = u[2 * m :]
            f[m] = u[: t - 2 * m] @ u[2 * m :] - (1.0 if m == 0 else 0.0)
            grad = np.zeros(t)
            grad[: t - 2 * m] += u[2 * m :]
            grad[2 * m :] += u[: t - 2 * m]
            jac[m] = grad
        f[n:] = powers @ u
        jac[n:] = powers
        if np.max(np.abs(f)) < 1e-14:
            break
        u = u - np.linalg.solve(jac, f)
    return u


def daubechies(n_vanishing: int) -> FilterBank:
    """Daubechies extremal-phase filter bank with the given number of
    vanishing moments (1 = Haar, 2 = the 4-tap filter, ..., up to 10)."""
    if not isinstance(n_vanishing, (int, np.integer)) or not (1 <= n_vanishing <= _MAX_ORDER):
        raise ConfigError(f"n_vanishing must be an integer in 1..{_MAX_ORDER}, got {n_vanishing!r}")
    return _bank(int(n_vanishing))


@lru_cache(maxsize=_MAX_ORDER)
def _bank(n_vanishing: int) -> FilterBank:
    u = _daubechies_polish(_daubechies_initial(n_vanishing), n_vanishing)
    v = ((-1.0) ** np.arange(len(u))) * u[::-1]
    return FilterBank(u, v)


def _window(n: int, support_length: int, octave: int) -> tuple[int, int]:
    """Shift indices (k_lo, k_hi) of the first and last border-free detail
    coefficients at an octave."""
    t, j2 = support_length, 2**octave
    return -((-t) // j2), (n + 1 - t * j2) // j2


def trimmed_count(n: int, support_length: int, octave: int) -> int:
    """Number of border-free detail coefficients at an octave (may be <= 0)."""
    k_lo, k_hi = _window(n, support_length, octave)
    return k_hi - k_lo + 1


def max_octave(n: int, support_length: int) -> int:
    """Deepest octave with at least one border-free coefficient."""
    # a support below 1 leaves a border-free coefficient at every octave
    if support_length < 1:
        raise ConfigError(f"filter support must be at least 1, got {support_length!r}")
    j = 0
    while trimmed_count(n, support_length, j + 1) >= 1:
        j += 1
    return j


def require_depth(n: int, support_length: int, j_max: int) -> None:
    """ConfigError unless a series of length n keeps border-free coefficients
    at every octave up to j_max.  It names the first short octave,
    max_octave + 1: a coefficient at octave j + 1 implies one at j."""
    usable = max_octave(n, support_length)
    if j_max > usable:
        raise ConfigError(
            f"series of length {n} leaves no border-free coefficients at octave {usable + 1} "
            f"(filter support {support_length}); deepest usable octave is {usable}"
        )


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, or os.cpu_count()
    where the platform has none."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# below this row length each np.convolve call holds the GIL about as long
# as it computes, and a pool of rows measured no faster than one thread
_POOL_MIN_LENGTH = 2**16


def _cascade_workers(p: int, n: int, cpus: int) -> int:
    """Threads for the row cascade: one per CPU, at most one per row, and
    one when the rows are shorter than _POOL_MIN_LENGTH."""
    if n < _POOL_MIN_LENGTH:
        return 1
    return max(1, min(cpus, p))


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class WaveletDecomposition:
    """Border-trimmed detail coefficients of the kept octaves for a p-row panel."""

    details: dict[int, np.ndarray]  # kept octave -> C-contiguous p x n_j matrix
    source_n: int

    def require_octave(self, octave: int) -> np.ndarray:
        if octave not in self.details:
            raise DomainError(
                f"octave {octave} not in decomposition (octaves {min(self.details)}..{max(self.details)})"
            )
        return self.details[octave]


def decompose(data: np.ndarray, bank: FilterBank, j_max: int, j_min: int = 1) -> WaveletDecomposition:
    """Pyramidal analysis of a p x n array, keeping the details of octaves j_min..j_max.

    Octave 0 approximations are the raw samples; each coarser octave comes
    from the downsampled low/high-pass recursion (Percival & Walden 2000,
    section 4.6).  The low-pass runs down to octave j_max - 1 and the
    high-pass only at the kept octaves; each kept detail matrix is the
    border-free window, stored as a C-contiguous p x n_j array.  Each row
    runs the whole cascade before its thread starts the next, so its
    approximations are 1-D temporaries and memory peaks at the kept details
    plus one row's temporaries per thread.  Raises ConfigError when j_max
    is past max_octave (see require_depth), and DomainError when data is
    not 2-D.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.ndim != 2:
        raise DomainError(f"decompose needs a p x n array, got shape {data.shape}")
    p, n = data.shape
    t = bank.support_length
    if j_max < 1:
        raise ConfigError(f"j_max must be >= 1, got {j_max}")
    if not 1 <= j_min <= j_max:
        raise ConfigError(f"need 1 <= j_min <= j_max, got j_min={j_min}, j_max={j_max}")
    require_depth(n, t, j_max)

    u_rev = bank.lowpass[::-1]
    v_rev = bank.highpass[::-1]
    details: dict[int, np.ndarray] = {}

    # per octave: (octave, low-pass start, width, first detail index if kept)
    steps = []
    k0, length = 1, n  # shift index of the first stored approximation sample, and their number
    for j in range(1, j_max + 1):
        k0_new = -((-(k0 - t + 1)) // 2)  # ceil((k0 - T + 1) / 2)
        k1_new = (k0 + length - 1) // 2
        width = k1_new - k0_new + 1
        start = 2 * k0_new + t - 1 - k0  # full-convolution index of shift k0_new
        first = 0
        if j >= j_min:
            k_lo, k_hi = _window(n, t, j)
            if not (k0_new <= k_lo and k_hi <= k1_new):
                raise AssertionError("border-free window escaped the computed support")
            first = start + 2 * (k_lo - k0_new)
            details[j] = np.empty((p, k_hi - k_lo + 1))
        steps.append((j, start, width, first))
        k0, length = k0_new, width

    def cascade(rows) -> None:
        for i in rows:
            approx = data[i]
            for j, start, width, first in steps:
                if j >= j_min:
                    d = details[j]
                    d[i] = np.convolve(approx, v_rev)[first : first + 2 * d.shape[1] : 2]
                if j < j_max:
                    approx = np.convolve(approx, u_rev)[start : start + 2 * width : 2]

    workers = _cascade_workers(p, n, _cpu_count())
    if workers == 1:
        cascade(range(p))
    else:
        with ThreadPoolExecutor(workers) as pool:
            # one task per worker, rows w, w + workers, ...: each row writes
            # only its own row of each detail matrix
            for _ in pool.map(cascade, (range(w, p, workers) for w in range(workers))):
                pass

    return WaveletDecomposition(details, n)
