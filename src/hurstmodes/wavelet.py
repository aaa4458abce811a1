"""Daubechies filter banks and the pyramidal multiresolution transform.

The transform computes, at every octave, only coefficients whose
dependency cone lies entirely inside the observed samples (no zero-padding
at the series edges).  Shift k at octave j reads shifts 2k..2k+T-1 of
octave j-1 for a length-T filter, so with the samples as shifts 1..n of
octave 0 a "valid" convolution gives exactly the shifts 1..b_j, where
b_0 = n and b_j = floor((b_{j-1} - T + 1)/2).  The kept detail window,
k in [ceil(T/2^j), floor((n+1)/2^j - T)], lies inside them:
b_j >= n/2^j - T(1 - 2^-j) >= (n+1)/2^j - T.  It can be a few
coefficients short of 1..b_j at either end (three in all at octave 1 for
T = 4 and n = 2^14), and its count n_j ~ n/2^j is the effective sample
size at octave j.  Only the octaves a statistic reads are kept, each as
a C-contiguous p x n_j array; the pyramid computes no high-pass below
them and none deeper.  The cascade runs one series at a time through
every octave, so the only p-row arrays it allocates are the kept detail
matrices.

Rows of 2^16 samples or more run on _each_row, the row pool gen_panel's
synthesis shares, one thread per row at most: np.convolve releases the GIL
inside its loop.  On shorter rows each call holds the GIL about as long as
it computes, so those run on the calling thread.  Each row writes only its
own row of each detail matrix, by the same operations on any thread, so
the details are bitwise the same for any number of threads.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
    order = int(n_vanishing)
    u = _daubechies_polish(_daubechies_initial(order), order)
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


def _each_row(p: int, cap: int, work: Callable[[int], object]) -> None:
    """Call work(i) for every row i < p on k = min(cap, p, CPUs) threads,
    thread w taking rows w, w + k, ...; with k <= 1 on the calling thread,
    starting none.  A row that raises, or an interrupt of the caller, stops
    every thread before its next row; the error reaches the caller once all
    threads have joined."""
    k = min(cap, p, _cpu_count())
    if k <= 1:
        for i in range(p):
            work(i)
        return
    stop = threading.Event()

    def rows(w: int) -> None:
        for i in range(w, p, k):
            if stop.is_set():
                return
            try:
                work(i)
            except BaseException:
                stop.set()
                raise

    with ThreadPoolExecutor(k) as pool:
        try:
            for _ in pool.map(rows, range(k)):
                pass
        finally:
            stop.set()


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
    section 4.6).  Every step is a "valid" convolution, so a row's octave
    j approximation holds exactly the border-free shifts 1..b_j (see the
    module docstring).  The low-pass runs down to octave j_max - 1 and the
    high-pass only at the kept octaves; each kept detail matrix is the
    window [ceil(T/2^j), floor((n+1)/2^j - T)] inside 1..b_j, stored as a
    C-contiguous p x n_j array.  Each row runs the whole cascade before its
    thread starts the next, so its approximations are 1-D temporaries and
    memory peaks at the kept details plus one row's temporaries per thread.
    Raises ConfigError when j_max is past max_octave (see require_depth),
    and DomainError when data is not 2-D.
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
    # "valid" output 2k - 1 of octave j - 1's shifts 1..b is shift k at octave j
    windows = {j: _window(n, t, j) for j in range(j_min, j_max + 1)}
    details = {j: np.empty((p, k_hi - k_lo + 1)) for j, (k_lo, k_hi) in windows.items()}

    def cascade(i: int) -> None:
        approx = data[i]
        for j in range(1, j_max + 1):
            if j >= j_min:
                k_lo, k_hi = windows[j]
                details[j][i] = np.convolve(approx, v_rev, "valid")[2 * k_lo - 1 : 2 * k_hi : 2]
            if j < j_max:
                approx = np.convolve(approx, u_rev, "valid")[1::2]

    _each_row(p, p if n >= _POOL_MIN_LENGTH else 1, cascade)

    return WaveletDecomposition(details, n)
