"""A fixed reference computation that measures the host's speed during a run.

The benchmark runs on shared machines whose speed drifts by up to 1.5-2x
over seconds to minutes, with the process's CPU time tracking its wall time,
so neither a longer window nor CPU time removes the drift from a throughput.
A reference slot runs ``kernel`` back to back between the work items; an
item's cost is its wall time divided by the reference time measured around
it.  Set-up time is scaled the same way, to seconds at the kernel's nominal
speed.  The kernel never touches hurstmodes, so a change to the program
moves only the numerator.

The kernel mixes the kinds of work the pipeline does, each single-threaded:
short FFTs (synthesis), short-filter convolutions (wavelet), a Gram product
(scaling) and parsing decimal text (ingest).  One call takes 5-10 ms on the
machine where it was tuned, as the host's phase goes (``nominal_s`` 7 ms).
With ``long_series`` it also runs Gaussian noise, a 2^19-point FFT and a
cumulative sum (one n=2^18 path), and streams a 64 MiB array, larger than
the caches: the workloads on long series and large panels slow less than
cache-resident work in the host's slow phases, and only this mix follows
them.  Such a call takes 40-70 ms (``nominal_s`` 50 ms).
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class Reference:
    """The reference kernel on inputs made once from a fixed seed."""

    def __init__(self, long_series: bool):
        # a call's time on the machine where the kernel was tuned, in a middle
        # phase of its drift: the unit that set-up seconds are scaled to
        self.nominal_s = 0.05 if long_series else 0.007
        rng = np.random.default_rng(20250130)
        self.signal = rng.standard_normal((16, 2**14))
        self.filt = rng.standard_normal(8)
        self.block = rng.standard_normal((64, 8192))
        self.text = [f"{v:.17g}" for v in rng.standard_normal(6000)]
        self.long = rng.standard_normal(2**19) if long_series else None
        self.stream = rng.standard_normal(2**23) if long_series else None  # 64 MiB
        for _ in range(3):  # warm caches and code paths
            self.kernel()

    def kernel(self) -> float:
        spectrum = np.fft.fft(self.signal[:2], n=2**15, axis=1)
        conv = sum(float(np.convolve(row, self.filt)[-1]) for row in self.signal)
        gram = self.block @ self.block.T
        parsed = sum(float(cell) for cell in self.text)
        out = float(spectrum[0, 1].real) + conv + float(gram[0, 0]) + parsed
        if self.long is not None:
            noise = np.random.default_rng(7).standard_normal(2**18)
            path = np.cumsum(np.fft.fft(self.long)[: 2**18].real + noise)
            out += float(path[-1]) + float(self.stream.sum()) + float((self.stream[::8] * 2.0).sum())
        return out

    def slot(self, min_s: float) -> float:
        """Run the kernel for at least ``min_s`` (once at least); the median
        time of one call."""
        calls = []
        start = time.perf_counter()
        while not calls or time.perf_counter() - start < min_s:
            t0 = time.perf_counter()
            self.kernel()
            calls.append(time.perf_counter() - t0)
        return statistics.median(calls)
