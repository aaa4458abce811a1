import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurstmodes import ConfigError, DomainError, daubechies, decompose, fbm_path, max_octave
from hurstmodes import wavelet
from hurstmodes.wavelet import _POOL_MIN_LENGTH, _cascade_workers, trimmed_count

SQRT2 = np.sqrt(2.0)

# classical extremal-phase 4-tap filter
D4 = np.array([1 + np.sqrt(3), 3 + np.sqrt(3), 3 - np.sqrt(3), 1 - np.sqrt(3)]) / (4 * SQRT2)


def reference_pyramid(y, bank, j_max):
    """Direct dict-based evaluation of the two-scale recursion with explicit
    shift bookkeeping, trimmed to the border-free window.  Quadratic-time
    oracle, independent of the production implementation."""
    t = bank.support_length
    n = len(y)
    approx = {k: y[k - 1] for k in range(1, n + 1)}
    details = {}
    for j in range(1, j_max + 1):
        lo, hi = min(approx), max(approx)
        k_lo = -((-(lo - t + 1)) // 2)
        k_hi = hi // 2
        new_a, new_d = {}, {}
        for k in range(k_lo, k_hi + 1):
            new_a[k] = sum(bank.lowpass[m] * approx.get(2 * k + m, 0.0) for m in range(t))
            new_d[k] = sum(bank.highpass[m] * approx.get(2 * k + m, 0.0) for m in range(t))
        j2 = 2**j
        w_lo = -((-t) // j2)
        w_hi = (n + 1 - t * j2) // j2
        details[j] = np.array([new_d[k] for k in range(w_lo, w_hi + 1)])
        approx = new_a
    return details


class TestDaubechies:
    def test_haar(self):
        bank = daubechies(1)
        assert np.allclose(bank.lowpass, [1 / SQRT2, 1 / SQRT2], atol=1e-14)
        assert np.allclose(bank.highpass, [1 / SQRT2, -1 / SQRT2], atol=1e-14)

    def test_four_tap_closed_form(self):
        bank = daubechies(2)
        assert np.allclose(bank.lowpass, D4, atol=1e-12)
        assert abs(bank.lowpass.sum() - SQRT2) < 1e-10
        assert abs(bank.highpass.sum()) < 1e-10

    @pytest.mark.parametrize("order", range(1, 11))
    def test_filter_equations(self, order):
        u = daubechies(order).lowpass
        assert len(u) == 2 * order
        assert abs(u @ u - 1.0) < 1e-12
        assert abs(u.sum() - SQRT2) < 1e-10
        for m in range(1, order):
            assert abs(u[: len(u) - 2 * m] @ u[2 * m :]) < 1e-12

    @pytest.mark.parametrize("order", range(1, 11))
    def test_quadrature_mirror(self, order):
        bank = daubechies(order)
        t = bank.support_length
        expected = [(-1.0) ** k * bank.lowpass[t - 1 - k] for k in range(t)]
        assert np.allclose(bank.highpass, expected, atol=0)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_vanishing_moments(self, order):
        v = daubechies(order).highpass
        k = np.arange(len(v), dtype=float)
        for m in range(order):
            # raw bound where float64 evaluation permits, scaled bound always
            if order <= 7:
                assert abs((k**m) @ v) < 1e-8
            assert abs(((k / (len(v) - 1)) ** m) @ v) < 1e-12

    @pytest.mark.parametrize("order", range(1, 11))
    def test_energy_front_loaded(self, order):
        # keeping the roots inside the unit circle gives minimum phase: at
        # least half the lowpass energy sits in the first n_vanishing taps
        u = daubechies(order).lowpass
        assert u[:order] @ u[:order] >= 0.5 * (u @ u)

    def test_unsupported_order(self):
        for bad in (0, 11, 2.5, [2]):  # an unhashable order is a ConfigError, not the cache's TypeError
            with pytest.raises(ConfigError):
                daubechies(bad)


class TestDecompose:
    def test_constant_annihilated(self):
        d = decompose(np.full((2, 512), 3.25), daubechies(1), 4)
        for j in range(1, 5):
            assert np.max(np.abs(d.details[j])) < 1e-12

    def test_linear_ramp_annihilated(self):
        y = np.arange(1024, dtype=float)[None, :]
        d = decompose(y, daubechies(2), 5)
        for j in range(1, 6):
            assert np.max(np.abs(d.details[j])) < 1e-8

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_polynomial_annihilated(self, order):
        k = np.arange(700, dtype=float)
        y = sum(k**m * (0.3 + m) for m in range(order))[None, :]  # degree order-1
        d = decompose(y, daubechies(order), 3)
        scale = max(1.0, np.max(np.abs(y)))
        for j in range(1, 4):
            assert np.max(np.abs(d.details[j])) < 1e-8 * scale

    @pytest.mark.parametrize("order,n", [(1, 64), (2, 97), (2, 128), (3, 200)])
    def test_matches_reference_pyramid(self, rng, order, n):
        bank = daubechies(order)
        y = rng.standard_normal(n)
        j_max = max_octave(n, bank.support_length)
        fast = decompose(y[None, :], bank, j_max)
        slow = reference_pyramid(y, bank, j_max)
        for j in range(1, j_max + 1):
            assert fast.details[j].shape[1] == len(slow[j])
            assert np.allclose(fast.details[j][0], slow[j], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 4),
        j_min=st.integers(1, 5),
        depth=st.integers(0, 2),
        p=st.integers(1, 5),
        extra=st.integers(0, 300),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_stacked_univariate(self, order, j_min, depth, p, extra, fortran, seed):
        # a row's details depend on that row alone, bit for bit, whatever
        # the panel's height and memory layout
        bank = daubechies(order)
        t, j_max = bank.support_length, j_min + depth
        scale = 2**j_max
        n = scale * (-(-t // scale) + t) - 1 + extra  # octave j_max has a border-free coefficient
        y = np.random.default_rng(seed).standard_normal((p, n))
        if fortran:
            y = np.asfortranarray(y)
        multi = decompose(y, bank, j_max, j_min)
        for i in range(p):
            single = decompose(y[i][None, :], bank, j_max, j_min)
            for j in range(j_min, j_max + 1):
                assert np.array_equal(multi.details[j][i], single.details[j][0])

    def test_linearity(self, rng):
        bank = daubechies(3)
        y1 = rng.standard_normal((2, 400))
        y2 = rng.standard_normal((2, 400))
        a, b = 1.7, -0.3
        combo = decompose(a * y1 + b * y2, bank, 3)
        d1 = decompose(y1, bank, 3)
        d2 = decompose(y2, bank, 3)
        for j in range(1, 4):
            assert np.allclose(combo.details[j], a * d1.details[j] + b * d2.details[j], atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 4),
        j_min=st.integers(1, 5),
        depth=st.integers(0, 2),
        p=st.integers(1, 4),
        extra=st.integers(0, 300),
        a=st.floats(-1e3, 1e3),
        b=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    # subnormal coefficients: the error is one spacing, 5e-324, above 1e-12 of their size
    @example(order=1, j_min=1, depth=0, p=1, extra=0, a=0.0, b=2.2250738585e-313, seed=0)
    def test_linearity_property(self, order, j_min, depth, p, extra, a, b, seed):
        # the cascade is a chain of convolutions: a combination of panels
        # decomposes into the same combination of their details, up to
        # rounding relative to the terms' size plus the standard model's
        # underflow term: subnormal results round to an absolute spacing, which
        # is not small relative to a subnormal size.  64 spacings are allowed;
        # the most seen was 7, over 3,000 draws with a subnormal a or b
        bank = daubechies(order)
        t, j_max = bank.support_length, j_min + depth
        scale = 2**j_max
        n = scale * (-(-t // scale) + t) - 1 + extra  # octave j_max has a border-free coefficient
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, p, n))
        combo = decompose(a * x + b * y, bank, j_max, j_min)
        dx = decompose(x, bank, j_max, j_min)
        dy = decompose(y, bank, j_max, j_min)
        for j in range(j_min, j_max + 1):
            size = abs(a) * np.abs(dx.details[j]).max() + abs(b) * np.abs(dy.details[j]).max()
            error = np.abs(combo.details[j] - (a * dx.details[j] + b * dy.details[j])).max()
            assert error <= 1e-12 * size + 64 * np.finfo(float).smallest_subnormal

    def test_counts_within_bound_and_monotone(self, rng):
        for order, n in [(1, 300), (2, 1024), (4, 5000)]:
            bank = daubechies(order)
            t = bank.support_length
            j_max = max_octave(n, t)
            d = decompose(rng.standard_normal((1, n)), bank, j_max)
            prev = None
            for j in range(1, j_max + 1):
                n_j = d.details[j].shape[1]
                assert d.details[j].shape == (1, n_j)
                assert n_j == trimmed_count(n, t, j)
                assert n_j <= (n + 1 - t) // 2**j - t + 1
                if prev is not None:
                    assert n_j <= prev
                prev = n_j

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("j_min,j_max", [(1, 1), (1, 6), (2, 5), (3, 3), (4, 6), (6, 6)])
    def test_kept_octaves_equal_full_pyramid(self, rng, order, j_min, j_max):
        bank = daubechies(order)
        y = rng.standard_normal((3, 1500))
        full = decompose(y, bank, j_max)
        lean = decompose(y, bank, j_max, j_min)
        kept = list(range(j_min, j_max + 1))
        assert list(lean.details) == kept
        assert (min(lean.details), max(lean.details)) == (j_min, j_max)
        for j in kept:
            assert lean.details[j].flags.c_contiguous
            assert lean.details[j].shape == (3, trimmed_count(1500, bank.support_length, j))
            assert lean.details[j].shape[1] == full.details[j].shape[1]
            assert np.array_equal(lean.details[j], full.details[j])
        for j in range(1, j_min):
            with pytest.raises(DomainError, match=f"octave {j} not in decomposition"):
                lean.require_octave(j)

    @pytest.mark.parametrize("j_min", [0, -1, 4])
    def test_j_min_out_of_range(self, j_min):
        with pytest.raises(ConfigError, match="j_min"):
            decompose(np.zeros((1, 512)), daubechies(2), 3, j_min)

    def test_kept_octaves_bound_memory(self, rng):
        # only the kept details and the next approximation are allocated:
        # octave 1's p x n/2 approximation is the largest array made
        y = rng.standard_normal((32, 2**15))
        tracemalloc.start()
        try:
            decomp = decompose(y, daubechies(2), 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(decomp.details) == [2, 3, 4, 5]
        assert peak < 1.5 * y.nbytes

    def test_row_cascade_allocates_only_kept_details(self, rng):
        # each row runs the whole cascade before the next, so no p-row
        # approximation exists: the kept details (~0.47 x the panel for
        # octaves 2..5) plus one row's temporaries set the peak
        y = rng.standard_normal((32, 2**15))
        bank = daubechies(2)
        tracemalloc.start()
        try:
            decomp = decompose(y, bank, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(d.nbytes for d in decomp.details.values())
        assert kept < 0.47 * y.nbytes
        assert peak < 0.6 * y.nbytes

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 4),
        j_min=st.integers(2, 5),
        depth=st.integers(0, 2),
        shift=st.integers(1, 3),
        extra=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shift_equivariance(self, order, j_min, depth, shift, extra, seed):
        # dropping shift * 2^j leading samples moves octave j's detail
        # sequence by shift coefficients and shortens its window by as many
        bank = daubechies(order)
        t, j_max = bank.support_length, j_min + depth
        scale = 2**j_max
        n = scale * (-(-t // scale) + t) - 1 + shift * scale + extra  # octave j_max survives the shift
        y = np.random.default_rng(seed).standard_normal((2, n))
        base = decompose(y, bank, j_max, j_min)
        for j in range(j_min, j_max + 1):
            moved = decompose(y[:, shift * 2**j :], bank, j_max, j_min)
            assert moved.details[j].shape[1] == base.details[j].shape[1] - shift
            np.testing.assert_allclose(moved.details[j], base.details[j][:, shift:], rtol=0, atol=1e-12)

    def test_insufficient_length_names_octave(self):
        # the first short octave, not j_max
        with pytest.raises(ConfigError, match=r"at octave 4 \(filter support 4\); deepest usable octave is 3$"):
            decompose(np.zeros((1, 64)), daubechies(2), 6)

    def test_rejects_array_that_is_not_2d(self):
        with pytest.raises(DomainError, match=r"p x n array, got shape \(2, 3, 4\)"):
            decompose(np.zeros((2, 3, 4)), daubechies(1), 1)

    def test_haar_white_noise_energy(self, rng):
        # mean squared detail per octave tracks the input variance
        acc = {1: [], 2: []}
        for _ in range(1000):
            d = decompose(rng.standard_normal((1, 128)), daubechies(1), 2)
            for j in (1, 2):
                acc[j].append(np.mean(d.details[j] ** 2))
        for j in (1, 2):
            assert np.mean(acc[j]) == pytest.approx(1.0, rel=0.1)

    def test_fbm_log_variance_slope(self):
        # classical scaling: log2 of per-octave mean squared detail grows
        # like (2H+1) j over coarse octaves
        H = 0.7
        slopes = []
        for s in range(30):
            path = fbm_path(H, 2**14, seed=500 + s)
            d = decompose(path[None, :], daubechies(2), 6)
            lv = [np.log2(np.mean(d.details[j] ** 2)) for j in range(2, 7)]
            slopes.append(np.polyfit(np.arange(2, 7), lv, 1)[0])
        assert np.mean(slopes) == pytest.approx(2 * H + 1, abs=0.15)


class TestRowPool:
    @pytest.mark.parametrize("order", [1, 2])
    def test_details_bitwise_equal_for_any_worker_count(self, monkeypatch, rng, order):
        # 7 rows split 4 + 3 over two workers and 3 + 2 + 2 over three
        y = rng.standard_normal((7, _POOL_MIN_LENGTH))
        bank = daubechies(order)
        before = threading.active_count()
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(wavelet, "_cascade_workers", lambda p, n, cpus: workers)
            runs.append(decompose(y, bank, 5, 2))
        assert threading.active_count() == before
        serial = runs[0].details
        assert list(serial) == [2, 3, 4, 5]
        for pooled in runs[1:]:
            assert list(pooled.details) == list(serial)
            for j, d in serial.items():
                assert pooled.details[j].tobytes() == d.tobytes()

    def test_stress_more_workers_than_cores(self, monkeypatch, rng):
        # eight threads on 16 rows, switching as often as the interpreter
        # allows: a row written twice, torn or lost changes the bytes
        y = rng.standard_normal((16, _POOL_MIN_LENGTH))
        bank = daubechies(2)
        workers = [1]
        monkeypatch.setattr(wavelet, "_cascade_workers", lambda p, n, cpus: workers[0])
        ref = decompose(y, bank, 5, 2)
        workers[0] = 8
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(decompose(y, bank, 5, 2)), daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        for j, d in ref.details.items():
            assert result[0].details[j].tobytes() == d.tobytes()

    def test_short_rows_start_no_thread(self, monkeypatch, rng):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10_000)), raising=False)
        monkeypatch.setattr(wavelet, "ThreadPoolExecutor",
                            lambda *a, **k: pytest.fail("a short-row call started a pool"))
        decompose(rng.standard_normal((64, _POOL_MIN_LENGTH - 1)), daubechies(2), 5, 2)
        # at full length one row, or none, is no work to share
        for p in (0, 1):
            decomp = decompose(np.zeros((p, _POOL_MIN_LENGTH)), daubechies(2), 5, 2)
            assert decomp.details[5].shape[0] == p

    def test_worker_rule_caps(self):
        # one per CPU, at most one per row, one below the length threshold
        long, short = _POOL_MIN_LENGTH, _POOL_MIN_LENGTH - 1
        assert _cascade_workers(64, long, 10_000) == 64
        assert _cascade_workers(64, long, 2) == 2
        assert _cascade_workers(64, long, 1) == 1
        assert _cascade_workers(64, short, 10_000) == 1
        assert _cascade_workers(7, 2**20, 3) == 3
        assert _cascade_workers(1, long, 8) == 1
        assert _cascade_workers(0, long, 8) == 1  # ThreadPoolExecutor(0) raises

    def test_pooled_peak_memory(self, monkeypatch, rng):
        # each of four workers holds one row's temporaries (~3.3 rows of
        # samples, measured serially) next to the kept details: ~0.6 x the
        # panel measured, bounded at 0.47 + 4 x 4/32 = 0.97 x the panel
        monkeypatch.setattr(wavelet, "_cpu_count", lambda: 4)
        y = rng.standard_normal((32, _POOL_MIN_LENGTH))
        tracemalloc.start()
        try:
            decomp = decompose(y, daubechies(2), 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(d.nbytes for d in decomp.details.values())
        assert kept < 0.47 * y.nbytes
        assert peak < kept + 4 * 4 * y[0].nbytes


def test_trimmed_count_examples():
    # n=2^14, 4-tap filter: 8187 border-free shifts at octave 1
    assert trimmed_count(2**14, 4, 1) == 8187
    assert trimmed_count(2**14, 4, 5) == 508
    assert max_octave(2**14, 4) >= 10


@pytest.mark.parametrize("support", [0, -2])
def test_max_octave_rejects_support_below_one(support):
    # such a support keeps a border-free coefficient at every octave, so the
    # search would never end
    with pytest.raises(ConfigError, match=f"support must be at least 1, got {support}"):
        max_octave(100, support)
