import os
import threading
import tracemalloc

import numpy as np
import pytest

from hurstmodes import (
    ConfigError,
    DataError,
    DomainError,
    HurstDistribution,
    MixingMatrix,
    Panel,
    fbm_path,
    gen_panel,
    sample_hurst,
)
from hurstmodes import synth, wavelet
from hurstmodes.synth import (
    _embedding_sqrt_eigs,
    _fgn_from_noise,
    fgn_autocovariance,
)


def make_indefinite(monkeypatch, bad_h):
    """Give mode bad_h the autocovariance (0, 1, 0, ...), whose circulant
    embedding has eigenvalues 2 cos(pi k / n), and drop the cached weights
    so the embedding is really computed from it."""
    real = synth.fgn_autocovariance
    monkeypatch.setattr(synth, "fgn_autocovariance",
                        lambda H, n: np.eye(1, n, 1)[0] if H == bad_h else real(H, n))
    synth._embedding_sqrt_eigs.cache_clear()


def fbm_covariance(H, n):
    """Covariance matrix of (B_H(1), ..., B_H(n)): (|s|^2H + |t|^2H - |t-s|^2H)/2."""
    t = np.arange(1, n + 1, dtype=float)
    s, u = np.meshgrid(t, t, indexing="ij")
    return 0.5 * (s ** (2.0 * H) + u ** (2.0 * H) - np.abs(s - u) ** (2.0 * H))


def fgn_cholesky(H, n, z):
    """Exact fGn from n normals z by Cholesky of the n x n covariance: an
    O(n^2)-memory oracle for the circulant embedding at small n."""
    gamma = fgn_autocovariance(H, n)
    cov = gamma[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    return np.linalg.cholesky(cov) @ z[:n]


class TestHurstDistribution:
    def test_point_mass(self):
        d = HurstDistribution.point(0.5)
        assert d.r == 1
        assert d.modes == (0.5,)

    def test_uniform_three(self):
        d = HurstDistribution.uniform([0.2, 0.5, 0.8])
        assert d.r == 3
        assert abs(sum(d.probs) - 1.0) <= 1e-12
        assert min(np.diff(d.modes)) == pytest.approx(0.3)
        assert d.modes[0] == 0.2

    @pytest.mark.parametrize("modes,probs", [
        ((0.5, 0.3), (0.5, 0.5)),        # not increasing
        ((0.0, 0.5), (0.5, 0.5)),        # boundary mode
        ((0.3, 1.0), (0.5, 0.5)),        # boundary mode
        ((0.3, 0.5), (0.6, 0.6)),        # probs exceed 1
        ((0.3, 0.5), (1.0,)),            # length mismatch
    ])
    def test_invalid(self, modes, probs):
        with pytest.raises(ConfigError):
            HurstDistribution(modes, probs)


class TestSampleHurst:
    def test_point_mass_degenerate(self):
        draws = sample_hurst(HurstDistribution.point(0.5), 4, seed=0)
        assert np.array_equal(draws, [0.5, 0.5, 0.5, 0.5])

    def test_uniform_law_of_large_numbers(self):
        dist = HurstDistribution.uniform([0.2, 0.5, 0.8])
        draws = sample_hurst(dist, 300_000, seed=7)
        for mode in dist.modes:
            assert abs(np.mean(draws == mode) - 1.0 / 3.0) < 0.01

    def test_unequal_probabilities(self):
        dist = HurstDistribution((0.3, 0.6), (1.0 / 3.0, 2.0 / 3.0))
        draws = sample_hurst(dist, 300_000, seed=11)
        assert abs(np.mean(draws == 0.3) - 1.0 / 3.0) < 0.01
        assert abs(np.mean(draws == 0.6) - 2.0 / 3.0) < 0.01

    def test_reproducible(self):
        dist = HurstDistribution.uniform([0.2, 0.8])
        a = sample_hurst(dist, 100, seed=3)
        b = sample_hurst(dist, 100, seed=3)
        assert np.array_equal(a, b)


class TestSeedTree:
    """The first draws at one address of each kind in the seed tree (the
    table is in the package docstring), pinned as literal bits together
    with sample_hurst's draws.  Every CI job runs this, so a numpy whose
    SeedSequence or PCG64 streams differ from those the committed digest was
    written with fails here.  It pins the streams, not gen_panel's bytes,
    which also depend on the BLAS."""

    @pytest.mark.parametrize("address, normals, integer", [
        ((7, 0), ("0x1.427a31c1ffc58p-10", "0x1.31ea59a5b303ep-2"), 5765488047046174021),
        ((7, 1), ("0x1.63b2cdb11bec7p-2", "-0x1.2b3ededa4ab53p+1"), 7103296511922187878),
        ((7, 2, 3), ("-0x1.5edb44b05ababp-2", "0x1.054fdec31176ep-2"), 8297589279189685966),
        ((7, 3), ("-0x1.aad2cbf17b1f2p+0", "0x1.05a1e8bbcf27ep-4"), 8993097214371588835),
        ((7, 4, 1, 2), ("0x1.1dd82d5e7779fp+0", "-0x1.ac049976e9bd8p+0"), 2098826604095453747),
        ((0, 5, 0, 0), ("-0x1.841b5534caa72p-4", "-0x1.04ec516de9f32p-1"), 3524583430985860041),
    ], ids=["hurst", "mixing", "row", "kmeans", "epsilon", "replication"])
    def test_first_draws(self, address, normals, integer):
        assert [v.hex() for v in np.random.default_rng(address).standard_normal(2).tolist()] == list(normals)
        assert np.random.default_rng(address).integers(2**63) == integer

    def test_numpy_integer_seed(self):
        # kmeans gets its seed from integers(), an np.int64
        draws = np.random.default_rng((np.int64(2098826604095453747), 3)).standard_normal(2)
        assert [v.hex() for v in draws.tolist()] == ["0x1.badda0206c4e7p-1", "-0x1.2f47c3a73e2b9p+0"]

    def test_sample_hurst_draws(self):
        draws = sample_hurst(HurstDistribution((0.2, 0.5, 0.8), (0.2, 0.3, 0.5)), 12, seed=7)
        assert draws.tolist() == [0.8, 0.8, 0.8, 0.5, 0.5, 0.8, 0.2, 0.8, 0.8, 0.5, 0.5, 0.5]


class TestFbmPath:
    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fbm_path(0.0, 16)
        with pytest.raises(DomainError):
            fbm_path(1.0, 16)

    def test_embedding_is_exact_linear_map(self):
        # the synthesis is linear in the 2n input normals: recover the matrix
        # column by column and compare its Gram with the target covariance
        n, H = 48, 0.7
        sqrt_lam = _embedding_sqrt_eigs(H, n)
        cols = [_fgn_from_noise(e, sqrt_lam, n) for e in np.eye(2 * n)]
        t = np.column_stack(cols)
        gamma = fgn_autocovariance(H, n)
        target = gamma[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        assert np.max(np.abs(t @ t.T - target)) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 33, 48, 4096])
    @pytest.mark.parametrize("H", [0.05, 0.5, 0.95])
    def test_half_spectrum_matches_full_hermitian_fft(self, H, n):
        # reference: the full length-2n Hermitian vector through a complex FFT;
        # n=1 leaves the interior v[1:n] empty, odd n and 48 are not powers of two
        m = 2 * n
        gamma = fgn_autocovariance(H, n + 1)
        sqrt_lam = np.sqrt(np.clip(np.fft.fft(np.concatenate([gamma, gamma[1:-1][::-1]])).real, 0.0, None))
        z = np.random.default_rng(2024).standard_normal(m)
        v = np.zeros(m, dtype=complex)
        v[0] = z[0] * np.sqrt(2.0)
        v[n] = z[1] * np.sqrt(2.0)
        v[1:n] = z[2 : n + 1] + 1j * z[n + 1 : m]
        v[n + 1 :] = np.conj(v[1:n][::-1])
        ref = np.cumsum(np.fft.fft(sqrt_lam * v)[:n].real / (2.0 * np.sqrt(n)))

        assert len(_embedding_sqrt_eigs(H, n)) == n + 1
        path = fbm_path(H, n, rng=np.random.default_rng(2024))
        assert np.max(np.abs(path - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("H,n", [(0.996, 2**18), (0.999, 2**18), (0.999999, 2**16)])
    def test_embedding_psd_near_one(self, H, n):
        # near H=1, rounding in a directly formed second difference of the
        # autocovariance turns these embeddings indefinite, which raises
        _embedding_sqrt_eigs(H, n)

    def test_non_psd_embedding_raises_without_dense_fallback(self, monkeypatch):
        make_indefinite(monkeypatch, 0.7)
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda *args, **kwargs: pytest.fail("factored the n x n covariance"))
        with pytest.raises(ConfigError, match="not PSD"):
            fbm_path(0.7, 64, seed=0)

    def test_cholesky_path_covariance_identity(self):
        # cumulative sums of exact fGn must carry the closed-form fBm
        # covariance (exponent 2H) entrywise
        n, H = 256, 0.3
        gamma = fgn_autocovariance(H, n)
        cov_fgn = gamma[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        ones = np.tril(np.ones((n, n)))
        assert np.max(np.abs(ones @ cov_fgn @ ones.T - fbm_covariance(H, n))) < 1e-8

    def test_cholesky_matches_embedding_distribution(self):
        # same normals, same marginal variance behavior at modest tolerance
        var_e = np.var([fbm_path(0.6, 64, seed=s)[-1] for s in range(4000)])
        var_c = np.var([np.cumsum(fgn_cholesky(0.6, 64, np.random.default_rng((s, 2, 0)).standard_normal(128)))[-1]
                        for s in range(4000)])
        assert var_e == pytest.approx(64 ** 1.2, rel=0.1)
        assert var_c == pytest.approx(64 ** 1.2, rel=0.1)

    def test_brownian_increments_iid(self):
        path = fbm_path(0.5, 2**14, seed=5)
        inc = np.diff(path, prepend=0.0)
        n = len(inc)
        lag1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(lag1) < 3.0 / np.sqrt(n)
        assert np.var(inc) == pytest.approx(1.0, rel=0.1)

    def test_variance_scaling_monte_carlo(self):
        # Var B_H(t) = t^{2H} at t = n/2, averaged over 10^4 paths
        H, n, reps = 0.7, 128, 10_000
        t = n // 2
        vals = np.array([fbm_path(H, n, rng=np.random.default_rng(s))[t - 1] for s in range(reps)])
        assert np.var(vals) == pytest.approx(t ** (2 * H), rel=0.05)

    def test_self_similarity(self):
        # Var(B(2t)) / 2^{2H} matches Var(B(t)) within 5%
        H, n, reps = 0.6, 64, 10_000
        t = 16
        paths = np.array([fbm_path(H, n, rng=np.random.default_rng(1_000_000 + s)) for s in range(reps)])
        v_t = np.var(paths[:, t - 1])
        v_2t = np.var(paths[:, 2 * t - 1])
        assert v_2t / 2 ** (2 * H) == pytest.approx(v_t, rel=0.05)

    def test_reproducible(self):
        assert np.array_equal(fbm_path(0.4, 512, seed=9), fbm_path(0.4, 512, seed=9))


class TestMixingMatrix:
    def test_haar_orthogonal(self):
        for p, seed in ((16, 2), (64, 0)):
            m = MixingMatrix.haar(p, seed=seed)
            assert np.max(np.abs(m.matrix @ m.matrix.T - np.eye(p))) < 1e-10
            assert abs(abs(np.linalg.det(m.matrix)) - 1.0) < 1e-10

    def test_haar_not_a_fixed_slice(self):
        # sign correction makes the factor Haar rather than QR-skewed:
        # determinants take both signs across seeds
        dets = [np.sign(np.linalg.det(MixingMatrix.haar(8, seed=s).matrix)) for s in range(24)]
        assert len(set(dets)) == 2



class TestGenPanel:
    def test_identity_mix_rows_are_fbm(self):
        # an orthogonal mix of i.i.d. Brownian rows leaves each row one
        dist = HurstDistribution.point(0.5)
        panel, h = gen_panel(dist, 3, 4096, seed=4)
        assert np.array_equal(h, [0.5, 0.5, 0.5])
        inc = np.diff(panel.data, axis=1)
        assert np.allclose(np.var(inc, axis=1), 1.0, rtol=0.15)

    def test_orthogonal_mix_gram(self):
        # the panel is Q X with Q = MixingMatrix.haar(p, seed) and X the
        # latent fBm rows: Q^T undoes the mix, and the Gram spectrum is X's
        p, n, seed = 64, 256, 0
        dist = HurstDistribution.uniform([0.25, 0.75])
        panel, h = gen_panel(dist, p, n, seed=seed)
        x = np.stack([fbm_path(h[i], n, rng=np.random.default_rng((seed, 2, i))) for i in range(p)])
        q = MixingMatrix.haar(p, seed=seed).matrix
        assert np.allclose(q.T @ panel.data, x, rtol=0, atol=1e-9 * np.abs(x).max())
        gy = np.linalg.eigvalsh(panel.data @ panel.data.T)
        gx = np.linalg.eigvalsh(x @ x.T)
        assert np.allclose(gy, gx, rtol=1e-9, atol=1e-9 * gx.max())

    def test_reproducible_bitwise(self):
        dist = HurstDistribution.uniform([0.25, 0.35])
        p1, h1 = gen_panel(dist, 8, 512, seed=13)
        p2, h2 = gen_panel(dist, 8, 512, seed=13)
        assert np.array_equal(p1.data, p2.data)
        assert np.array_equal(h1, h2)

    def test_paper_scale_panel(self):
        dist = HurstDistribution.uniform([0.25, 0.35])
        panel, h = gen_panel(dist, 64, 2**14, seed=1)
        assert panel.data.shape == (64, 2**14)
        assert set(np.unique(h)) <= {0.25, 0.35}


def latent_panel(dist, p, n, seed):
    """gen_panel's latent X, rebuilt row by row from fbm_path, and its
    rows' Hurst exponents."""
    h = sample_hurst(dist, p, seed)
    x = np.empty((p, n))
    for i in range(p):
        x[i] = fbm_path(h[i], n, rng=np.random.default_rng((seed, 2, i)))
    return x, h


def _serial_panel(dist, p, n, seed):
    """gen_panel's output rebuilt from latent_panel and the same mixing."""
    x, h = latent_panel(dist, p, n, seed)
    return MixingMatrix.haar(p, seed).matrix @ x, h


class TestRowPool:
    """gen_panel on the row pool: the panel's bits for any thread count, its
    cap and its peak memory.  The pool itself is tested in test_wavelet's
    TestEachRow."""

    DIST = HurstDistribution.uniform([0.2, 0.5, 0.8])

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("p", [1, 3, 64])
    def test_bitwise_equal_to_serial_rows(self, monkeypatch, force_threads, p, workers):
        force_threads(synth, workers)
        if workers == 1:
            monkeypatch.setattr(wavelet, "ThreadPoolExecutor",
                                lambda *a, **k: pytest.fail("one worker started a pool"))
        ref, h_ref = _serial_panel(self.DIST, p, 2**12, seed=17)
        panel, h = gen_panel(self.DIST, p, 2**12, seed=17)
        assert panel.data.tobytes() == ref.tobytes()
        assert np.array_equal(h, h_ref)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [3 * synth._BLOCK, synth._BLOCK // 2])
    def test_block_mixing_bitwise_equal_to_whole_product(self, force_threads, n, workers):
        # whole blocks, or a panel narrower than one block: each column of
        # M X is the same dot products whichever block it sits in
        force_threads(synth, workers)
        ref, _ = _serial_panel(self.DIST, 64, n, seed=23)
        panel, _ = gen_panel(self.DIST, 64, n, seed=23)
        assert panel.data.tobytes() == ref.tobytes()

    def test_block_mixing_ragged_tail_within_rounding(self):
        """Above one block with a ragged last block, the BLAS may take other
        kernels for the narrow tail than for the columns at the same place in
        a whole product (the whole product's bytes here already depend on the
        BLAS thread count), so the bits may differ; each entry is still M X
        to a few roundings of a p-term dot product."""
        n = 3 * synth._BLOCK + 57
        ref, _ = _serial_panel(self.DIST, 64, n, seed=29)
        panel, _ = gen_panel(self.DIST, 64, n, seed=29)
        eps = np.finfo(float).eps
        assert np.max(np.abs(panel.data - ref)) <= 4 * eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_one_panel(self, force_threads, workers):
        # mixing in place keeps X and M X from being alive at once, and the
        # Panel check allocates no p x n mask
        force_threads(synth, workers)
        p, n = 64, 2**16
        for H in self.DIST.modes:  # the cached weights are not the panel's
            synth._embedding_sqrt_eigs(H, n)
        tracemalloc.start()
        try:
            panel, _ = gen_panel(self.DIST, p, n, seed=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * panel.data.nbytes

    def test_worker_cap_without_threads(self, monkeypatch):
        # at most one thread per six rows; the pool takes the CPU count
        caps = []

        def serial(p, cap, work):
            caps.append(cap)
            for i in range(p):
                work(i)

        monkeypatch.setattr(synth, "_each_row", serial)
        for p in (1, 5, 6, 12, 64):
            gen_panel(self.DIST, p, 16, seed=0)
        assert caps == [1, 1, 1, 2, 10]

    def test_peak_memory_bounded_by_panel_at_eight_cpus(self, monkeypatch):
        # each row in flight holds ~48 bytes per sample: with one worker per
        # CPU, 8 rows of 2^18 would hold 84 MiB next to a 32 MiB panel
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        p, n = 16, 2**18
        for H in self.DIST.modes:  # the cached weights are not the panel's
            synth._embedding_sqrt_eigs(H, n)
        tracemalloc.start()
        try:
            panel, _ = gen_panel(self.DIST, p, n, seed=37)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * panel.data.nbytes

    def test_rows_touch_no_module_state(self, monkeypatch, force_threads):
        # the weight cache is filled by the caller alone, and rows do not go
        # through the module's fbm_path, which a caller may have wrapped
        force_threads(synth, 4)
        threads = []
        real = synth._embedding_sqrt_eigs

        def eigs(H, n):
            threads.append(threading.current_thread())
            return real(H, n)

        monkeypatch.setattr(synth, "_embedding_sqrt_eigs", eigs)
        monkeypatch.setattr(synth, "fbm_path", lambda *a, **k: pytest.fail("a row called fbm_path"))
        gen_panel(self.DIST, 32, 256, seed=2)
        assert threads and set(threads) == {threading.current_thread()}

    def test_non_psd_second_mode_raises_serial_error_first(self, monkeypatch, force_threads):
        # the second distinct H of the rows is not PSD: the error is the one
        # the row loop raised, and no row starts
        p, n, seed = 16, 128, 3
        h = sample_hurst(self.DIST, p, seed)
        bad = h[h != h[0]][0]
        real = synth._embedding_sqrt_eigs
        asked = []

        def eigs(H, n):
            asked.append(H)
            return real(H, n)

        make_indefinite(monkeypatch, bad)
        monkeypatch.setattr(synth, "_embedding_sqrt_eigs", eigs)
        with pytest.raises(ConfigError) as serial:
            for i in range(p):
                fbm_path(h[i], n, rng=np.random.default_rng((seed, 2, i)))
        force_threads(synth, 4)
        monkeypatch.setattr(synth, "_path", lambda *a: pytest.fail("a row started"))
        asked.clear()
        before = threading.active_count()
        with pytest.raises(ConfigError) as pooled:
            gen_panel(self.DIST, p, n, seed=seed)
        assert str(pooled.value) == str(serial.value)
        assert asked == [h[0], bad]
        assert threading.active_count() == before


class TestPanel:
    def test_validation(self):
        with pytest.raises(DataError):
            Panel(np.array([1.0, 2.0]))  # 1-D
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(DataError, match="non-finite"):
                Panel(np.array([[bad, 1.0]]))
        big = np.ones((64, 4096))
        big[37, 1234] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            Panel(big)
        big[37, 1234] = -np.inf
        with pytest.raises(DataError, match="non-finite"):
            Panel(big)
        big[37, 1234] = np.finfo(float).max
        assert Panel(big).data is big
        with pytest.raises(DataError):
            Panel(np.ones((2, 1)))  # n < 2
