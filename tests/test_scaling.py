import math

import numpy as np
import pytest

from hurstmodes import (
    DegenerateSpectrumError,
    DomainError,
    HurstDistribution,
    PipelineConfig,
    daubechies,
    decompose,
    fbm_covariance,
    gen_panel,
    heuristic_m,
    log_eigen,
    log_eigen_multiscale,
    wavelet_random_matrix,
)
from hurstmodes.harness import log_eigen_set
from hurstmodes.wavelet import WaveletDecomposition

from test_wavelet import reference_pyramid


def fake_decomposition(details: dict[int, np.ndarray], n: int = 0) -> WaveletDecomposition:
    return WaveletDecomposition(details, n)


def diagonal_details(eigenvalues, n_j: int) -> np.ndarray:
    """Rows orthogonal with squared norms n_j * eigenvalues, so the
    second-moment matrix has exactly the requested spectrum."""
    p = len(eigenvalues)
    d = np.zeros((p, n_j))
    for i, lam in enumerate(eigenvalues):
        d[i, i] = np.sqrt(lam * n_j)
    return d


def exact_gram(d: np.ndarray) -> np.ndarray:
    """(1/n) d d^T with each entry's sum exactly rounded: every value is
    split into 26-bit halves (Veltkamp), so the four half products are
    exact doubles, and math.fsum rounds their sum once."""
    c = 134217729.0 * d  # 2^27 + 1
    hi = c - (c - d)
    lo = d - hi
    p, n = d.shape
    g = np.empty((p, p))
    for i in range(p):
        for j in range(i + 1):
            terms = np.concatenate([hi[i] * hi[j], hi[i] * lo[j], lo[i] * hi[j], lo[i] * lo[j]])
            g[i, j] = g[j, i] = math.fsum(terms.tolist()) / n
    return g


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier characteristic-polynomial
    coefficients and root finding; independent of LAPACK eigensolvers."""
    p = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    c = 1.0
    for k in range(1, p + 1):
        mk = m @ mk + c * np.eye(p)
        mprod = m @ mk
        c = -np.trace(mprod) / k
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)


class TestWaveletRandomMatrix:
    def test_single_vector_rank_one(self):
        d = np.array([[1.0], [2.0], [-1.0]])
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            w = wavelet_random_matrix(fake_decomposition({3: d}), 3)
        assert w.effective_count == 1
        assert np.allclose(w.matrix, d @ d.T)
        assert np.linalg.matrix_rank(w.matrix) == 1

    def test_iid_normal_details_near_identity(self, rng):
        d = rng.standard_normal((4, 100_000))
        w = wavelet_random_matrix(fake_decomposition({1: d}), 1)
        assert np.max(np.abs(w.matrix - np.eye(4))) < 0.05

    def test_symmetric_psd_on_panels(self, rng):
        # syrk mirrors one triangle, so the matrix is exactly symmetric
        panel, _ = gen_panel(HurstDistribution.point(0.4), 8, 2048, seed=3)
        decomp = decompose(panel, daubechies(2), 3)
        wide = fake_decomposition({1: rng.standard_normal((64, 2 * 4096 + 123))})
        for w in [wavelet_random_matrix(decomp, j) for j in (1, 2, 3)] + [wavelet_random_matrix(wide, 1)]:
            assert np.array_equal(w.matrix, w.matrix.T)
            lam = np.linalg.eigvalsh(w.matrix)
            assert lam[0] >= -1e-10 * np.trace(w.matrix)

    @pytest.mark.parametrize("p, n_j", [(8, 4096 + 1), (16, 3 * 4096 + 123)])
    def test_within_ulps_of_exact_gram(self, rng, p, n_j):
        # ill-conditioned rows (Gram condition number ~6.5e9); BLAS's blocked
        # sums stay within c = 4 ulps of max|G|, where a single running sum
        # per entry is 9-18 ulps off at these widths
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        d = np.ascontiguousarray((q * np.logspace(0, -4.9, p)) @ rng.standard_normal((p, n_j)))
        g = wavelet_random_matrix(fake_decomposition({1: d}), 1).matrix
        g_exact = exact_gram(d)
        assert np.max(np.abs(g - g_exact)) <= 4 * np.finfo(float).eps * np.max(np.abs(g_exact))

    def test_warns_when_p_exceeds_count(self):
        d = np.ones((4, 2))
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            wavelet_random_matrix(fake_decomposition({1: d}), 1)

    def test_missing_octave(self):
        with pytest.raises(DomainError, match="octave"):
            wavelet_random_matrix(fake_decomposition({1: np.ones((2, 4))}), 2)

    def test_matches_charpoly_oracle(self, rng):
        d = rng.standard_normal((4, 50))
        w = wavelet_random_matrix(fake_decomposition({1: d}), 1)
        lam = np.linalg.eigvalsh(w.matrix)
        assert np.allclose(lam, charpoly_eigenvalues(w.matrix), atol=1e-8)


class TestLogEigen:
    def test_formula_inversion(self):
        a, H = 8, 0.3
        lam = [float(a) ** (2 * H + 1)] * 5
        w = wavelet_random_matrix(fake_decomposition({1: diagonal_details(lam, 16)}), 1)
        h = log_eigen(w, a)
        assert np.allclose(h, H, atol=1e-12)

    def test_unit_eigenvalues_give_minus_half(self):
        w = wavelet_random_matrix(fake_decomposition({1: diagonal_details([1.0] * 4, 8)}), 1)
        for a in (2, 16, 64):
            assert np.allclose(log_eigen(w, a), -0.5, atol=1e-12)

    def test_sorted_output_monotone_in_spectrum(self):
        lam = [0.5, 1.0, 4.0, 9.0]
        w = wavelet_random_matrix(fake_decomposition({1: diagonal_details(lam, 8)}), 1)
        h = log_eigen(w, 4)
        assert np.all(np.diff(h) >= 0)
        expected = np.log(np.sort(lam)) / (2 * np.log(4)) - 0.5
        assert np.allclose(h, expected, atol=1e-12)

    def test_degenerate_spectrum_raises(self):
        d = np.ones((3, 5))  # rank one, zero eigenvalues present
        w = wavelet_random_matrix(fake_decomposition({1: d}), 1)
        with pytest.raises(DegenerateSpectrumError):
            log_eigen(w, 4)

    def test_scale_factor_validated(self):
        w = wavelet_random_matrix(fake_decomposition({1: diagonal_details([1, 2], 4)}), 1)
        with pytest.raises(DomainError):
            log_eigen(w, 1)

    def test_single_mode_location_matches_covariance_oracle(self):
        # At a finite scale the statistic sits at log(sigma^2_j)/(2 log a) - 1/2,
        # where sigma^2_j is the exact variance of a border-free detail
        # coefficient; compute that variance from the reference pyramid's
        # impulse responses and the closed-form fBm covariance.  The
        # asymptotic location H is approached only as the scale grows, so the
        # oracle, not H itself, is the finite-sample truth here.
        H, n_probe, a, octave = 0.5, 256, 16, 5
        bank = daubechies(2)
        weights = np.array([
            reference_pyramid(e, bank, octave)[octave][0] for e in np.eye(n_probe)
        ])
        sigma2 = weights @ fbm_covariance(H, n_probe) @ weights
        predicted = np.log(sigma2) / (2 * np.log(a)) - 0.5

        medians = []
        for seed in range(3):
            panel, _ = gen_panel(HurstDistribution.point(H), 64, 2**14, seed=seed)
            decomp = decompose(panel, bank, 5)
            h = log_eigen(wavelet_random_matrix(decomp, 5), a)
            medians.append(np.median(h))
        assert np.mean(medians) == pytest.approx(predicted, abs=0.1)

    def test_multiscale_single_mode_location(self):
        # the across-octave slope cancels the scale constant; location is H
        H = 0.7
        means = []
        for seed in range(3):
            panel, _ = gen_panel(HurstDistribution.point(H), 64, 2**14, seed=seed)
            decomp = decompose(panel, daubechies(2), 5)
            means.append(np.mean(log_eigen_multiscale(decomp, 2, 5)))
        assert np.mean(means) == pytest.approx(H, abs=0.1)


class TestLogEigenMultiscale:
    def test_exact_log_linear_input(self):
        H = 0.35
        details = {j: diagonal_details([2.0 ** (j * (2 * H + 1))] * 4, 64) for j in (2, 3, 4, 5)}
        h = log_eigen_multiscale(fake_decomposition(details), 2, 5)
        assert np.allclose(h, H, atol=1e-10)

    def test_two_octave_window_is_two_point_slope(self, rng):
        lam2 = np.sort(rng.uniform(1.0, 2.0, 4))
        lam3 = np.sort(rng.uniform(4.0, 9.0, 4))
        details = {2: diagonal_details(lam2, 32), 3: diagonal_details(lam3, 16)}
        h = log_eigen_multiscale(fake_decomposition(details), 2, 3)
        slope = np.log2(lam3) - np.log2(lam2)  # rank-paired two-point slope
        assert np.allclose(h, np.sort((slope - 1.0) / 2.0), atol=1e-10)

    def test_octave_order_validated(self):
        details = {2: diagonal_details([1, 2], 8), 3: diagonal_details([1, 2], 8)}
        with pytest.raises(Exception):
            log_eigen_multiscale(fake_decomposition(details), 3, 2)

    def test_degenerate_any_octave_raises(self):
        details = {2: diagonal_details([1.0, 2.0], 8), 3: np.zeros((2, 8))}
        with pytest.raises(DegenerateSpectrumError):
            log_eigen_multiscale(fake_decomposition(details), 2, 3)


class TestHeuristicM:
    def test_flat_spectrum_zero(self):
        w = wavelet_random_matrix(fake_decomposition({5: diagonal_details([3.0] * 4, 8)}), 5)
        assert heuristic_m(w, 16) == pytest.approx(0.0, abs=1e-12)

    def test_ratio_a_squared_gives_one(self):
        a = 16
        w = wavelet_random_matrix(fake_decomposition({5: diagonal_details([1.0, 4.0, float(a) ** 2], 8)}), 5)
        assert heuristic_m(w, a) == pytest.approx(1.0, abs=1e-12)

    def test_equals_statistic_spread_and_bounds_within_mode_spread(self):
        # on the analysis-scale matrix, M is exactly the spread of the
        # rescaled log-eigenvalues, hence an upper bound for any threshold
        # that separates points; it also dominates the within-mode spread
        dist = HurstDistribution((0.25, 0.35), (0.5, 0.5))
        panel, h_true = gen_panel(dist, 64, 2**14, seed=21)
        decomp = decompose(panel, daubechies(2), 5)
        w = wavelet_random_matrix(decomp, 5)
        m = heuristic_m(w, 16)
        h = log_eigen(w, 16)
        assert m == pytest.approx(h[-1] - h[0], abs=1e-12)
        n1 = int(np.sum(h_true == 0.25))
        within = max(np.ptp(h[:n1]), np.ptp(h[n1:]))
        assert m >= within

    def test_degenerate_raises(self):
        w = wavelet_random_matrix(fake_decomposition({5: np.ones((3, 4))}), 5)
        with pytest.raises(DegenerateSpectrumError):
            heuristic_m(w, 16)


class TestSpectrumOnce:
    """Each analysed octave is decomposed into eigenvalues exactly once."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh

        def counted(m):
            calls.append(m.shape)
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @pytest.fixture(scope="class")
    def panel(self):
        panel, _ = gen_panel(HurstDistribution((0.25, 0.35), (0.5, 0.5)), 8, 2**12, seed=5)
        return panel

    def test_single_scale_one_call(self, panel, eigvalsh_calls):
        log_eigen_set(panel, PipelineConfig(a=16, j=1))
        assert eigvalsh_calls == [(8, 8)]

    @pytest.mark.parametrize("j1,j2", [(1, 2), (2, 5)])
    def test_multiscale_one_call_per_octave(self, panel, eigvalsh_calls, j1, j2):
        log_eigen_set(panel, PipelineConfig(multiscale=(j1, j2)))
        assert eigvalsh_calls == [(8, 8)] * (j2 - j1 + 1)

    def test_second_read_returns_same_array(self, eigvalsh_calls):
        w = wavelet_random_matrix(fake_decomposition({1: diagonal_details([1.0, 2.0], 4)}), 1)
        assert w.eigenvalues is w.eigenvalues
        assert len(eigvalsh_calls) == 1

    def test_rank_deficient_raises_on_every_read(self):
        w = wavelet_random_matrix(fake_decomposition({1: np.ones((3, 5))}), 1)
        for _ in range(2):
            with pytest.raises(DegenerateSpectrumError, match=r"non-positive eigenvalue .* at octave 1: "):
                w.eigenvalues


class TestRankPairingTrend:
    def test_max_deviation_shrinks_with_n(self):
        # moderately-high-dimensional scaling: (n, a, p) grow together and
        # the worst-rank deviation from the true exponent trends down
        H = 0.5
        errs = []
        for n, a, p in [(2**12, 2**3, 8), (2**14, 2**4, 16), (2**16, 2**5, 32)]:
            per_seed = []
            for seed in range(3):
                panel, _ = gen_panel(HurstDistribution.point(H), p, n, seed=seed)
                cfg = PipelineConfig(n=n, p=p, a=a, j=1)
                h, _ = log_eigen_set(panel, cfg)
                per_seed.append(np.max(np.abs(h - H)))
            errs.append(np.mean(per_seed))
        assert errs[0] > errs[1] > errs[2]
