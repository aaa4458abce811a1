import numpy as np
import pytest

from hurstmodes import ConfigError, DomainError, fit_gmm, select_gmm


class TestFitGmm:
    def test_single_component_closed_form(self, rng):
        x = rng.standard_normal(50) * 2.0 + 1.0
        fit = fit_gmm(x, 1)
        assert fit.means[0] == pytest.approx(x.mean(), abs=1e-14)
        assert fit.variances[0] == pytest.approx(np.mean((x - x.mean()) ** 2), abs=1e-14)
        assert fit.weights[0] == 1.0

    def test_bic_field_identity(self, rng):
        x = rng.standard_normal(64)
        for k in (1, 2, 3):
            fit = fit_gmm(x, k)
            assert fit.bic == pytest.approx(-2 * fit.loglik + (3 * fit.k - 1) * np.log(64), abs=1e-9)

    def test_weights_and_variances_positive(self, rng):
        x = np.r_[rng.normal(0, 1, 40), rng.normal(4, 0.5, 24)]
        fit = fit_gmm(x, 2)
        assert np.all(fit.weights > 0)
        assert abs(fit.weights.sum() - 1.0) < 1e-10
        assert np.all(fit.variances > 0)
        assert np.all(np.diff(fit.means) >= 0)

    def test_needs_enough_points(self):
        with pytest.raises(DomainError):
            fit_gmm(np.arange(3, dtype=float), 2)

    def test_variance_collapse_flagged(self):
        # an exact atom plus diffuse points: the atom component's variance
        # hits the floor and the component is removed
        x = np.r_[np.zeros(20), np.linspace(5, 8, 12)]
        fit = fit_gmm(x, 3)
        assert fit.collapsed
        assert fit.k < 3


class TestSelectGmm:
    def test_bic_consistency_gaussian(self):
        # i.i.d. Gaussian samples: one component wins almost always
        wins = 0
        for s in range(200):
            x = np.random.default_rng(s).standard_normal(64)
            wins += select_gmm(x, k_max=3).k == 1
        assert wins >= 180

    def test_well_separated_two_groups(self, rng):
        hits = 0
        for s in range(50):
            r = np.random.default_rng(1000 + s)
            x = np.r_[r.normal(0.2, 0.01, 32), r.normal(0.8, 0.01, 32)]
            fit = select_gmm(x, k_max=3)
            if fit.k == 2 and np.allclose(fit.means, [0.2, 0.8], atol=0.02):
                hits += 1
        assert hits >= 45

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            select_gmm(rng.standard_normal(16), k_max=0)
        with pytest.raises(DomainError):
            select_gmm(rng.standard_normal(5), k_max=3)

    def test_collapsed_fits_skipped_with_warning(self):
        # equal statistics collapse every component of the k = 2 and k = 3
        # fits; each is skipped with a warning, and the k = 1 fit, which
        # cannot fail, is the one left
        with pytest.warns(RuntimeWarning) as caught:
            fit = select_gmm(np.full(8, 0.37), k_max=3)
        assert [str(w.message) for w in caught] == [
            "GMM fit with k=2 failed; skipping", "GMM fit with k=3 failed; skipping"]
        assert fit.k == 1 and fit.means[0] == 0.37 and not fit.collapsed

    def test_deterministic(self, rng):
        x = rng.standard_normal(64)
        a = select_gmm(x, k_max=3)
        b = select_gmm(x, k_max=3)
        assert a.k == b.k
        assert np.array_equal(a.means, b.means)
