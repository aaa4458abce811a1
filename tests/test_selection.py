import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurstmodes import ConfigError, DomainError, estimate_at_epsilon, select_scheme


@pytest.fixture
def two_groups(rng):
    lo = 0.2 + rng.normal(0, 0.005, 32)
    hi = 0.8 + rng.normal(0, 0.005, 32)
    return np.sort(np.r_[lo, hi])


class TestSelectScheme:
    def test_two_groups_selected(self, two_groups):
        est = select_scheme(two_groups, m=10, grid_max=1.0, seed=0)
        assert est.r_hat == 2
        assert np.allclose(est.modes, [0.2, 0.8], atol=0.01)
        assert np.allclose(est.probs, [0.5, 0.5])

    def test_argmin_correctness_against_trace(self, two_groups):
        est = select_scheme(two_groups, m=10, grid_max=1.0, seed=0)
        curve = est.trace.icsd_curve
        retained = ~est.trace.excluded
        assert retained[est.trace.chosen_index]
        assert est.icsd == curve[est.trace.chosen_index]
        assert est.icsd <= curve[retained].min() + 0.0
        # exhaustive replay of every grid point from scratch
        for k, eps in enumerate(est.trace.grid):
            scheme = est.trace.schemes[k]
            redo = estimate_at_epsilon(two_groups, eps, seed=_scheme_seed(0, k + 1, 10))
            assert redo.clusters == scheme.clusters

    def test_grid_is_k_over_m(self):
        est = select_scheme(np.array([0.0, 0.0, 1.0, 1.0]), m=4, grid_max=2.0, seed=0)
        assert np.allclose(est.trace.grid, [0.5, 1.0, 1.5, 2.0])

    def test_single_grid_point(self, two_groups):
        est = select_scheme(two_groups, m=1, grid_max=0.3, seed=0)
        assert est.epsilon_ms == pytest.approx(0.3)

    def test_deterministic(self, two_groups):
        a = select_scheme(two_groups, m=10, grid_max=1.0, seed=7)
        b = select_scheme(two_groups, m=10, grid_max=1.0, seed=7)
        assert a.r_hat == b.r_hat
        assert a.epsilon_ms == b.epsilon_ms
        assert np.array_equal(a.modes, b.modes)
        assert a.scheme.clusters == b.scheme.clusters

    def test_ties_break_to_smaller_epsilon(self, two_groups):
        # with two tight well-separated groups, every eps below the gap and
        # above the group widths yields the identical partition and ICSD;
        # the smallest such grid value must be chosen
        est = select_scheme(two_groups, m=20, grid_max=0.5, seed=1)
        curve = est.trace.icsd_curve
        retained = ~est.trace.excluded
        minval = curve[retained].min()
        first = next(k for k in range(20) if retained[k] and curve[k] == minval)
        assert est.trace.chosen_index == first

    def test_refinement_never_increases_icsd(self, two_groups):
        coarse = select_scheme(two_groups, m=10, grid_max=1.0, seed=4)
        fine = select_scheme(two_groups, m=20, grid_max=1.0, seed=4)
        assert fine.icsd <= coarse.icsd + 1e-15

    def test_min_cluster_excludes_shards(self, rng):
        # one extreme outlier: schemes isolating it as a singleton are
        # excluded from the argmin but stay visible in the trace
        values = np.sort(np.r_[rng.normal(0.5, 0.01, 31), [5.0]])
        est = select_scheme(values, m=10, grid_max=5.0, seed=0, min_cluster=2)
        assert est.scheme.min_cluster_size >= 2
        assert est.trace.excluded.any()

    def test_all_excluded_drops_constraint_with_warning(self):
        # every grid threshold splits off the isolated point as a singleton
        values = np.array([0.0, 0.1, 0.2, 1.0])
        with pytest.warns(RuntimeWarning, match="min_cluster"):
            est = select_scheme(values, m=2, grid_max=0.5, seed=0, min_cluster=2)
        assert est.r_hat == 2
        assert est.scheme.min_cluster_size == 1

    def test_validation(self, two_groups):
        with pytest.raises(ConfigError):
            select_scheme(two_groups, m=0, grid_max=1.0)
        with pytest.raises(ConfigError):
            select_scheme(two_groups, m=5, grid_max=-1.0)
        with pytest.raises(ConfigError):
            select_scheme(two_groups, m=5, grid_max=1.0, min_cluster=0)
        with pytest.raises(DomainError):
            select_scheme(np.array([0.5]), m=5, grid_max=1.0)

    def test_auto_grid_max_uses_spread(self, two_groups):
        est = select_scheme(two_groups, m=10, seed=0)
        spread = two_groups.max() - two_groups.min()
        assert est.trace.grid[-1] == pytest.approx(spread)

    def test_identical_values_single_cluster(self):
        est = select_scheme(np.full(8, 0.3), m=5, seed=0)
        assert est.r_hat == 1
        assert est.icsd == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(6, 59),
        split=st.floats(0.05, 0.95),
        centers=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        spreads=st.tuples(st.floats(1e-3, 0.1), st.floats(1e-3, 0.1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_input_order_only_permutes_clusters(self, p, split, centers, spreads, seed):
        # two-mode statistics in random order: permuting them permutes the
        # clusters of every scheme and leaves every estimate equal
        rng = np.random.default_rng(seed)
        k = min(max(round(split * p), 1), p - 1)
        values = np.r_[rng.normal(centers[0], spreads[0], k), rng.normal(centers[1], spreads[1], p - k)]
        perm = rng.permutation(p)
        a = select_scheme(values, m=10, seed=seed)
        b = select_scheme(values[perm], m=10, seed=seed)
        assert b.r_hat == a.r_hat
        assert np.array_equal(b.modes, a.modes)
        assert np.array_equal(b.probs, a.probs)
        assert b.epsilon_ms == a.epsilon_ms
        assert b.icsd == a.icsd
        assert np.array_equal(b.trace.icsd_curve, a.trace.icsd_curve)
        for sa, sb in zip(a.trace.schemes, b.trace.schemes):
            assert [tuple(sorted(perm[list(c)].tolist())) for c in sb.clusters] == list(sa.clusters)

    @pytest.mark.filterwarnings("ignore:every grid point:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        centers=st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=3),
        offsets=st.lists(st.tuples(st.integers(0, 2), st.integers(-2**15, 2**15)), min_size=2, max_size=40),
        shift=st.integers(-2**22, 2**22),
        m=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_translation_moves_only_the_modes(self, centers, offsets, shift, m, seed):
        # on a 2^-20 grid every |x_i - x_j| and the spread are exact, before
        # and after the shift, so every graph, partition and grid value is
        # the same; only the cluster means move, by the shift
        unit = 2.0**-20
        values = np.array([centers[i % len(centers)] + o for i, o in offsets]) * unit
        c = shift * unit
        a = select_scheme(values, m=m, seed=seed)
        b = select_scheme(values + c, m=m, seed=seed)
        assert np.array_equal(b.trace.grid, a.trace.grid)
        assert b.epsilon_ms == a.epsilon_ms
        assert np.array_equal(b.trace.excluded, a.trace.excluded)
        for sa, sb in zip(a.trace.schemes, b.trace.schemes):
            assert sb.r_hat == sa.r_hat
            assert sb.clusters == sa.clusters
            np.testing.assert_allclose(sb.mode_estimates, sa.mode_estimates + c, rtol=0, atol=1e-12)
        # the ICSD moves by rounding: skip draws where it could reorder two
        # different partitions
        for est in (a, b):
            kept = [(s.icsd, s.clusters) for s, x in zip(est.trace.schemes, est.trace.excluded) if not x]
            assume(all(abs(u - v) > 1e-12 for u, cu in kept for v, cv in kept if cu != cv))
        assert b.trace.chosen_index == a.trace.chosen_index
        assert b.r_hat == a.r_hat
        np.testing.assert_allclose(b.modes, a.modes + c, rtol=0, atol=1e-12)


def _scheme_seed(seed, k, m):
    from hurstmodes.selection import _epsilon_seed

    return _epsilon_seed(seed, k, m)
