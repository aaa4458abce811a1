from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurstmodes import (
    ConfigError,
    DomainError,
    eigengap_count,
    epsilon_graph,
    estimate_at_epsilon,
    icsd,
    kmeans,
    laplacian_spectrum,
    select_scheme,
)
from hurstmodes import selection


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
        with pytest.raises(ConfigError, match="finite"):
            select_scheme(two_groups, m=5, grid_max=float("inf"))
        with pytest.raises(ConfigError):
            select_scheme(two_groups, m=5, grid_max=1.0, min_cluster=0)
        with pytest.raises(DomainError):
            select_scheme(np.array([0.5]), m=5, grid_max=1.0)

    def test_identical_values_single_cluster(self):
        est = select_scheme(np.full(8, 0.3), m=5, grid_max=1e-8, seed=0)
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
        spread = float(values.max() - values.min())
        a = select_scheme(values, m=10, grid_max=spread, seed=seed)
        b = select_scheme(values[perm], m=10, grid_max=spread, seed=seed)
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

        def spread(v):  # one grid unit when every value is equal
            return float(v.max() - v.min()) or unit

        a = select_scheme(values, m=m, grid_max=spread(values), seed=seed)
        b = select_scheme(values + c, m=m, grid_max=spread(values + c), seed=seed)
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


def _reference_point(values, eps, seed):
    """One grid point by the eigh chain alone: (clusters in input indices,
    modes, probabilities, ICSD)."""
    perm = np.argsort(values, kind="stable")
    x = values[perm]
    theta, u = laplacian_spectrum(epsilon_graph(x, eps))
    r = eigengap_count(theta)
    clusters = (tuple(range(len(x))),) if r == 1 else kmeans(u[:, :r], r, seed=seed)
    means = np.array([x[list(c)].mean() for c in clusters])
    order = np.argsort(means)
    clusters = tuple(clusters[i] for i in order)
    sizes = np.array([len(c) for c in clusters], dtype=float)
    return (tuple(tuple(sorted(perm[list(c)].tolist())) for c in clusters), means[order],
            sizes / len(x), icsd(x, clusters))


def _reference_select(values, grid_max, m, seed, min_cluster):
    """select_scheme with eigh at every grid point, k = 1..m."""
    grid = grid_max * np.arange(1, m + 1) / m
    points = [_reference_point(values, grid[k - 1], _scheme_seed(seed, k, m)) for k in range(1, m + 1)]
    curve = np.array([pt[3] for pt in points])
    excluded = np.array([min(len(c) for c in pt[0]) < min_cluster for pt in points])
    if excluded.all():
        excluded[:] = False
    return points, curve, excluded, int(np.argmin(np.where(excluded, np.inf, curve)))


class TestEigenvectorFreeCounts:
    """select_scheme equals the chain that runs eigh at every grid point."""

    @pytest.mark.filterwarnings("ignore:every grid point:RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(
        lattice=st.booleans(),
        ints=st.lists(st.integers(0, 15), min_size=2, max_size=48),
        centers=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        spread=st.floats(1e-3, 0.2),
        m=st.integers(1, 12),
        min_cluster=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_eigh_at_every_point(self, lattice, ints, centers, spread, m, min_cluster, seed):
        # integer lattices carry duplicates and distances equal to a grid
        # value; the continuous sets are one to three normal modes
        if lattice:
            values = np.array(ints, dtype=float) / 8.0
        else:
            rng = np.random.default_rng(seed)
            values = np.array([centers[i % len(centers)] for i in ints]) + rng.normal(0.0, spread, len(ints))
        grid_max = float(np.ptp(values)) or 1.0
        est = select_scheme(values, grid_max=grid_max, m=m, seed=seed, min_cluster=min_cluster)
        points, curve, excluded, chosen = _reference_select(values, grid_max, m, seed, min_cluster)
        for scheme, (clusters, modes, probs, spread_sum) in zip(est.trace.schemes, points):
            assert scheme.clusters == clusters
            assert scheme.r_hat == len(clusters)
            assert np.array_equal(scheme.mode_estimates, modes)
            assert np.array_equal(scheme.prob_estimates, probs)
            assert scheme.icsd == spread_sum
        assert np.array_equal(est.trace.icsd_curve, curve)
        assert np.array_equal(est.trace.excluded, excluded)
        assert est.trace.chosen_index == chosen
        assert est.r_hat == len(points[chosen][0])
        assert np.array_equal(est.modes, points[chosen][1])

    def test_proofs_stop_at_the_first_split(self, monkeypatch, two_groups):
        # the walk goes from the largest epsilon down; from the first point
        # that splits, every smaller one goes straight to eigh
        calls = []
        real = selection.estimate_at_epsilon

        def recorded(values, eps, seed=0, **kwargs):
            scheme = real(values, eps, seed=seed, **kwargs)
            calls.append((eps, kwargs["prove_one"], scheme.r_hat))
            return scheme

        monkeypatch.setattr(selection, "estimate_at_epsilon", recorded)
        est = select_scheme(two_groups, m=10, grid_max=1.0, seed=0)
        assert [c[0] for c in calls] == list(est.trace.grid[::-1])
        first_split = next(i for i, c in enumerate(calls) if c[2] > 1)
        assert 0 < first_split < len(calls) - 1
        assert [c[1] for c in calls] == [True] * (first_split + 1) + [False] * (len(calls) - first_split - 1)


def _scheme_seed(seed, k, m):
    from hurstmodes.selection import _epsilon_seed

    return _epsilon_seed(seed, k, m)


def test_epsilon_seed_reduces_k_over_m():
    # the address is k/m in lowest terms, so a refined grid reuses the seeds
    # of the epsilons it shares with a coarser one
    for m in range(1, 65):
        for k in range(1, m + 1):
            frac = Fraction(k, m)
            expected = np.random.default_rng((7, 4, frac.numerator, frac.denominator)).integers(2**63)
            assert _scheme_seed(7, k, m) == expected, (k, m)
