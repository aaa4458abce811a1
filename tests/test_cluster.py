import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurstmodes import (
    DomainError,
    HurstDistribution,
    PipelineConfig,
    eigengap_count,
    epsilon_graph,
    estimate_at_epsilon,
    gen_panel,
    icsd,
    kmeans,
    laplacian_spectrum,
    select_scheme,
)
from hurstmodes import cluster
from hurstmodes.harness import log_eigen_set


def disjoint_complete_adjacency(sizes):
    p = sum(sizes)
    adj = np.zeros((p, p))
    start = 0
    for s in sizes:
        adj[start : start + s, start : start + s] = 1.0
        start += s
    np.fill_diagonal(adj, 0.0)
    return adj


def component_spectrum(sizes):
    """Closed-form Laplacian spectrum of a disjoint union of complete
    graphs: 0 with multiplicity r, each size with multiplicity size-1."""
    eigs = [0.0] * len(sizes)
    for s in sizes:
        eigs.extend([float(s)] * (s - 1))
    return np.sort(eigs)


def euclidean_graph(values, eps):
    """Threshold graph through p x p x d Euclidean distances: the
    construction for d-dimensional points, kept as the oracle."""
    x = np.asarray(values, dtype=float)[:, None]
    diff = x[:, None, :] - x[None, :, :]
    adj = (np.sqrt(np.sum(diff * diff, axis=-1)) < eps).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


# |v| < 1e-100 snaps to 0, so every gap is 0 or at least ulp(1e-100) ~ 1e-116;
# |v| <= 1e150 keeps each squared gap finite
_stat = st.floats(-1e150, 1e150).map(lambda v: 0.0 if abs(v) < 1e-100 else v)
# values drawn from a small pool, so ties (gap 0) are common
_stats = st.lists(_stat, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=24))


class TestEpsilonGraph:
    def test_distance_exactly_eps_not_connected(self):
        g = epsilon_graph(np.array([0.0, 1.0]), eps=1.0)
        assert g[0, 1] == 0.0

    def test_identical_points_complete(self):
        g = epsilon_graph(np.zeros(5), eps=0.1)
        assert np.array_equal(g, np.ones((5, 5)) - np.eye(5))

    def test_separated_points_empty(self):
        g = epsilon_graph(np.array([0.0, 10.0]), eps=1.0)
        assert not g.any()

    def test_eps_must_be_positive(self):
        with pytest.raises(DomainError):
            epsilon_graph(np.array([0.0, 1.0]), eps=0.0)

    @pytest.mark.parametrize("values", [np.zeros((3, 2)), np.array([0.0, np.nan]), np.array([np.inf, 1.0])])
    def test_rejects_non_1d_or_non_finite(self, values):
        with pytest.raises(DomainError):
            epsilon_graph(values, eps=1.0)

    def test_symmetric_zero_diagonal(self, rng):
        g = epsilon_graph(rng.standard_normal(20), eps=0.5)
        assert np.array_equal(g, g.T)
        assert not np.diag(g).any()

    @settings(max_examples=200, deadline=None)
    @given(values=_stats, data=st.data())
    def test_matches_euclidean_oracle_and_permutes(self, values, data):
        x = np.array(values)
        gaps = np.abs(x[:, None] - x[None, :])
        assume(np.all((gaps == 0.0) | (gaps >= 1e-150)))
        positive = sorted(set(gaps[gaps > 0.0].tolist()))
        # a gap itself as eps checks the strict inequality at the boundary
        eps = data.draw(st.sampled_from(positive) if positive and data.draw(st.booleans())
                        else st.floats(1e-150, 1e151))
        g = epsilon_graph(x, eps)
        assert np.array_equal(g, euclidean_graph(x, eps))
        assert np.array_equal(g, g.T)
        assert not np.diag(g).any()
        assert set(np.unique(g)) <= {0.0, 1.0}
        perm = np.array(data.draw(st.permutations(range(len(x)))))
        assert np.array_equal(epsilon_graph(x[perm], eps), g[perm][:, perm])


class TestLaplacianSpectrum:
    def test_empty_graph_all_zero(self):
        theta, _ = laplacian_spectrum(epsilon_graph(np.arange(6) * 100.0, eps=1.0))
        assert np.allclose(theta, 0.0, atol=1e-12)

    def test_complete_graph_spectrum(self):
        theta, _ = laplacian_spectrum(epsilon_graph(np.zeros(5), eps=1.0))
        assert np.allclose(theta, [0, 5, 5, 5, 5], atol=1e-8)

    def test_three_plus_four_components(self):
        theta, _ = laplacian_spectrum(disjoint_complete_adjacency([3, 4]))
        assert np.allclose(theta, [0, 0, 3, 3, 4, 4, 4], atol=1e-8)

    def test_row_sums_zero_constant_eigenvector(self, rng):
        g = epsilon_graph(rng.standard_normal(12), eps=0.7)
        lap = np.diag(g.sum(axis=1)) - g
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        theta, _ = laplacian_spectrum(g)
        assert theta[0] >= -1e-10

    def test_random_disjoint_unions_closed_form(self, rng):
        # executable spectral oracle for unions of complete graphs
        for _ in range(25):
            r = rng.integers(1, 6)
            sizes = rng.integers(1, 21, size=r).tolist()
            theta, _ = laplacian_spectrum(disjoint_complete_adjacency(sizes))
            assert np.allclose(theta, component_spectrum(sizes), atol=1e-8)


class TestEigengap:
    def test_frozen_example(self):
        theta = np.array([0.0, 0, 3, 3, 4, 4, 4])
        assert eigengap_count(theta) == 2  # gaps (0,3,0,1,0,0), argmax at 2

    def test_complete_graph_single_mode(self):
        theta, _ = laplacian_spectrum(epsilon_graph(np.zeros(6), eps=1.0))
        assert eigengap_count(theta) == 1

    def test_two_zero_then_equal_nonzero(self):
        assert eigengap_count(np.array([0.0, 0.0, 5.0, 5.0, 5.0])) == 2

    def test_tie_breaks_to_smallest_index(self):
        assert eigengap_count(np.array([0.0, 1.0, 2.0, 3.0])) == 1

    def test_needs_two_eigenvalues(self):
        with pytest.raises(DomainError):
            eigengap_count(np.array([0.0]))


class TestSpectralEmbed:
    # the embedding estimate_at_epsilon hands to kmeans: the rows of the
    # leading r eigenvector columns
    def test_component_rows_constant_and_distinct(self):
        sizes = [3, 4, 5]
        _, u = laplacian_spectrum(disjoint_complete_adjacency(sizes))
        rows = u[:, :3]
        reps = []
        start = 0
        for size in sizes:
            block = rows[start : start + size]
            assert np.max(np.abs(block - block[0])) < 1e-8
            reps.append(block[0])
            start += size
        for a, b in itertools.combinations(reps, 2):
            assert np.linalg.norm(a - b) > 1e-6

    def test_single_eigenvector_constant_rows(self):
        _, u = laplacian_spectrum(epsilon_graph(np.zeros(5), eps=1.0))
        rows = u[:, :1]
        assert np.max(np.abs(rows - rows[0])) < 1e-8

    def test_permutation_equivariance(self, rng):
        x = rng.standard_normal(10)
        perm = rng.permutation(10)
        _, u1 = laplacian_spectrum(epsilon_graph(x, eps=0.8))
        _, u2 = laplacian_spectrum(epsilon_graph(x[perm], eps=0.8))
        # same multiset of embedded points (eigenvector bases may differ by
        # rotation inside eigenspaces, so compare pairwise distance multisets)
        r = 3
        e1 = u1[:, :r][perm]
        e2 = u2[:, :r]
        d1 = np.sort(np.linalg.norm(e1[:, None] - e1[None, :], axis=-1).ravel())
        d2 = np.sort(np.linalg.norm(e2[:, None] - e2[None, :], axis=-1).ravel())
        assert np.allclose(d1, d2, atol=1e-8)


class TestKmeans:
    def test_level_sets_any_seed(self, rng):
        # r distinct values, kappa = r: the value-level partition, one pass
        for trial in range(25):
            r = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            values = rng.standard_normal((r, d)) * 5
            counts = rng.integers(1, 7, size=r)
            pts = np.vstack([np.repeat(values[i][None, :], counts[i], axis=0) for i in range(r)])
            order = rng.permutation(len(pts))
            pts = pts[order]
            expected = {
                frozenset(np.flatnonzero((pts == values[i]).all(axis=1)).tolist()) for i in range(r)
            }
            for seed in (0, 1, 2):
                got = {frozenset(c) for c in kmeans(pts, r, seed=seed)}
                assert got == expected

    def test_single_cluster_mean(self, rng):
        pts = rng.standard_normal((7, 2))
        (members,) = kmeans(pts, 1, seed=0)
        assert sorted(members) == list(range(7))

    def test_two_pairs_exhaustive_sse_oracle(self):
        pts = np.array([[0.0], [0.01], [1.0], [1.01]])

        def sse(groups):
            return sum(np.sum((pts[list(g)] - pts[list(g)].mean()) ** 2) for g in groups)

        best = min(
            ((frozenset(c), frozenset(set(range(4)) - set(c)))
             for size in (1, 2) for c in itertools.combinations(range(4), size)),
            key=sse,
        )
        got = {frozenset(c) for c in kmeans(pts, 2, seed=5)}
        assert got == set(best)
        assert got == {frozenset({0, 1}), frozenset({2, 3})}

    def test_kappa_exceeding_distinct_count(self):
        with pytest.raises(DomainError):
            kmeans(np.array([[1.0], [1.0], [2.0]]), 3, seed=0)

    def test_points_must_be_rows(self):
        with pytest.raises(DomainError):
            kmeans(np.array([1.0, 2.0, 3.0]), 2, seed=0)

    def test_deterministic_under_seed(self, rng):
        pts = rng.standard_normal((30, 2))
        assert kmeans(pts, 4, seed=9) == kmeans(pts, 4, seed=9)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(2, 40),
        d=st.integers(1, 3),
        kappa=st.integers(1, 6),
        repeats=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_input_order_only_permutes_partition(self, p, d, kappa, repeats, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((p, d))
        if repeats:  # level sets: every point shared by about three rows
            pts = pts[rng.integers(max(p // 3, 1), size=p)]
        assume(kappa <= len(np.unique(pts, axis=0)))
        perm = rng.permutation(p)
        base = {frozenset(c) for c in kmeans(pts, kappa, seed=seed)}
        moved = {frozenset(perm[list(c)].tolist()) for c in kmeans(pts[perm], kappa, seed=seed)}
        assert moved == base


class TestIcsd:
    def test_singletons_contribute_zero(self):
        vals = np.array([1.0, 2.0, 5.0])
        assert icsd(vals, [(0,), (1,), (2,)]) == 0.0

    def test_matches_direct_formula(self, rng):
        vals = rng.standard_normal(12)
        clusters = [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9, 10, 11)]
        total = sum(np.sqrt(np.mean((vals[list(c)] - vals[list(c)].mean()) ** 2)) for c in clusters)
        assert icsd(vals, clusters) == pytest.approx(total, abs=1e-12)

    def test_merge_variance_decomposition(self, rng):
        # union variance = mixture of variances + between-means spread,
        # so merging never reduces the merged cluster's own deviation term
        for _ in range(20):
            a = rng.standard_normal(rng.integers(2, 10))
            b = rng.standard_normal(rng.integers(2, 10)) + rng.uniform(-2, 2)
            wa, wb = len(a) / (len(a) + len(b)), len(b) / (len(a) + len(b))
            var_union = np.mean((np.r_[a, b] - np.r_[a, b].mean()) ** 2)
            mix = wa * np.var(a) + wb * np.var(b)
            between = wa * wb * (a.mean() - b.mean()) ** 2
            assert var_union == pytest.approx(mix + between, abs=1e-12)
            assert var_union >= mix - 1e-12


def _no_eigen(*args, **kwargs):
    pytest.fail("an eigendecomposition ran")


def _random_graph(p, density, seed):
    """0/1 symmetric adjacency with zero diagonal, each edge present with
    probability density."""
    upper = np.triu(np.random.default_rng(seed).random((p, p)) < density, 1).astype(float)
    return upper + upper.T


_graphs = st.builds(_random_graph, st.integers(2, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
# threshold graphs: lattice statistics carry ties and distances equal to eps
_lattice_graphs = st.builds(
    lambda ints, frac: epsilon_graph(np.array(ints) / 4.0, frac / 4.0),
    st.lists(st.integers(0, 12), min_size=2, max_size=40), st.integers(1, 49))
_gaussian_graphs = st.builds(
    lambda p, seed, eps: epsilon_graph(np.random.default_rng(seed).standard_normal(p), eps),
    st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(1e-3, 8.0))


class TestCountProof:
    """The eigenvector-free proof that the eigengap count is 1."""

    def test_complete_graph_needs_no_eigen_call(self, monkeypatch):
        # every pair within eps: the complement has no edge, so q = 0
        monkeypatch.setattr(np.linalg, "eigh", _no_eigen)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigen)
        values = np.linspace(0.0, 1.0, 50)
        scheme = estimate_at_epsilon(values, eps=2.0, seed=0)
        assert scheme.clusters == (tuple(range(50)),)
        assert scheme.icsd == icsd(values, scheme.clusters)

    def test_disjoint_cliques_never_proved(self):
        # theta_1 = 0: the first gap is 0, so the count is above 1 (not
        # always 2: K_2 + K_7 has gaps 0, 2, 5)
        for sizes in itertools.product([1, 2, 3, 7, 30], repeat=2):
            if sizes == (1, 1):
                continue  # p = 2: one gap, so a count of one
            adj = disjoint_complete_adjacency(sizes)
            assert not cluster._count_is_one(adj), sizes
            assert eigengap_count(laplacian_spectrum(adj)[0]) > 1

    def test_two_adjacent_points_proved_by_degrees(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", _no_eigen)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigen)
        assert cluster._count_is_one(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_two_apart_points_proved_by_eigenvalues(self, monkeypatch):
        # the complement is K_2; two eigenvalues have one gap: the count is 1
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        monkeypatch.setattr(np.linalg, "eigh", _no_eigen)
        assert cluster._count_is_one(np.zeros((2, 2)))
        assert calls == [(2, 2)]

    @settings(max_examples=300, deadline=None)
    @given(adj=_graphs)
    def test_proof_agrees_with_eigh(self, adj):
        # on any graph, not only threshold graphs: a proved count is eigh's
        if cluster._count_is_one(adj):
            assert eigengap_count(laplacian_spectrum(adj)[0]) == 1

    def test_eigvalsh_sees_only_vertices_with_a_non_neighbor(self, monkeypatch):
        # K_30 less the edge 3-17: the complement is that one edge, so q = 2
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
        adj = np.ones((30, 30)) - np.eye(30)
        adj[3, 17] = adj[17, 3] = 0.0
        assert np.allclose(cluster._complement_spectrum(adj), [0.0, 28.0] + [30.0] * 28, atol=1e-12)
        assert calls == [(2, 2)]

    @settings(max_examples=300, deadline=None)
    @given(adj=st.one_of(_graphs, _lattice_graphs, _gaussian_graphs))
    def test_complement_spectrum_matches_eigh(self, adj):
        # L(G) + L(G') = pI - J, so the spectrum assembled from the
        # complement is eigh's up to rounding: measured up to 1.1e-13 *
        # max(1, theta_max), which near-empty graphs reach (L(G')'s
        # eigenvalues near p, less p); the bound is 10^4 below the 1e-8 margin
        theta = laplacian_spectrum(adj)[0]
        got = cluster._complement_spectrum(adj)
        assert np.max(np.abs(got - theta)) <= 1e-12 * max(1.0, theta[-1])

    @settings(max_examples=150, deadline=None)
    @given(
        lattice=st.booleans(),
        ints=st.lists(st.integers(0, 12), min_size=2, max_size=40),
        seed=st.integers(0, 2**32 - 1),
        frac=st.integers(1, 12),
    )
    def test_both_paths_give_equal_schemes(self, lattice, ints, seed, frac):
        # prove_one changes the cost, never the scheme
        if lattice:  # duplicates and distances equal to eps
            values = np.array(ints, dtype=float) / 4.0
        else:
            values = np.random.default_rng(seed).standard_normal(len(ints)) * 0.1 + (np.array(ints) > 6)
        eps = frac * (float(np.ptp(values)) or 1.0) / 12
        a = estimate_at_epsilon(values, eps, seed=seed)
        b = estimate_at_epsilon(values, eps, seed=seed, prove_one=False)
        assert a.clusters == b.clusters
        assert a.r_hat == b.r_hat
        assert np.array_equal(a.mode_estimates, b.mode_estimates)
        assert np.array_equal(a.prob_estimates, b.prob_estimates)
        assert a.icsd == b.icsd


class TestEstimateAtEpsilon:
    def test_two_tight_groups(self, rng):
        lo = 0.2 + rng.normal(0, 0.004, 32)
        hi = 0.8 + rng.normal(0, 0.004, 32)
        values = np.sort(np.r_[lo, hi])
        scheme = estimate_at_epsilon(values, eps=0.1, seed=0)
        assert scheme.r_hat == 2
        assert scheme.clusters == (tuple(range(32)), tuple(range(32, 64)))
        assert np.allclose(scheme.mode_estimates, [0.2, 0.8], atol=0.01)
        assert np.allclose(scheme.prob_estimates, [0.5, 0.5])
        assert scheme.icsd == pytest.approx(
            icsd(values, scheme.clusters), abs=1e-12
        )
        assert scheme.icsd < 0.02  # about the sum of the two group spreads

    def test_all_equal_single_cluster(self):
        scheme = estimate_at_epsilon(np.full(10, 0.4), eps=0.05, seed=1)
        assert scheme.r_hat == 1
        assert scheme.icsd == 0.0
        assert scheme.prob_estimates.sum() == 1.0

    def test_partition_validity(self, rng):
        values = np.sort(rng.standard_normal(40))
        scheme = estimate_at_epsilon(values, eps=0.3, seed=2)
        flat = sorted(i for c in scheme.clusters for i in c)
        assert flat == list(range(40))
        assert scheme.prob_estimates.sum() == 1.0
        assert np.all(np.diff(scheme.mode_estimates) >= 0)

    def test_shift_equivariance(self, rng):
        values = np.sort(rng.standard_normal(30))
        c = 1.234
        s1 = estimate_at_epsilon(values, eps=0.4, seed=3)
        s2 = estimate_at_epsilon(values + c, eps=0.4, seed=3)
        assert s1.clusters == s2.clusters
        assert s1.r_hat == s2.r_hat
        assert np.allclose(s2.mode_estimates, s1.mode_estimates + c, atol=1e-10)
        assert np.array_equal(s1.prob_estimates, s2.prob_estimates)
        assert s2.icsd == pytest.approx(s1.icsd, abs=1e-10)

    def test_three_mode_panel(self):
        # cheap build-time variant of the trimodal experiment; the full
        # configuration runs in the acceptance suite
        dist = HurstDistribution.uniform([0.2, 0.5, 0.8])
        panel, _ = gen_panel(dist, 64, 2**16, seed=5)
        cfg = PipelineConfig(n=2**16, p=64, multiscale=(4, 6))
        h, auto_m = log_eigen_set(panel, cfg)
        est = select_scheme(h, m=10, grid_max=auto_m, seed=5)
        assert est.r_hat == 3
        assert np.allclose(est.modes, [0.2, 0.5, 0.8], atol=0.1)
