import numpy as np
import pytest

from specsumm import (KmeansConfig, ParameterError, kmeans_cost, kmeanspp_init,
                      minibatch_kmeans)
from specsumm.kmeans import _DIST_BLOCK, _replay_batch, _sq_dists

from oracles import all_memberships, minibatch_replay


def _brute_force_cost(points, k):
    """Best Eq.-9-style cost over every surjective assignment (tiny n only)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    best = np.inf
    for membership in all_memberships(len(points), k):
        cost = 0.0
        for c in range(k):
            members = points[membership.assign == c]
            cost += np.sum((members - members.mean(axis=0)) ** 2)
        best = min(best, cost)
    return best


class TestKmeansppInit:
    def test_k_equals_n_permutes_points(self):
        points = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0], [7.0, 7.0]])
        centroids = kmeanspp_init(points, 4, seed=13)
        got = sorted(map(tuple, centroids.tolist()))
        assert got == sorted(map(tuple, points.tolist()))

    def test_identical_points_k1(self):
        points = np.full((6, 2), 3.5)
        centroids = kmeanspp_init(points, 1, seed=0)
        np.testing.assert_array_equal(centroids, [[3.5, 3.5]])

    def test_two_well_separated_values(self):
        points = np.array([0.0, 0.0, 10.0, 10.0])
        for seed in range(10):
            centroids = kmeanspp_init(points, 2, seed=seed).ravel()
            assert sorted(centroids.tolist()) == [0.0, 10.0]

    def test_deterministic(self, rng):
        points = rng.standard_normal((40, 3))
        a = kmeanspp_init(points, 5, seed=21)
        b = kmeanspp_init(points, 5, seed=21)
        assert np.array_equal(a, b)

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            kmeanspp_init(np.zeros((3, 2)), 4, seed=0)


class TestMinibatchKmeans:
    def test_separable_repeats(self):
        locs = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        points = np.repeat(locs, 5, axis=0)
        assign, centroids, cost = minibatch_kmeans(points, 3,
                                                   KmeansConfig(seed=2))
        assert cost == pytest.approx(0.0, abs=1e-12)
        # each location forms one cluster
        assert len({assign[i * 5] for i in range(3)}) == 3
        for i in range(3):
            assert np.all(assign[i * 5:(i + 1) * 5] == assign[i * 5])

    def test_k1_matches_mean_and_variance(self, rng):
        points = rng.standard_normal((30, 2))
        assign, centroids, cost = minibatch_kmeans(points, 1,
                                                   KmeansConfig(seed=4))
        assert np.all(assign == 0)
        # batch updates are a running mean over resampled points, so the
        # centroid reaches the data mean only to sampling accuracy
        np.testing.assert_allclose(centroids[0], points.mean(axis=0),
                                   atol=0.05)
        variance = float(np.sum((points - points.mean(axis=0)) ** 2))
        assert variance - 1e-12 <= cost <= 1.001 * variance

    def test_two_tight_groups_split_optimally(self):
        points = np.array([0.0, 0.1, 0.2, 9.9, 10.0, 10.1])
        assign, _, cost = minibatch_kmeans(points, 2, KmeansConfig(seed=1))
        assert len(set(assign[:3])) == 1 and len(set(assign[3:])) == 1
        assert assign[0] != assign[3]
        optimum = _brute_force_cost(points, 2)
        assert optimum - 1e-12 <= cost <= 1.01 * optimum

    def test_cost_never_exceeds_seeding(self, rng):
        for seed in range(8):
            points = rng.standard_normal((60, 4))
            k = int(rng.integers(2, 7))
            init = kmeanspp_init(points, k, seed=seed)
            dists = ((points[:, None, :] - init[None, :, :]) ** 2).sum(axis=2)
            seed_cost = float(dists.min(axis=1).sum())
            _, _, cost = minibatch_kmeans(points, k, KmeansConfig(seed=seed))
            assert cost <= seed_cost + 1e-9

    def test_every_cluster_nonempty(self, rng):
        for seed in range(8):
            points = rng.standard_normal((25, 2))
            k = int(rng.integers(2, 10))
            assign, _, _ = minibatch_kmeans(points, k, KmeansConfig(seed=seed))
            assert len(set(assign.tolist())) == k

    def test_deterministic_per_seed(self, rng):
        points = rng.standard_normal((80, 3))
        cfg = KmeansConfig(seed=7)
        a = minibatch_kmeans(points, 4, cfg)
        b = minibatch_kmeans(points, 4, cfg)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            minibatch_kmeans(np.zeros((2, 2)), 3, KmeansConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            KmeansConfig(batch_size=0)
        with pytest.raises(ParameterError):
            KmeansConfig(max_iterations=-1)


class TestReplayBatch:
    """Per-rank rounds against the one-sample-at-a-time loop, bit for bit."""

    def _compare(self, centroids, counts, batch, nearest):
        expected = (centroids.copy(), counts.copy())
        minibatch_replay(*expected, batch, nearest)
        _replay_batch(centroids, counts, batch, nearest)
        assert np.array_equal(centroids, expected[0])
        assert np.array_equal(counts, expected[1])

    def test_matches_per_sample_loop(self, rng):
        for _ in range(30):
            k = int(rng.integers(1, 40))
            d = int(rng.integers(1, 30))
            size = int(rng.integers(1, 1200))
            self._compare(rng.standard_normal((k, d)),
                          rng.integers(0, 50, size=k),
                          rng.standard_normal((size, d)),
                          rng.integers(0, k, size=size))

    def test_one_cluster_takes_every_sample(self, rng):
        batch = rng.standard_normal((300, 4))
        self._compare(rng.standard_normal((5, 4)), np.zeros(5, np.int64),
                      batch, np.full(300, 2))

    def test_skewed_hits_from_nearest_assignment(self, rng):
        centroids = rng.standard_normal((8, 3))
        batch = rng.standard_normal((1024, 3)) * 3.0 + 1.0
        nearest = np.argmin(_sq_dists(batch, centroids), axis=1)
        self._compare(centroids, np.zeros(8, np.int64), batch, nearest)


class TestSqDists:
    @pytest.mark.parametrize("n", [1, 5, _DIST_BLOCK - 1, _DIST_BLOCK,
                                   _DIST_BLOCK + 1, 3 * _DIST_BLOCK + 17])
    def test_blocked_equals_unblocked_einsum(self, rng, n):
        points = rng.standard_normal((n, 7))
        centroids = rng.standard_normal((11, 7))
        diff = points[:, None, :] - centroids[None, :, :]
        expected = np.einsum("nkd,nkd->nk", diff, diff)
        assert np.array_equal(_sq_dists(points, centroids), expected)


class TestKmeansCost:
    def test_zero_at_exact_fit(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert kmeans_cost(points, points, np.array([0, 1])) == 0.0

    def test_single_midpoint_centroid(self):
        points = np.array([0.0, 2.0])
        got = kmeans_cost(points, np.array([1.0]), np.array([0, 0]))
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_hand_summed_variance(self):
        points = np.array([0.0, 0.1, 0.2])
        got = kmeans_cost(points, np.array([0.1]), np.array([0, 0, 0]))
        assert got == pytest.approx(0.02, abs=1e-12)

    def test_rejects_bad_assignment(self):
        with pytest.raises(IndexError):
            kmeans_cost(np.zeros((2, 1)), np.zeros((1, 1)), np.array([0, 1]))


def test_tie_breaks_to_lowest_centroid_index():
    # point 0.5 is equidistant from centroids 0 and 1 after convergence on
    # symmetric data; the assignment pass must pick the lower index
    points = np.array([0.0, 1.0, 0.5])
    assign, centroids, _ = minibatch_kmeans(points, 2, KmeansConfig(seed=3))
    mid = assign[2]
    d = np.abs(centroids.ravel() - 0.5)
    if d[0] == d[1]:
        assert mid == 0
