import warnings

import numpy as np
import pytest

from specsumm import (KmeansConfig, ParameterError, generate_sbm, kmeans_cost,
                      kmeanspp_init, lm_eigs, minibatch_kmeans,
                      random_orthonormal_init)
from specsumm import kmeans
from specsumm.kmeans import (_assign_with_repair, _assigned_sq_dists,
                             _best_candidate, _minibatch_kmeans, _nearest,
                             _update_batch)
from specsumm.rng import make_generator

from oracles import (DIST_BLOCK, all_memberships,
                     assign_with_repair_reference, kmeanspp_reference,
                     minibatch_kmeans_reference, minibatch_replay,
                     minibatch_running_mean, sq_dists)

# The private helpers take the row-major points that _as_points hands
# them; the public functions take any layout.


def _layouts(points):
    """Row-major, column-major (as the eigensolver hands them over) and a
    strided view of the same points."""
    wide = np.repeat(points, 2, axis=1)
    return [np.ascontiguousarray(points), np.asfortranarray(points),
            wide[:, ::2]]


def _to_one_row(points, row):
    """Every point's exact distance to one row, as the seeding takes D² to
    its first centroid."""
    return _assigned_sq_dists(points, row[None, :],
                              np.zeros(len(points), dtype=np.int64))


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


class TestGreedySeeding:
    """The screened greedy choice against the exact one: the oracle reads
    every potential off full exact distance matrices."""

    @pytest.mark.parametrize("n, d, k", [(1, 1, 1), (7, 2, 7), (300, 4, 6),
                                         (1500, 9, 40), (2500, 40, 12)])
    def test_equals_reference(self, rng, n, d, k):
        for seed in range(3):
            points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(
                -3, 4, size=(n, 1))
            want = kmeanspp_reference(np.ascontiguousarray(points), k,
                                      make_generator(seed))
            for layout in _layouts(points):
                assert np.array_equal(kmeanspp_init(layout, k, seed), want)

    def test_duplicated_rows_tie_and_take_the_exact_path(self):
        # Every row appears 8 times, so draws at different indices of the
        # same row tie exactly: only the exact potentials order them, and
        # the first such draw must win.
        local = np.random.default_rng(11)
        points = np.repeat(local.standard_normal((30, 3)), 8, axis=0)
        for seed in range(5):
            want = kmeanspp_reference(points, 20, make_generator(seed))
            assert np.array_equal(kmeanspp_init(points, 20, seed), want)

    def test_mirrored_draws_keep_the_summation_order(self):
        # Row i and row n - 1 - i mirror each other across the x axis, with
        # 20 copies of the origin at either end.  From a first centroid at
        # the origin, the far pair's updated D² are each other's reverse:
        # their potentials tie exactly, and their float sums differ only in
        # the order of the terms.  Seeds 14, 16, 18 and 29 draw that pair
        # after the origin, so a potential summed in any order but the
        # reference's picks the other row of the pair.
        local = np.random.default_rng(0)
        top = np.vstack([np.zeros((20, 2)), local.standard_normal((20, 2)),
                         [[10.0, 3.0]]])
        points = np.vstack([top, (top * [1.0, -1.0])[::-1]])
        best = sq_dists(points, points[:1])[:, 0]
        far, mirror = (np.minimum(best, sq_dists(points, points[[row]])[:, 0])
                       for row in (40, 41))
        assert np.array_equal(mirror, far[::-1])
        assert far.sum() != mirror.sum()
        for seed in range(30):
            want = kmeanspp_reference(points, 2, make_generator(seed))
            assert np.array_equal(kmeanspp_init(points, 2, seed), want)

    def test_overflowing_gemm_form_takes_the_exact_path(self, rng):
        # ‖x‖² overflows near 1.3e154 while the differences stay finite:
        # every screened distance reads inf - inf, so every row of every
        # draw takes its exact distance, and no warning escapes.
        points = 1e155 + 1e150 * rng.standard_normal((300, 3))
        assert np.all(np.isfinite(sq_dists(points, points[:5])))
        for seed in range(4):
            want = kmeanspp_reference(points, 8, make_generator(seed))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(kmeanspp_init(points, 8, seed), want)

    def test_orthonormal_embedding_settles_most_rows_from_the_gemm(
            self, monkeypatch):
        # The slack must stay tight enough that, on an embedding like the
        # pipeline's, the draws after the first centroid get their exact
        # distances on few of the rows: each call measures its rows
        # against one or more distinct draws.
        rows, draws = [], []
        column = kmeans._assigned_sq_dists

        def counting(p, c, assign):
            rows.append(len(p))
            draws.append(len(c))
            return column(p, c, assign)

        monkeypatch.setattr(kmeans, "_assigned_sq_dists", counting)
        points = random_orthonormal_init(4000, 40, seed=5)
        want = kmeanspp_reference(np.ascontiguousarray(points), 40,
                                  make_generator(3))
        assert np.array_equal(kmeanspp_init(points, 40, 3), want)
        assert rows[0] == len(points)
        assert sum(rows[1:]) <= sum(draws[1:]) * len(points) // 10

    def _cases(self, rng):
        """Points with a large common offset (the GEMM form keeps few
        correct bits of their distances), at mixed scales, and on an
        orthonormal embedding; D² to one row of each."""
        n = 1500
        yield 1e4 + 1e-3 * rng.standard_normal((n, 2))
        yield rng.standard_normal((n, 17)) * 10.0 ** rng.integers(
            -3, 4, size=(n, 1))
        yield np.ascontiguousarray(random_orthonormal_init(n, 40, seed=2))

    @staticmethod
    def _row_errors(points, candidates):
        """Each screened distance's gap to the exact one, and its row's
        slack."""
        approx, slack = kmeans._screened_sq_dists(
            points, np.einsum("nd,nd->n", points, points), candidates)
        return np.abs(approx.T - sq_dists(points, candidates)), slack

    def test_slack_bounds_the_screen(self, rng, monkeypatch):
        cases = [(points, points[rng.choice(len(points), 6, replace=False)])
                 for points in self._cases(rng)]
        for points, candidates in cases:
            row_gap, row_slack = self._row_errors(points, candidates)
            assert np.all(row_gap <= row_slack[:, None])
        # Without the per-row slack the offset case breaks the bound, so
        # the assertion above tests it.
        monkeypatch.setattr(kmeans, "_SLACK_FACTOR", 0.0)
        row_gap, row_slack = self._row_errors(*cases[0])
        assert np.any(row_gap > row_slack[:, None])

    def test_settled_choice_and_update_equal_the_exact_ones(self, rng):
        # _best_candidate recomputes the exact distances only on the rows
        # a draw may bring closer; its choice and D² must still be the
        # oracle's, bit for bit.
        for points in self._cases(rng):
            row_sq = np.einsum("nd,nd->n", points, points)
            best = _to_one_row(points, points[0])
            for _ in range(5):
                drawn = rng.choice(len(points), 5, p=best / best.sum())
                got = _best_candidate(points, row_sq, best, drawn)
                # Each draw's D² update, as kmeanspp_reference forms it.
                reduced = [np.minimum(best, column) for column
                           in sq_dists(points, points[drawn]).T]
                win = int(np.argmin([r.sum() for r in reduced]))
                assert got[0] == drawn[win]
                assert np.array_equal(got[1], reduced[win])
                best = got[1]

    def test_near_ties_get_the_exact_update(self, rng, monkeypatch):
        # Rows on the bisector of a and b, nudged toward b by 1e-16 to 1e-9
        # of |b − a|, at a common offset of 100: the GEMM form misjudges
        # which side of the bisector hundreds of them lie on, so only the
        # slack keeps them among the rows whose D² is recomputed.
        a = np.full(3, 100.0)
        b = a + np.array([1.0, 0.0, 0.0])
        across = rng.standard_normal((2000, 3))
        across[:, 0] = 0.0
        nudge = 10.0 ** rng.uniform(-16, -9, size=(2000, 1))
        points = np.vstack([a, b, (a + b) / 2 + across + nudge * (b - a)])
        row_sq = np.einsum("nd,nd->n", points, points)
        best = _to_one_row(points, a)
        exact = _to_one_row(points, b)
        approx = row_sq - 2.0 * (points @ b) + b @ b
        assert np.count_nonzero((exact < best) & (approx >= best)) > 100
        pick, updated = _best_candidate(points, row_sq, best, np.array([1]))
        assert pick == 1
        assert np.array_equal(updated, np.minimum(best, exact))
        # Without the slack those rows keep their old D².
        monkeypatch.setattr(kmeans, "_SLACK_FACTOR", 0.0)
        _, updated = _best_candidate(points, row_sq, best, np.array([1]))
        assert not np.array_equal(updated, np.minimum(best, exact))

    def test_minibatch_kmeans_seeds_on_the_subsample(self, rng, monkeypatch):
        # Above _SEED_ROWS rows kmeanspp_init returns the seeding that
        # minibatch_kmeans starts from, drawn on that many rows.
        monkeypatch.setattr(kmeans, "_SEED_ROWS", 300)
        seen = []
        greedy = kmeans._greedy_kmeanspp

        def recording(points, k, generator):
            # minibatch_kmeans trains the seeding it gets in place.
            seen.append((len(points), greedy(points, k, generator)))
            return seen[-1][1].copy()

        monkeypatch.setattr(kmeans, "_greedy_kmeanspp", recording)
        points = rng.standard_normal((1000, 5))
        for seed in range(3):
            minibatch_kmeans(points, 12, KmeansConfig(seed=seed))
            used = seen[-1]
            assert used[0] == 300
            assert np.array_equal(kmeanspp_init(points, 12, seed), used[1])
            # Every centroid is one of the points.
            assert all((points == c).all(axis=1).any() for c in used[1])


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

    def test_cost_never_exceeds_seeding(self, rng, monkeypatch):
        # Half the cases seed on a subsample; the seeding is still measured
        # over every row.
        monkeypatch.setattr(kmeans, "_SEED_ROWS", 40)
        for seed in range(8):
            points = rng.standard_normal((30 + 10 * seed, 4))
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

    @pytest.mark.parametrize("n, d", [(1, 1), (5, 1), (30, 3), (300, 7)])
    def test_k_equals_n_gives_each_point_its_own_cluster(self, rng, n, d):
        # The trained centroids stay on their points up to rounding.
        for seed in range(3):
            points = rng.standard_normal((n, d))
            assign, _, cost = minibatch_kmeans(points, n,
                                               KmeansConfig(seed=seed))
            assert np.array_equal(np.sort(assign), np.arange(n))
            assert cost < 1e-20

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            minibatch_kmeans(np.zeros((2, 2)), 3, KmeansConfig(seed=0))


class TestStopRule:
    def test_well_separated_blobs_stop_on_a_plateau(self, rng):
        centres = 10.0 * rng.standard_normal((8, 5))
        points = (np.repeat(centres, 400, axis=0)
                  + 0.01 * rng.standard_normal((3200, 5)))
        for seed in range(4):
            assign, centroids, cost, record = _minibatch_kmeans(
                points, 8, KmeansConfig(seed=seed))
            assert record["stop"] == "plateau"
            assert record["batches"] < kmeans._MAX_ITERATIONS
            assert record["cost"] == cost
            assert kmeans_cost(points, centroids, assign) == cost
            groups = assign.reshape(8, 400)
            assert np.all(groups == groups[:, :1])
            assert len(set(groups[:, 0].tolist())) == 8

    def test_runs_to_the_cap_while_the_cost_falls(self, rng, monkeypatch):
        # At n = 20000 the smoothing weight is about 0.1, so the smoothed
        # cost still sets new minima after 15 batches on uniform data.
        monkeypatch.setattr(kmeans, "_MAX_ITERATIONS", 15)
        assert kmeans._PATIENCE < 15
        points = rng.uniform(size=(20000, 2))
        for seed in range(3):
            record = _minibatch_kmeans(points, 16, KmeansConfig(seed=seed))[3]
            assert (record["batches"], record["stop"]) == (15, "cap")

    def test_record_matches_the_result(self, rng):
        points = rng.standard_normal((500, 3))
        for seed in range(4):
            cfg = KmeansConfig(seed=seed)
            assign, centroids, cost, record = _minibatch_kmeans(points, 5, cfg)
            public = minibatch_kmeans(points, 5, cfg)
            assert np.array_equal(public[0], assign)
            assert np.array_equal(public[1], centroids)
            assert public[2] == cost
            assert set(record) == {"batches", "stop", "cost", "repairs"}
            assert record["cost"] == cost
            assert kmeans_cost(points, centroids, assign) == cost
            assert 1 <= record["batches"] <= kmeans._MAX_ITERATIONS
            assert record["stop"] in ("plateau", "cap")
            assert {type(v) for v in record.values()} <= {int, float, str}


class TestReplayBatch:
    """The closed-form batch update against the per-cluster oracle, bit for
    bit, and against the one-sample-at-a-time loop, within rounding."""

    def _compare(self, centroids, counts, batch, nearest):
        oracle = (centroids.copy(), counts.copy())
        minibatch_running_mean(*oracle, batch, nearest)
        loop = (centroids.copy(), counts.copy())
        minibatch_replay(*loop, batch, nearest)
        scale = max(np.max(np.abs(centroids)), np.max(np.abs(batch)))
        _update_batch(centroids, counts, batch, nearest)
        assert np.array_equal(centroids, oracle[0])
        assert np.array_equal(counts, oracle[1])
        assert np.array_equal(counts, loop[1])
        # The loop rounds at every sample; both stay within a few units of
        # rounding of the largest magnitude involved (3 at most seen).
        np.testing.assert_allclose(centroids, loop[0], rtol=0,
                                   atol=64 * 2.0 ** -53 * scale)

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

    def test_full_batch_on_one_cluster(self, rng):
        batch = rng.standard_normal((1024, 40))
        self._compare(rng.standard_normal((40, 40)),
                      rng.integers(0, 50, size=40), batch, np.full(1024, 17))

    def test_tail_after_shared_rounds(self, rng):
        # Two clusters with very unequal hit counts.
        nearest = np.concatenate([np.zeros(30, np.int64),
                                  np.full(500, 3, np.int64)])
        rng.shuffle(nearest)
        self._compare(rng.standard_normal((5, 6)), np.zeros(5, np.int64),
                      rng.standard_normal((530, 6)), nearest)

    def test_skewed_hits_from_nearest_assignment(self, rng):
        centroids = rng.standard_normal((8, 3))
        batch = rng.standard_normal((1024, 3)) * 3.0 + 1.0
        nearest = np.argmin(sq_dists(batch, centroids), axis=1)
        self._compare(centroids, np.zeros(8, np.int64), batch, nearest)


class TestSqDists:
    """The oracle's blocked distance matrix, and the package's per-centroid
    columns, gathered over every (row, centroid) pair as the tie fallback
    of ``_nearest`` takes them, against it: that fallback relies on them
    being equal bit for bit."""

    @pytest.mark.parametrize("n", [1, 5, DIST_BLOCK - 1, DIST_BLOCK,
                                   DIST_BLOCK + 1, 3 * DIST_BLOCK + 17])
    def test_blocked_equals_unblocked_einsum(self, rng, n):
        points = rng.standard_normal((n, 7))
        centroids = rng.standard_normal((11, 7))
        diff = points[:, None, :] - centroids[None, :, :]
        expected = np.einsum("nkd,nkd->nk", diff, diff)
        assert np.array_equal(sq_dists(points, centroids), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_per_centroid_columns_equal_oracle(self, seed):
        local = np.random.default_rng(seed)
        for _ in range(10):
            n = int(local.integers(1, 3 * DIST_BLOCK + 20))
            k, d = local.integers(1, 71, size=2)
            scale = 10.0 ** local.uniform(-6, 6)
            points = scale * local.standard_normal((n, d))
            centroids = scale * local.standard_normal((k, d))
            columns = _assigned_sq_dists(
                np.repeat(points, k, axis=0), centroids,
                np.tile(np.arange(k), n)).reshape(n, k)
            assert np.array_equal(columns, sq_dists(points, centroids))


class TestNearest:
    """The GEMM screen with its exact fallback against the argmin of the
    full exact distance matrix."""

    @staticmethod
    def _exact(points, centroids):
        return np.argmin(sq_dists(points, centroids), axis=1)

    @staticmethod
    def _resolved_rows(monkeypatch, points, centroids):
        """``_nearest``'s result and the number of rows its exact fallback
        re-solved, each measured against every centroid."""
        rows = [0]
        gathered = kmeans._assigned_sq_dists

        def counting(p, c, assign):
            rows.append(len(p) // len(c))
            return gathered(p, c, assign)

        monkeypatch.setattr(kmeans, "_assigned_sq_dists", counting)
        return _nearest(points, centroids), sum(rows)

    @pytest.mark.parametrize("d", [1, 2, 7, 32, 40, 129])
    def test_equals_exact_argmin(self, rng, d):
        for k in (1, 2, 40):
            for n in (1, 127, 128, 129, 1024):
                centroids = rng.standard_normal((k, d))
                points = rng.standard_normal((n, d))
                assert np.array_equal(_nearest(points, centroids),
                                      self._exact(points, centroids))

    def test_duplicated_centroids_go_to_lowest_index(self, rng):
        distinct = rng.standard_normal((3, 5))
        centroids = np.vstack([distinct, distinct, distinct[::-1]])
        points = rng.standard_normal((300, 5))
        got = _nearest(points, centroids)
        assert got.max() < 3
        assert np.array_equal(got, self._exact(points, centroids))

    def test_equidistant_points_go_to_lowest_index(self, rng):
        # (1, t) is exactly as far from (0, 0) as from (2, 0); centroid 2 is
        # farther from every such point.
        centroids = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 50.0]])
        points = np.column_stack([np.ones(200), rng.uniform(-3, 3, 200)])
        assert np.array_equal(_nearest(points, centroids), np.zeros(200))
        assert np.array_equal(_nearest(points, centroids[[1, 0, 2]]),
                              np.zeros(200))

    def test_large_common_offset(self, rng):
        # Distances of order 1e-6 beside norms of order 1e4: the GEMM form
        # keeps only a few correct bits of them and picks wrong centroids,
        # so only the slack keeps these rows exact.
        points = 1e4 + 1e-3 * rng.standard_normal((1000, 2))
        centroids = 1e4 + 1e-3 * rng.standard_normal((20, 2))
        assert np.array_equal(_nearest(points, centroids),
                              self._exact(points, centroids))
        # Only the rows the screen cannot settle are re-solved exactly, so
        # scatter near-ties (b closer than a by about 4e-10, one in every
        # DIST_BLOCK rows) among points that are clearly nearest a: the
        # GEMM form misorders some of them without tying.
        a, b = centroids[:2]
        points = a + 1e-4 * rng.standard_normal((4096, 2))
        across = np.array([a[1] - b[1], b[0] - a[0]])
        hard = rng.standard_normal((4096 // DIST_BLOCK, 1))
        points[::DIST_BLOCK] = (a + b) / 2 + 1e-4 * (b - a) + hard * across
        assert np.array_equal(_nearest(points, centroids[:2]),
                              self._exact(points, centroids[:2]))

    def test_overflowing_gemm_form_falls_back(self, rng):
        # ‖x‖² overflows near 1.3e154 while the differences stay finite:
        # the GEMM form reads inf - inf and every row takes the exact path.
        points = 1e155 + 1e150 * rng.standard_normal((300, 3))
        centroids = 1e155 + 1e150 * rng.standard_normal((5, 3))
        exact = self._exact(points, centroids)
        assert np.all(np.isfinite(sq_dists(points, centroids)))
        assert len(set(exact.tolist())) > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_nearest(points, centroids), exact)

    def test_rounding_ties_take_the_exact_path(self, rng):
        # Centroid 1 swaps centroid 0's coordinate pairs and every point is
        # equal within each pair, so both distances sum the same squares in
        # another order: rounding alone separates them, and only the rows
        # recomputed in the difference form can order them as sq_dists does.
        c0 = rng.standard_normal(40)
        centroids = np.vstack([c0, c0.reshape(20, 2)[:, ::-1].ravel()])
        points = np.repeat(rng.standard_normal((1000, 20)), 2, axis=1)
        assert np.array_equal(_nearest(points, centroids),
                              self._exact(points, centroids))

    def test_orthonormal_embedding_needs_no_fallback(self, monkeypatch):
        # The slack must stay tight enough that an embedding like the
        # pipeline's settles every row from the GEMM alone.
        points = random_orthonormal_init(4000, 40, seed=5)
        centroids = points[np.random.default_rng(6).choice(4000, 40,
                                                           replace=False)]
        exact = self._exact(points, centroids)
        nearest, resolved = self._resolved_rows(monkeypatch, points,
                                                centroids)
        assert np.array_equal(nearest, exact)
        assert resolved == 0

    def test_outlier_centroid_keeps_the_screen_exact(self, monkeypatch):
        # One centroid at norm 1e3 sets the slack of every row, which is
        # sized to the largest centroid norm: the winners must stay exact,
        # and the looser slack must still settle most rows from the GEMM.
        points = random_orthonormal_init(4000, 40, seed=5)
        centroids = points[np.random.default_rng(6).choice(4000, 40,
                                                           replace=False)]
        far = np.zeros((1, 40))
        far[0, 0] = 1e3
        centroids = np.vstack([centroids, far])
        exact = self._exact(points, centroids)
        nearest, resolved = self._resolved_rows(monkeypatch, points,
                                                centroids)
        assert np.array_equal(nearest, exact)
        assert exact.max() < 40
        assert resolved <= len(points) // 100


class TestAssignWithRepair:
    """The screened final pass against the full-matrix oracle: same
    assignment, centroids and cost, bit for bit."""

    @staticmethod
    def _compare(points, centroids):
        got = _assign_with_repair(points, centroids)
        want = assign_with_repair_reference(points, centroids)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        return want

    def test_random_points(self, rng):
        for n, d, k in ((5, 1, 3), (2 * DIST_BLOCK + 1, 7, 9),
                        (1500, 40, 40)):
            self._compare(rng.standard_normal((n, d)),
                          rng.standard_normal((k, d)))

    def test_duplicate_points_force_repairs(self, rng):
        for seed in range(10):
            local = np.random.default_rng(seed)
            points = np.repeat(local.standard_normal((4, 3)), 70, axis=0)
            centroids = local.standard_normal((9, 3))
            _, repaired, _ = self._compare(points, centroids)
            assert not np.array_equal(repaired, centroids)

    def test_assigned_distances_match_matrix_entries(self, rng):
        for n in (1, DIST_BLOCK, 2 * DIST_BLOCK + 1, 3 * DIST_BLOCK + 17,
                  kmeans._SCREEN_BLOCK + 1):
            centroids = rng.standard_normal((6, 33))
            assign = rng.integers(0, 6, size=n)
            points = rng.standard_normal((n, 33))
            full = sq_dists(points, centroids)
            assert np.array_equal(_assigned_sq_dists(points, centroids, assign),
                                  full[np.arange(n), assign])


def test_minibatch_kmeans_matches_reference(rng, monkeypatch):
    # Small batches and a low cap.  A seed_rows below n seeds on a
    # subsample (on k rows when k is larger), a short patience stops on a
    # plateau, and 5 distinct rows for 8 clusters zero every D² and force
    # repairs.
    monkeypatch.setattr(kmeans, "_BATCH_SIZE", 256)
    monkeypatch.setattr(kmeans, "_MAX_ITERATIONS", 20)
    for n, d, k, seed, seed_rows, patience, distinct, stop in (
            (300, 4, 6, 1, 4096, 10, None, "cap"),
            (2000, 40, 40, 2, 4096, 10, None, "cap"),
            (2000, 40, 40, 2, 700, 3, None, "cap"),
            (700, 9, 3, 3, 256, 10, None, "plateau"),
            (700, 9, 3, 4, 256, 2, None, "plateau"),
            (90, 3, 40, 5, 30, 10, None, "cap"),
            (60, 3, 8, 6, 4096, 10, 5, "plateau")):
        monkeypatch.setattr(kmeans, "_SEED_ROWS", seed_rows)
        monkeypatch.setattr(kmeans, "_PATIENCE", patience)
        cfg = KmeansConfig(seed=seed)
        points = rng.standard_normal((distinct or n, d))
        if distinct:
            points = np.repeat(points, n // distinct, axis=0)
        for layout in _layouts(points):
            got = _minibatch_kmeans(layout, k, cfg)
            want = minibatch_kmeans_reference(layout, k, cfg)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            assert got[3]["batches"] == want[3]
            assert got[3]["stop"] == stop
            assert (want[3] < 20) == (stop == "plateau")
            assert (got[3]["repairs"] > 0) == (distinct is not None)


def test_public_functions_ignore_point_layout():
    # An lm embedding arrives column-major.  Among seeds 1-10, seed 4's
    # cost rounds differently when the d squares of each distance are
    # summed in column-major order, so every layout must be summed as one.
    graph, _ = generate_sbm(40, 100, 0.3, 0.01, 1)
    embedding = lm_eigs(graph, 40, seed=1).vectors
    layouts = _layouts(embedding)
    for seed in range(1, 11):
        runs = [minibatch_kmeans(p, 40, KmeansConfig(seed=seed))
                for p in layouts]
        assign, centroids, cost = runs[0]
        seeding = kmeanspp_init(layouts[0], 40, seed)
        for points, (got_assign, got_centroids, got_cost) in zip(layouts,
                                                                 runs):
            assert np.array_equal(got_assign, assign)
            assert np.array_equal(got_centroids, centroids)
            assert got_cost == cost
            assert kmeans_cost(points, centroids, assign) == cost
            assert np.array_equal(kmeanspp_init(points, 40, seed), seeding)


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

    @pytest.mark.parametrize("n, d, k", [(5, 1, 2), (2 * DIST_BLOCK + 1, 7, 9),
                                         (700, 33, 12), (1500, 40, 40)])
    def test_equals_minibatch_cost(self, rng, n, d, k):
        # The cost minibatch_kmeans reports, bit for bit, in every layout.
        for points in _layouts(rng.standard_normal((n, d))):
            assign, centroids, cost = minibatch_kmeans(points, k,
                                                       KmeansConfig(seed=n))
            assert kmeans_cost(points, centroids, assign) == cost


def test_tie_breaks_to_lowest_centroid_index():
    # point 0.5 is equidistant from centroids 0 and 1 after convergence on
    # symmetric data; the assignment pass must pick the lower index
    points = np.array([0.0, 1.0, 0.5])
    assign, centroids, _ = minibatch_kmeans(points, 2, KmeansConfig(seed=3))
    mid = assign[2]
    d = np.abs(centroids.ravel() - 0.5)
    if d[0] == d[1]:
        assert mid == 0


@pytest.mark.parametrize("call, match", [
    (lambda: minibatch_kmeans(np.array([[0.0], [np.nan], [1.0]]), 2),
     "points must be finite"),
    (lambda: kmeans_cost(np.zeros((3, 2)), np.zeros((1, 2)),
                         np.zeros(2, dtype=np.int64)),
     "assignment length must match point count"),
], ids=["non-finite-points", "cost-assignment-length"])
def test_rejects_malformed_input(call, match):
    with pytest.raises(ParameterError, match=match):
        call()
