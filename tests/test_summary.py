import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsumm import (Graph, Membership, ParameterError, ReassignConfig,
                      Summary, adjacency_trace_sq, build_summary,
                      generate_sbm, l2_loss, lifted_entry,
                      membership_to_normalized, objective_integer,
                      reassignment, specsumm, supernode_edge_counts,
                      trace_objective_relaxed)

from specsumm.summary import _move_deltas

from oracles import (best_single_move, dense_l2_loss, dense_lifted,
                     move_delta, random_graph, random_membership)


def _mem(labels, k):
    return Membership(np.array(labels, dtype=np.int64), k)


class TestMembership:
    def test_sizes_and_n(self):
        m = _mem([0, 0, 1, 2, 1], 3)
        assert m.n == 5
        assert m.sizes.tolist() == [2, 2, 1]

    def test_rejects_empty_supernode(self):
        with pytest.raises(ParameterError):
            _mem([0, 0, 2], 3)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ParameterError):
            _mem([0, 1, 2], 2)
        with pytest.raises(ParameterError):
            _mem([-1, 0], 1)

    def test_rejects_empty_assignment(self):
        with pytest.raises(ParameterError):
            _mem([], 1)

    def test_assign_is_read_only(self):
        m = _mem([0, 1], 2)
        with pytest.raises(ValueError):
            m.assign[0] = 1


class TestNormalizedForm:
    def test_k3_two_group(self, k3):
        Z = membership_to_normalized(_mem([0, 0, 1], 2))
        r = 1 / np.sqrt(2.0)
        np.testing.assert_allclose(Z, [[r, 0], [r, 0], [0, 1]], atol=0)

    def test_singletons_permute_identity(self):
        Z = membership_to_normalized(_mem([2, 0, 1], 3))
        np.testing.assert_array_equal(Z @ Z.T, np.eye(3))

    def test_single_group_column(self):
        Z = membership_to_normalized(_mem([0] * 4, 1))
        np.testing.assert_allclose(Z, np.full((4, 1), 0.5), atol=0)

    def test_exactly_orthonormal(self, rng):
        m = random_membership(rng, 30, 5)
        Z = membership_to_normalized(m)
        gram = Z.T @ Z
        assert np.abs(gram - np.eye(5)).max() <= 1e-15


class TestIntegerObjective:
    def test_k3_two_group(self, k3):
        assert objective_integer(k3, _mem([0, 0, 1], 2)) == pytest.approx(5.0)

    def test_two_triangles_planted(self, two_triangles):
        got = objective_integer(two_triangles, _mem([0, 0, 0, 1, 1, 1], 2))
        assert got == pytest.approx(8.0)

    def test_singletons_give_edge_mass(self, rng):
        graph = random_graph(rng, 14)
        m = _mem(list(range(14)), 14)
        assert objective_integer(graph, m) == pytest.approx(
            2.0 * graph.edge_count)

    def test_matches_relaxed_objective(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 40))
            k = int(rng.integers(1, min(n, 8) + 1))
            graph = random_graph(rng, n)
            m = random_membership(rng, n, k)
            via_z = trace_objective_relaxed(graph, membership_to_normalized(m))
            assert objective_integer(graph, m) == pytest.approx(
                via_z, abs=1e-9)


class TestEdgeCounts:
    def test_two_group_counts(self, k3):
        E = supernode_edge_counts(k3, _mem([0, 0, 1], 2))
        np.testing.assert_array_equal(E, [[2, 2], [2, 0]])

    def test_total_is_twice_edges(self, rng):
        graph = random_graph(rng, 25)
        m = random_membership(rng, 25, 4)
        E = supernode_edge_counts(graph, m)
        assert E.sum() == 2 * graph.edge_count
        np.testing.assert_array_equal(E, E.T)


class TestBuildSummary:
    def test_k3_two_group_density(self, k3):
        s = build_summary(k3, _mem([0, 0, 1], 2))
        np.testing.assert_allclose(s.density, [[0.5, 1.0], [1.0, 0.0]],
                                   atol=0)

    def test_k4_single_supernode(self, k4):
        s = build_summary(k4, _mem([0] * 4, 1))
        np.testing.assert_allclose(s.density, [[0.75]], atol=0)

    def test_edgeless_graph(self):
        graph = Graph.from_edges(4, [])
        s = build_summary(graph, _mem([0, 0, 1, 1], 2))
        np.testing.assert_array_equal(s.density, np.zeros((2, 2)))

    def test_density_edge_products_are_integral(self, rng):
        graph = random_graph(rng, 30)
        m = random_membership(rng, 30, 5)
        s = build_summary(graph, m)
        sizes = m.sizes.astype(np.float64)
        products = s.density * np.outer(sizes, sizes)
        assert np.abs(products - np.round(products)).max() <= 1e-9

    def test_density_bounds(self, rng):
        graph = random_graph(rng, 30, p=0.8)
        m = random_membership(rng, 30, 3)
        s = build_summary(graph, m)
        assert s.density.min() >= 0 and s.density.max() <= 1
        sizes = m.sizes.astype(np.float64)
        assert np.all(np.diag(s.density) <= (sizes - 1) / sizes + 1e-12)

    def test_summary_validation(self):
        m = _mem([0, 1], 2)
        with pytest.raises(ParameterError):
            Summary(m, np.array([[0.0, 0.5], [0.4, 0.0]]))  # asymmetric
        with pytest.raises(ParameterError):
            Summary(m, np.array([[0.0, 1.5], [1.5, 0.0]]))  # out of range
        with pytest.raises(ParameterError):
            Summary(m, np.array([[1.0, 0.0], [0.0, 0.0]]))  # diag too big


class TestLiftedEntry:
    def test_k3_examples(self, k3):
        s = build_summary(k3, _mem([0, 0, 1], 2))
        assert lifted_entry(s, 0, 1) == 0.5
        assert lifted_entry(s, 0, 2) == 1.0
        assert lifted_entry(s, 2, 2) == 0.0

    def test_out_of_range(self, k3):
        s = build_summary(k3, _mem([0, 0, 1], 2))
        with pytest.raises(IndexError):
            lifted_entry(s, 0, 3)

    def test_matches_dense_form(self, rng):
        graph = random_graph(rng, 12)
        s = build_summary(graph, random_membership(rng, 12, 3))
        lifted = dense_lifted(s)
        for u in range(12):
            for v in range(12):
                assert lifted_entry(s, u, v) == lifted[u, v]


class TestL2Loss:
    def test_k3_two_group(self, k3):
        s = build_summary(k3, _mem([0, 0, 1], 2))
        assert l2_loss(k3, s) == pytest.approx(1.0, abs=1e-12)
        assert dense_l2_loss(k3, s) == pytest.approx(1.0, abs=1e-12)

    def test_singletons_reconstruct_exactly(self, rng):
        graph = random_graph(rng, 9)
        s = build_summary(graph, _mem(list(range(9)), 9))
        assert l2_loss(graph, s) == pytest.approx(0.0, abs=1e-9)

    def test_two_triangles_planted(self, two_triangles):
        s = build_summary(two_triangles, _mem([0, 0, 0, 1, 1, 1], 2))
        assert l2_loss(two_triangles, s) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_mismatched_graph(self, k3, k4):
        s = build_summary(k3, _mem([0, 0, 1], 2))
        with pytest.raises(ParameterError):
            l2_loss(k4, s)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(0, 2**31),
           st.integers(min_value=1, max_value=6))
    def test_duality_against_dense_oracle(self, n, seed, k):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n)
        m = random_membership(rng, n, min(k, n))
        s = build_summary(graph, m)
        loss = l2_loss(graph, s)
        f = objective_integer(graph, m)
        assert loss + f == pytest.approx(adjacency_trace_sq(graph), abs=1e-9)
        assert loss == pytest.approx(dense_l2_loss(graph, s), abs=1e-9)

    def test_ordering_matches_loss_ordering(self, rng):
        graph = random_graph(rng, 20)
        pairs = []
        for k in (2, 3, 4, 5):
            m = random_membership(rng, 20, k)
            s = build_summary(graph, m)
            pairs.append((objective_integer(graph, m), l2_loss(graph, s)))
        for f1, l1 in pairs:
            for f2, l2 in pairs:
                if f1 > f2:
                    assert l1 < l2


class TestReassignment:
    def test_misassigned_triangle_node_comes_home(self, two_triangles):
        m = _mem([0, 0, 0, 0, 1, 1], 2)
        counts = supernode_edge_counts(two_triangles, m)
        assert objective_integer(two_triangles, m) == pytest.approx(4.25)
        best, move = best_single_move(two_triangles, m)
        assert (best, move) == (8.0, (3, 1))
        # seed 6 samples node 3 before the triangle nodes 0-2, whose own
        # greedy moves (F 4.25 -> 40/9) would derail the one-move path
        out, log = reassignment(two_triangles, m, counts,
                                ReassignConfig(rounds=1, seed=6))
        assert objective_integer(two_triangles, out) == pytest.approx(8.0)
        assert len(log) == 1
        assert (log[0].node, log[0].source, log[0].target) == (3, 0, 1)

    def test_greedy_detour_stays_monotone(self, two_triangles):
        m = _mem([0, 0, 0, 0, 1, 1], 2)
        counts = supernode_edge_counts(two_triangles, m)
        out, log = reassignment(two_triangles, m, counts,
                                ReassignConfig(rounds=1, seed=0))
        values = [4.25] + [mv.objective for mv in log]
        assert np.all(np.diff(values) > 0)
        assert objective_integer(two_triangles, out) == pytest.approx(
            values[-1])

    def test_planted_optimum_is_left_alone(self):
        graph, planted = generate_sbm(3, 8, 0.9, 0.05, seed=0)
        _, move = best_single_move(graph, planted)
        assert move is None  # instance chosen so planted is 1-move optimal
        counts = supernode_edge_counts(graph, planted)
        out, log = reassignment(graph, planted, counts,
                                ReassignConfig(rounds=1, seed=5))
        assert log == []
        assert np.array_equal(out.assign, planted.assign)

    def test_zero_rounds_is_identity(self, two_triangles):
        m = _mem([0, 0, 0, 0, 1, 1], 2)
        counts = supernode_edge_counts(two_triangles, m)
        out, log = reassignment(two_triangles, m, counts,
                                ReassignConfig(rounds=0, seed=1))
        assert log == []
        assert np.array_equal(out.assign, m.assign)

    def test_rejects_stale_counts(self, two_triangles):
        m = _mem([0, 0, 0, 0, 1, 1], 2)
        bad = supernode_edge_counts(two_triangles, m) + 2
        with pytest.raises(ParameterError):
            reassignment(two_triangles, m, bad, ReassignConfig(seed=0))

    def test_logged_objectives_match_scratch_replay(self, rng):
        for _ in range(6):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(2, 6))
            graph = random_graph(rng, n)
            m = random_membership(rng, n, k)
            counts = supernode_edge_counts(graph, m)
            out, log = reassignment(
                graph, m, counts,
                ReassignConfig(rounds=3, samples_per_round=20,
                               seed=int(rng.integers(2**31))))
            start = objective_integer(graph, m)
            assign = m.assign.copy()
            prev = start
            for mv in log:
                assert assign[mv.node] == mv.source
                assign[mv.node] = mv.target
                replayed = objective_integer(graph, Membership(assign, k))
                assert mv.objective == pytest.approx(replayed, abs=1e-9)
                assert mv.objective > prev
                prev = mv.objective
            assert np.array_equal(out.assign, assign)

    def test_never_empties_a_supernode(self, rng):
        graph = random_graph(rng, 12, p=0.6)
        m = _mem([0] * 11 + [1], 2)  # supernode 1 is a singleton
        counts = supernode_edge_counts(graph, m)
        out, _ = reassignment(graph, m, counts,
                              ReassignConfig(rounds=2, seed=3))
        assert out.sizes.min() >= 1


class TestMoveDeltas:
    """The all-targets array form against the per-target oracle, bit for
    bit, off the staying-put entry."""

    def _check(self, graph, m):
        counts = supernode_edge_counts(graph, m)
        checked = 0
        for node in range(m.n):
            a = int(m.assign[node])
            if m.sizes[a] == 1:
                continue
            nbr = np.bincount(m.assign[graph.neighbors(node)], minlength=m.k)
            deltas = _move_deltas(counts, m.sizes, nbr, a)
            assert deltas[a] == -np.inf
            for b in range(m.k):
                if b != a:
                    assert np.array_equal(
                        deltas[b], move_delta(counts, m.sizes, nbr, a, b))
            checked += 1
        return checked

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 60))
            k = int(rng.integers(2, min(n - 1, 20) + 1))
            graph = random_graph(rng, n, p=float(rng.uniform(0.05, 0.6)))
            assert self._check(graph, random_membership(rng, n, k)) > 0

    def test_matches_oracle_with_tiny_groups(self, rng):
        # groups of one and two nodes, so moves out of (and into) the
        # smallest bands are covered
        for k in (2, 3, 6):
            graph = random_graph(rng, 14, p=0.4)
            labels = np.concatenate([np.arange(k), np.arange(k),
                                     np.zeros(14 - 2 * k, np.int64)])
            labels[k - 1] = 0  # group k-1 keeps a single node
            assert self._check(graph, _mem(labels, k)) > 0

    def test_matches_oracle_past_pairwise_block(self, rng):
        # numpy's pairwise summation splits sums of more than 128 terms, so
        # k = 131 checks that the row sums split the same way as 1-D sums
        k = 131
        counts = rng.integers(0, 400, size=(k, k))
        counts = counts + counts.T
        sizes = rng.integers(2, 60, size=k)
        for a in (0, 64, 130):
            nbr = rng.integers(0, 9, size=k)
            deltas = _move_deltas(counts, sizes, nbr, a)
            expected = [move_delta(counts, sizes, nbr, a, b) if b != a
                        else -np.inf for b in range(k)]
            assert np.array_equal(deltas, expected)


class TestPipeline:
    def test_two_triangles_recovers_planted(self, two_triangles):
        summary, report = specsumm(two_triangles, 2, seed=0)
        assert report.objective == pytest.approx(8.0)
        assert report.loss == pytest.approx(4.0)
        a = summary.membership.assign
        assert len(set(a[:3].tolist())) == 1
        assert len(set(a[3:].tolist())) == 1
        assert a[0] != a[3]

    def test_singleton_summary_is_lossless(self, rng):
        graph = random_graph(rng, 10)
        _, report = specsumm(graph, 10, seed=1)
        assert report.loss == pytest.approx(0.0, abs=1e-9)

    def test_separated_sbm_recovers_planted_objective(self):
        graph, planted = generate_sbm(4, 10, 0.9, 0.02, seed=3)
        target = objective_integer(graph, planted)
        _, report = specsumm(graph, 4, seed=0)
        assert report.objective >= 0.95 * target

    def test_report_fields(self, two_triangles):
        _, report = specsumm(two_triangles, 2, d=2,
                             reassign=ReassignConfig(rounds=1), seed=4)
        assert report.k == 2 and report.d == 2
        assert report.relax_method == "lm-eigvecs"
        assert set(report.seconds) == {"relax", "cluster", "reassign",
                                       "summary"}
        assert isinstance(report.reassign_moves, int)

    def test_ocsa_route_runs(self, two_triangles):
        summary, report = specsumm(two_triangles, 2, relax_method="ocsa-random",
                                   seed=2)
        assert report.relax_method == "ocsa-random"
        assert summary.membership.k == 2

    def test_parameter_validation(self, k3):
        with pytest.raises(ParameterError):
            specsumm(k3, 0)
        with pytest.raises(ParameterError):
            specsumm(k3, 4)
        with pytest.raises(ParameterError):
            specsumm(k3, 2, d=0)
        with pytest.raises(ParameterError):
            specsumm(k3, 2, relax_method="qr-walk")

    def test_master_seed_reproducibility(self, rng):
        graph = random_graph(rng, 40)
        a_sum, a_rep = specsumm(graph, 5, seed=11,
                                reassign=ReassignConfig(rounds=2))
        b_sum, b_rep = specsumm(graph, 5, seed=11,
                                reassign=ReassignConfig(rounds=2))
        assert np.array_equal(a_sum.membership.assign,
                              b_sum.membership.assign)
        assert a_rep.objective == b_rep.objective
