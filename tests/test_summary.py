import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsumm import (Graph, Membership, ParameterError, ReassignConfig,
                      Summary, adjacency_trace_sq, build_summary,
                      generate_sbm, l2_loss, objective_integer,
                      reassignment, specsumm, supernode_edge_counts,
                      trace_objective_relaxed)
from specsumm.rng import make_generator

import specsumm.summary as summary_module
from specsumm.summary import _move_deltas, _neighbor_counts, _reassign

from conftest import fresh_env
from oracles import (best_single_move, dense_l2_loss, edge_counts_dense,
                     membership_to_normalized, move_delta, objective_exact,
                     random_graph, random_membership, reassign_reference)


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

    def test_rejects_non_integer_labels(self):
        # Fractional labels would truncate and strings would parse.
        for labels in (np.array([0.5, 1.5]), ["0", "1"], [True, False]):
            with pytest.raises(ParameterError):
                Membership(labels, 2)

    def test_rejects_non_integer_k(self):
        for k in (2.5, 2.0, True):
            with pytest.raises(ParameterError):
                Membership(np.array([0, 1]), k)
        assert Membership(np.array([0, 1], np.uint8), np.int32(2)).k == 2

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

    @pytest.mark.parametrize("k_rule", ["one", "random", "all"])
    def test_entries_equal_dense_oracle(self, rng, k_rule):
        # Each graph is a random graph on its first nodes plus isolated
        # nodes after them, which the count must leave out.
        for _ in range(20):
            n, isolated = int(rng.integers(2, 30)), int(rng.integers(0, 6))
            pairs = random_graph(rng, n, p=rng.uniform(0.05, 0.9)).edge_pairs()
            graph = Graph.from_edges(n + isolated, pairs)
            total = n + isolated
            k = {"one": 1, "all": total,
                 "random": int(rng.integers(1, total + 1))}[k_rule]
            m = random_membership(rng, total, k)
            got = supernode_edge_counts(graph, m)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, edge_counts_dense(graph, m))


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

    def test_zero_densities_lose_every_edge(self):
        # Nothing reconstructed: the loss is the 2m ordered edge entries.
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        s = Summary(_mem([0, 0, 1, 1], 2), np.zeros((2, 2)))
        assert l2_loss(path, s) == 6.0
        assert dense_l2_loss(path, s) == 6.0

    def test_own_densities_against_dense_oracle(self, rng):
        # Densities moved off the counts, kept symmetric, within [0, 1] and
        # under the diagonal cap: the loss is that of these densities.
        for _ in range(300):
            n = int(rng.integers(2, 30))
            graph = random_graph(rng, n, p=rng.uniform(0.05, 0.9))
            m = random_membership(rng, n, int(rng.integers(1, n + 1)))
            density = build_summary(graph, m).density + rng.uniform(
                -0.5, 0.5, size=(m.k, m.k))
            density = np.clip((density + density.T) / 2, 0.0, 1.0)
            sizes = m.sizes.astype(np.float64)
            np.fill_diagonal(density, np.minimum(np.diag(density),
                                                 (sizes - 1) / sizes))
            s = Summary(m, density)
            want = dense_l2_loss(graph, s)
            assert l2_loss(graph, s) == pytest.approx(want, abs=1e-9)

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
        given = counts.copy()
        out, log = reassignment(two_triangles, m, counts,
                                ReassignConfig(rounds=1, seed=6))
        # The moves update a private copy of the counts.
        assert np.array_equal(counts, given)
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

    def test_rejects_counts_not_k_by_k_or_asymmetric(self, two_triangles):
        # Both keep the sum: a zero row and column padded on, and one edge
        # end moved across the diagonal.
        m = _mem([0, 0, 0, 0, 1, 1], 2)
        counts = supernode_edge_counts(two_triangles, m)
        padded = np.zeros((3, 3), dtype=np.int64)
        padded[:2, :2] = counts
        skewed = counts + np.array([[0, 1], [-1, 0]])
        for bad in (padded, skewed):
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
                assert mv.objective == replayed
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


def _rows_match_oracle(counts, sizes, nbr, a):
    """Row r of the window form, nbr[r] node r's neighbor counts and a[r]
    its group, is the form of that row alone, bit for bit; its source
    entry is -inf and every other target lies within the row's slack of
    ``move_delta``.  Returns the largest such gap."""
    k = len(sizes)
    deltas, slack = _move_deltas(counts, sizes, nbr, a)
    largest = 0.0
    for r in range(len(a)):
        alone, alone_slack = _move_deltas(counts, sizes, nbr[r:r + 1],
                                          a[r:r + 1])
        assert np.array_equal(alone[0], deltas[r]), r
        assert alone_slack[0] == slack[r], r
        source = int(a[r])
        assert deltas[r, source] == -np.inf
        for b in range(k):
            if b != source:
                gap = abs(deltas[r, b]
                          - move_delta(counts, sizes, nbr[r], source, b))
                assert gap <= slack[r], (r, b)
                largest = max(largest, gap)
    return largest


def _record_window_shapes(monkeypatch):
    """Log the (B, k) neighbor counts of every window ``_reassign`` hands
    to the delta form."""
    shapes = []
    evaluate = summary_module._move_deltas

    def recorded(counts, sizes, nbr, a):
        shapes.append(nbr.shape)
        return evaluate(counts, sizes, nbr, a)

    monkeypatch.setattr(summary_module, "_move_deltas", recorded)
    return shapes


# Prints the bits of _move_deltas on a full window of random counts at
# k = 40, and those of each of its rows alone, as JSON.
_WINDOW_AND_ROWS = """
import json
import numpy as np
from specsumm.summary import _WINDOW_NODES, _move_deltas
rng = np.random.default_rng(40)
k = 40
sizes = rng.integers(2, 50, size=k)
counts = rng.integers(0, 1000, size=(k, k))
counts = counts + counts.T
a = rng.integers(0, k, size=_WINDOW_NODES)
nbr = rng.integers(0, 50, size=(_WINDOW_NODES, k))


def bits(rows):
    deltas, slack = _move_deltas(counts, sizes, nbr[rows], a[rows])
    return [[x.hex() for x in row] + [s.hex()]
            for row, s in zip(deltas, slack)]


print(json.dumps([bits(slice(None)),
                  [bits(slice(r, r + 1))[0] for r in range(_WINDOW_NODES)]]))
"""


class TestMoveDeltas:
    """``_move_deltas``, the one delta form of reassignment, on a window's
    neighbor counts: each row is that of its node alone, bit for bit, and
    within its slack of ``move_delta``, the per-target reference."""

    def _check_graph(self, rng, graph, m):
        counts = supernode_edge_counts(graph, m)
        movable = np.flatnonzero(m.sizes[m.assign] > 1)
        for _ in range(3):
            nodes = rng.permutation(movable)[:int(rng.integers(1, 70))]
            nbr = _neighbor_counts(graph, m.assign, nodes, m.k)
            for r, node in enumerate(nodes):
                assert np.array_equal(nbr[r], np.bincount(
                    m.assign[graph.neighbors(node)], minlength=m.k))
            _rows_match_oracle(counts, m.sizes, nbr, m.assign[nodes])

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 90))
            k = int(rng.integers(2, min(n - 1, 20) + 1))
            graph = random_graph(rng, n, p=float(rng.uniform(0.05, 0.6)))
            self._check_graph(rng, graph, random_membership(rng, n, k))

    def test_matches_oracle_with_tiny_groups(self, rng):
        # Groups 1..k-1 hold one node each: every window moves nodes of
        # group 0 next to, and into, singleton groups.
        for k in (2, 5, 12):
            graph = random_graph(rng, 40, p=0.3)
            labels = np.zeros(40, dtype=np.int64)
            labels[rng.choice(40, size=k - 1, replace=False)] = np.arange(1, k)
            self._check_graph(rng, graph, _mem(labels, k))

    def test_rows_sharing_one_source_group(self, rng):
        graph = random_graph(rng, 60, p=0.2)
        m = random_membership(rng, 60, 6)
        counts = supernode_edge_counts(graph, m)
        nodes = np.flatnonzero(m.assign == 2)
        nbr = _neighbor_counts(graph, m.assign, nodes, 6)
        _rows_match_oracle(counts, m.sizes, nbr, m.assign[nodes])

    @pytest.mark.parametrize("high", [2 ** 8, 2 ** 24, 2 ** 40],
                             ids=["2^8", "2^24", "2^40"])
    @pytest.mark.parametrize("sizes", ["two", "random"])
    def test_slack_bounds_the_gap_past_pairwise_block(self, rng, sizes,
                                                      high):
        # numpy's pairwise summation splits sums of more than 128 terms, so
        # k = 131 checks that each row's band sums split alike whatever
        # the window holds.  Groups of two leave sizes down to 1 after the
        # move, and counts up to 2⁴⁰ have squares that round; neighbor
        # counts are drawn independently of them.
        k = 131
        sizes = (np.full(k, 2) if sizes == "two"
                 else rng.integers(2, 50, size=k))
        counts = rng.integers(0, high, size=(k, k))
        counts = counts + counts.T
        a = np.concatenate([[0, 64, 130, 64], rng.integers(0, k, size=36)])
        nbr = rng.integers(0, high, size=(len(a), k))
        # The two forms round differently, so a zero slack would fail.
        assert _rows_match_oracle(counts, sizes, nbr, a) > 0.0

    def test_rows_do_not_depend_on_blas_threads(self):
        # Each window row is its row alone, bit for bit, at either BLAS
        # thread count: a BLAS product in the form (say, a GEMM in place of
        # the einsum) rounds a 64-row window unlike one row at k = 40.
        runs = [subprocess.run([sys.executable, "-c", _WINDOW_AND_ROWS],
                               env=fresh_env(OPENBLAS_NUM_THREADS=threads),
                               check=True, capture_output=True, text=True,
                               timeout=60).stdout
                for threads in ("1", "2")]
        window, alone = json.loads(runs[0])
        assert len(window) == summary_module._WINDOW_NODES
        assert window == alone
        assert runs[0] == runs[1]

    def test_empty_window(self, rng, monkeypatch):
        deltas, slack = _move_deltas(
            np.array([[2, 1], [1, 0]]), np.array([2, 1]),
            np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert deltas.shape == (0, 2)
        assert slack.shape == (0,)
        # Every node alone in its group: each window has no live node, so
        # the form only ever sees (0, k) neighbor counts.
        graph = random_graph(rng, 8)
        m = _mem(np.arange(8), 8)
        assert _neighbor_counts(graph, m.assign, np.zeros(0, dtype=np.int64),
                                8).shape == (0, 8)
        shapes = _record_window_shapes(monkeypatch)
        out, moves, _ = _reassign(graph, m, supernode_edge_counts(graph, m),
                                  ReassignConfig(rounds=2, seed=1))
        assert moves == []
        assert np.array_equal(out.assign, m.assign)
        assert shapes and set(shapes) == {(0, 8)}


def _move_bits(moves):
    return [(mv.node, mv.source, mv.target, mv.objective.hex())
            for mv in moves]


class TestReassignWindows:
    """``_reassign`` evaluates sampled nodes in windows and resumes after
    each accepted move; its move log, membership and counts are those of
    the one-node-at-a-time reference, bit for bit."""

    @staticmethod
    def _compare(graph, m, config):
        counts = supernode_edge_counts(graph, m)
        out, moves, got_counts = _reassign(graph, m, counts, config)
        assign, want_moves, want_counts, sizes = reassign_reference(
            graph, m, counts, config)
        assert _move_bits(moves) == _move_bits(want_moves)
        assert np.array_equal(out.assign, assign)
        assert np.array_equal(out.sizes, sizes)
        assert np.array_equal(got_counts, want_counts)
        return want_moves

    @pytest.mark.parametrize("window", [1, 2, 7, 64])
    def test_matches_reference_on_random_graphs(self, rng, monkeypatch,
                                                window):
        monkeypatch.setattr(summary_module, "_WINDOW_NODES", window)
        moved = 0
        for _ in range(12):
            n = int(rng.integers(5, 90))
            k = int(rng.integers(1, min(n, 12) + 1))
            graph = random_graph(rng, n, p=float(rng.uniform(0.05, 0.6)))
            config = ReassignConfig(
                rounds=3, samples_per_round=int(rng.integers(1, 100)),
                seed=int(rng.integers(2**31)))
            moved += len(self._compare(graph, random_membership(rng, n, k),
                                       config))
        assert moved > 0

    def test_singleton_groups_in_windows(self, rng):
        # Two large groups and k - 2 singletons: nodes skipped as the only
        # members of their groups sit between the ones evaluated, so a
        # resume point off by the skipped count re-evaluates nodes against
        # counts the reference never showed them.
        moved = 0
        for _ in range(60):
            n = int(rng.integers(20, 60))
            k = int(rng.integers(3, 12))
            graph = random_graph(rng, n, p=float(rng.uniform(0.1, 0.5)))
            labels = rng.integers(0, 2, size=n)
            labels[rng.choice(n, size=k - 2, replace=False)] = np.arange(2, k)
            moved += len(self._compare(
                graph, _mem(labels, k),
                ReassignConfig(rounds=2, samples_per_round=n,
                               seed=int(rng.integers(2**31)))))
        assert moved > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_on_sbm(self, seed):
        # 40 groups of 100 with a tenth of the nodes relabeled at random:
        # hundreds of moves over 4 x 500 samples
        graph, planted = generate_sbm(40, 100, 0.3, 0.01, seed)
        local = np.random.default_rng(seed)
        labels = planted.assign.copy()
        scrambled = local.choice(graph.node_count, size=400, replace=False)
        labels[scrambled] = local.integers(0, 40, size=400)
        moves = self._compare(graph, _mem(labels, 40),
                              ReassignConfig(rounds=4, samples_per_round=500,
                                             seed=seed))
        assert len(moves) > 100

    def test_moves_at_consecutive_positions_and_window_end(self):
        # Sample positions 5 and 6 hold misplaced nodes, and so does the
        # last slot of the window that starts after them.
        window = summary_module._WINDOW_NODES
        positions = [5, 6, 7 + window - 1]
        graph, planted = generate_sbm(4, 30, 0.9, 0.02, seed=0)
        config = ReassignConfig(rounds=1, samples_per_round=120, seed=11)
        sampled = make_generator(config.seed).choice(
            graph.node_count, size=config.samples_per_round, replace=False)
        labels = planted.assign.copy()
        labels[sampled[positions]] = (labels[sampled[positions]] + 1) % 4
        moves = self._compare(graph, _mem(labels, 4), config)
        at = [int(np.flatnonzero(sampled == mv.node)[0]) for mv in moves]
        assert at == positions

    def test_window_size_bounds_the_temporaries(self, monkeypatch):
        # The form sees windows of up to _WINDOW_NODES nodes, each row with
        # all k targets; at k = 600 the (64, k) temporaries are smaller
        # than the (k, k) counts.  Swapping the labels of node pairs keeps
        # every group of two inhabited and gives the windows moves.
        shapes = _record_window_shapes(monkeypatch)
        for k in (40, 100, 600):
            graph, planted = generate_sbm(k, 2, 0.9, 0.01, seed=k)
            swapped = np.random.default_rng(k).choice(
                graph.node_count, size=(2, k // 4), replace=False)
            labels = planted.assign.copy()
            labels[swapped[0]], labels[swapped[1]] = (labels[swapped[1]],
                                                      labels[swapped[0]])
            shapes.clear()
            moves = self._compare(graph, _mem(labels, k),
                                  ReassignConfig(rounds=1,
                                                 samples_per_round=70,
                                                 seed=1))
            assert len(moves) > 0
            assert max(rows for rows, _ in shapes) == 64
            assert {cols for _, cols in shapes} == {k}


def _exact_gains(graph, m, config):
    """The exact rational change in F of each move reassignment logs."""
    _, log = reassignment(graph, m, supernode_edge_counts(graph, m), config)
    assign = m.assign.copy()
    before = objective_exact(graph, m)
    gains = []
    for mv in log:
        assign[mv.node] = mv.target
        after = objective_exact(graph, Membership(assign, m.k))
        gains.append(after - before)
        before = after
    return gains


def _disjoint_copies(shape, size, copies):
    """``copies`` disjoint copies of an edge, clique, cycle or star."""
    one = {"edge": [(0, 1)],
           "clique": [(u, v) for u in range(size) for v in range(u + 1, size)],
           "cycle": [(u, (u + 1) % size) for u in range(size)],
           "star": [(0, v) for v in range(1, size)]}[shape]
    size = 2 if shape == "edge" else size
    return Graph.from_edges(size * copies, [(u + c * size, v + c * size)
                                            for c in range(copies)
                                            for u, v in one])


class TestExactGain:
    """Every logged move raises F in exact rational arithmetic: the
    "strictly increase" contract of ``reassignment``, on graphs whose
    symmetry makes many moves change F by exactly zero."""

    @staticmethod
    def _sweeps(rng, graph):
        # Three sweeps of n samples from random or round-robin labels.
        n = graph.node_count
        k = int(rng.integers(2, min(n, 9) + 1))
        if rng.random() < 0.5:
            m = random_membership(rng, n, k)
        else:
            m = _mem(np.arange(n) % k, k)
        return _exact_gains(graph, m, ReassignConfig(
            rounds=3, samples_per_round=n, seed=int(rng.integers(2**31))))

    @pytest.mark.parametrize("shape", ["edge", "clique", "cycle", "star"])
    def test_symmetric_graphs(self, rng, shape):
        gains = []
        for _ in range(60):
            size = int(rng.integers(3, 6))
            graph = _disjoint_copies(shape, size, int(rng.integers(2, 10)))
            gains += self._sweeps(rng, graph)
        assert gains and min(gains) > 0

    def test_random_graphs(self, rng):
        gains = []
        for _ in range(60):
            n = int(rng.integers(3, 41))
            gains += self._sweeps(rng, random_graph(
                rng, n, p=float(rng.uniform(0.05, 0.9))))
        assert gains and min(gains) > 0

    def test_exact_zero_ties_do_not_move(self):
        # Eight disjoint edges, each split between group 0 and group 1 or
        # 2: moving a node of groups 1 and 2 changes F by exactly zero, a
        # move the strict rule rejects, and every other move lowers F.
        graph = _disjoint_copies("edge", 2, 8)
        labels = np.zeros(16, dtype=np.int64)
        labels[1::2] = 1 + np.arange(8) % 2
        m = _mem(labels, 3)
        counts = supernode_edge_counts(graph, m)
        nodes = np.arange(16)
        nbr = _neighbor_counts(graph, m.assign, nodes, 3)
        best = np.array([max(move_delta(counts, m.sizes, nbr[r], a, b)
                             for b in range(3) if b != a)
                         for r, a in enumerate(m.assign.tolist())])
        assert (best == 0.0).sum() == 8 and best.max() == 0.0
        deltas, slack = _move_deltas(counts, m.sizes, nbr, m.assign)
        assert np.all(deltas.max(axis=1) <= slack)
        moves = TestReassignWindows._compare(
            graph, m, ReassignConfig(rounds=2, samples_per_round=16, seed=3))
        assert moves == []


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

    @pytest.mark.parametrize("rounds", [None, 3])
    def test_edges_counted_once(self, monkeypatch, rounds):
        graph, _ = generate_sbm(6, 25, 0.3, 0.15, seed=8)
        calls = []
        counter = summary_module.supernode_edge_counts

        def counted(g, membership):
            calls.append(membership.k)
            return counter(g, membership)

        monkeypatch.setattr(summary_module, "supernode_edge_counts", counted)
        reassign = None if rounds is None else ReassignConfig(
            rounds=rounds, samples_per_round=60)
        summary, report = specsumm(graph, 6, reassign=reassign, seed=3)
        monkeypatch.undo()
        assert calls == [6]
        if rounds is not None:
            assert report.reassign_moves > 0
        rebuilt = build_summary(graph, summary.membership)
        assert np.array_equal(summary.density, rebuilt.density)
        assert report.objective == objective_integer(graph,
                                                     summary.membership)

    @pytest.mark.parametrize("method", ["lm-eigvecs", "ocsa-random"])
    def test_no_config_is_zero_rounds(self, method):
        graph, _ = generate_sbm(5, 20, 0.3, 0.05, seed=4)
        for seed in (1, 2):
            runs = [specsumm(graph, 5, relax_method=method, reassign=reassign,
                             seed=seed)
                    for reassign in (None, ReassignConfig(
                        rounds=0, samples_per_round=7))]
            (a_sum, a_rep), (b_sum, b_rep) = runs
            assert (a_sum.membership.assign.tobytes()
                    == b_sum.membership.assign.tobytes())
            assert a_sum.density.tobytes() == b_sum.density.tobytes()
            assert (a_rep.objective, a_rep.loss) == (b_rep.objective,
                                                     b_rep.loss)
            assert a_rep.reassign_moves == b_rep.reassign_moves == 0

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


_PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("call, match", [
    (lambda: _mem([0, 0], 0), "k must be >= 1"),
    (lambda: Summary(_mem([0, 1], 2), np.zeros((1, 1))),
     "density must be 2x2"),
    (lambda: supernode_edge_counts(_PATH3, _mem([0, 1], 2)),
     "membership length must match graph order"),
    (lambda: reassignment(_PATH3, _mem([0, 1], 2), np.zeros((2, 2))),
     "membership length must match graph order"),
], ids=["membership-k-zero", "density-shape", "edge-counts-length",
        "reassignment-length"])
def test_rejects_malformed_input(call, match):
    with pytest.raises(ParameterError, match=match):
        call()
