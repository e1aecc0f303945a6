import networkx as nx
import numpy as np
import pytest

from specsumm import (Graph, Membership, ParameterError, build_summary,
                      exact_triangles, expected_triangles, queries)
from specsumm.queries import _pair_matrix

from conftest import complete_graph
from oracles import (random_graph, random_membership, to_networkx,
                     triangle_count_dense, triangle_triple_loop,
                     triangles_triple_sum_oracle)


def _summary(graph, labels, k):
    return build_summary(graph, Membership(np.array(labels), k))


class TestPairProbability:
    """Group-level edge probabilities of the summary's model, which the
    triangle estimate multiplies."""

    def test_k3_within_pair_group(self, k3):
        s = _summary(k3, [0, 0, 1], 2)
        # density 0.5 times the diagonal correction 2/1
        assert _pair_matrix(s)[0, 0] == pytest.approx(1.0)

    def test_k3_across_groups(self, k3):
        s = _summary(k3, [0, 0, 1], 2)
        assert _pair_matrix(s)[0, 1] == pytest.approx(1.0)
        assert _pair_matrix(s)[1, 0] == pytest.approx(1.0)

    def test_k4_single_supernode(self, k4):
        s = _summary(k4, [0, 0, 0, 0], 1)
        np.testing.assert_allclose(_pair_matrix(s), [[1.0]])

    def test_singleton_diagonal_is_vacuous(self, p3):
        s = _summary(p3, [0, 1, 2], 3)
        # singleton groups host no pair: zero diagonal, and the
        # off-diagonal densities are taken as they are
        np.testing.assert_array_equal(
            _pair_matrix(s), [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                              [0.0, 1.0, 0.0]])

    def test_never_leaves_unit_interval(self, rng):
        graph = random_graph(rng, 15, p=0.7)
        for _ in range(20):
            s = build_summary(graph, random_membership(rng, 15, 4))
            pi = _pair_matrix(s)
            assert np.all((0.0 <= pi) & (pi <= 1.0))


class TestExpectedTriangles:
    def test_k3_single_supernode(self, k3):
        est = expected_triangles(_summary(k3, [0, 0, 0], 1))
        assert est.expected == pytest.approx(1.0, abs=1e-12)

    def test_k4_single_supernode(self, k4):
        est = expected_triangles(_summary(k4, [0] * 4, 1))
        assert est.expected == pytest.approx(4.0, abs=1e-12)

    def test_k3_split_membership(self, k3):
        est = expected_triangles(_summary(k3, [0, 0, 1], 2))
        assert est.expected == pytest.approx(1.0, abs=1e-12)

    def test_complete_graphs_are_exact(self):
        for n in range(3, 9):
            graph = complete_graph(n)
            est = expected_triangles(_summary(graph, [0] * n, 1))
            exact = exact_triangles(graph)
            assert exact == n * (n - 1) * (n - 2) // 6
            assert est.expected == pytest.approx(exact, abs=1e-9)

    def test_matches_triple_sum_oracle(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(n, 5) + 1))
            graph = random_graph(rng, n, p=float(rng.uniform(0.1, 0.9)))
            s = build_summary(graph, random_membership(rng, n, k))
            closed = expected_triangles(s).expected
            oracle = triangles_triple_sum_oracle(s)
            assert closed == pytest.approx(oracle,
                                           abs=1e-9 * max(1.0, oracle))
            # second, slower oracle: pure-python loop over triples
            assert closed == pytest.approx(triangle_triple_loop(s),
                                           abs=1e-9 * max(1.0, closed))

    def test_matches_exact_rational_sum(self):
        rng = np.random.default_rng(909)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(n, 6) + 1))
            graph = random_graph(rng, n, p=float(rng.uniform(0.1, 0.9)))
            s = build_summary(graph, random_membership(rng, n, k))
            exact = triangle_triple_loop(s)
            assert expected_triangles(s).expected == pytest.approx(
                exact, rel=0, abs=1e-14 * max(1.0, exact))

    def test_invariant_to_label_permutation(self, rng):
        graph = random_graph(rng, 14)
        m = random_membership(rng, 14, 4)
        perm = np.array([2, 0, 3, 1])
        permuted = Membership(perm[m.assign], 4)
        a = expected_triangles(build_summary(graph, m)).expected
        b = expected_triangles(build_summary(graph, permuted)).expected
        assert a == pytest.approx(b, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(30):
            graph = random_graph(rng, 10, p=0.15)
            s = build_summary(graph, random_membership(rng, 10, 3))
            assert expected_triangles(s).expected >= 0.0


class TestTripleSumOracle:
    def test_k3_single_supernode(self, k3):
        assert triangles_triple_sum_oracle(
            _summary(k3, [0, 0, 0], 1)) == pytest.approx(1.0)

    def test_k4_single_supernode(self, k4):
        assert triangles_triple_sum_oracle(
            _summary(k4, [0] * 4, 1)) == pytest.approx(4.0)

    def test_edgeless_summary(self):
        graph = Graph.from_edges(5, [])
        s = _summary(graph, [0, 0, 1, 1, 1], 2)
        assert triangles_triple_sum_oracle(s) == 0.0

    def test_refuses_large_n(self):
        n = 1501
        graph = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        s = _summary(graph, [0] * (n - 1) + [1], 2)
        with pytest.raises(ParameterError, match="1500"):
            triangles_triple_sum_oracle(s)


class TestExactTriangles:
    def test_small_examples(self, k3, k4, p3):
        assert exact_triangles(k3) == 1
        assert exact_triangles(k4) == 4
        assert exact_triangles(p3) == 0

    def test_matches_dense_trace(self, rng):
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(3, 40)),
                                 p=float(rng.uniform(0.1, 0.8)))
            assert exact_triangles(graph) == triangle_count_dense(graph)

    def test_matches_networkx(self, rng):
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(3, 200)),
                                 p=float(rng.uniform(0.005, 0.3)))
            count = exact_triangles(graph)
            assert type(count) is int
            assert count == sum(nx.triangles(to_networkx(graph)).values()) // 3

    @pytest.mark.parametrize("block", [1, 7, 60])
    def test_row_blocks_match_networkx(self, rng, monkeypatch, block):
        # a small block bound splits the product into many row blocks (at
        # 1, every row with a two-path exceeds it and stands alone)
        monkeypatch.setattr(queries, "_TWO_PATH_BLOCK", block)
        for _ in range(10):
            graph = random_graph(rng, int(rng.integers(3, 120)),
                                 p=float(rng.uniform(0.02, 0.5)))
            expected = sum(nx.triangles(to_networkx(graph)).values()) // 3
            assert exact_triangles(graph) == expected
