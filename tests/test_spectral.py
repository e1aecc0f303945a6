import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from specsumm import (ConvergenceError, Graph, ParameterError,
                      adjacency_trace_sq, generate_sbm, lm_eigs,
                      trace_objective_relaxed)

from conftest import complete_graph
from oracles import dense_eig_oracle, random_graph

SQRT2 = np.sqrt(2.0)


class TestDenseOracle:
    def test_k3_spectrum(self, k3):
        basis = dense_eig_oracle(k3)
        np.testing.assert_allclose(basis.values, [2.0, -1.0, -1.0], atol=1e-12)

    def test_p3_spectrum(self, p3):
        basis = dense_eig_oracle(p3)
        np.testing.assert_allclose(basis.values, [SQRT2, -SQRT2, 0.0],
                                   atol=1e-12)

    def test_k4_spectrum(self, k4):
        basis = dense_eig_oracle(k4)
        np.testing.assert_allclose(basis.values, [3.0, -1.0, -1.0, -1.0],
                                   atol=1e-12)

    def test_refuses_large_graphs(self):
        big = Graph.from_edges(513, [(i, i + 1) for i in range(512)])
        with pytest.raises(ParameterError, match="512"):
            dense_eig_oracle(big)

    def test_sum_rule(self, rng):
        graph = random_graph(rng, 40)
        basis = dense_eig_oracle(graph)
        np.testing.assert_allclose(np.sum(basis.values**2),
                                   adjacency_trace_sq(graph), atol=1e-9)


class TestLmEigs:
    def test_k3_top_pair(self, k3):
        basis = lm_eigs(k3, 1)
        np.testing.assert_allclose(basis.values, [2.0], atol=1e-8)
        np.testing.assert_allclose(basis.vectors[:, 0],
                                   np.ones(3) / np.sqrt(3), atol=1e-8)

    def test_p3_both_extremes(self, p3):
        basis = lm_eigs(p3, 2)
        np.testing.assert_allclose(basis.values, [SQRT2, -SQRT2], atol=1e-8)

    def test_disconnected_tied_values(self, two_triangles):
        basis = lm_eigs(two_triangles, 2)
        np.testing.assert_allclose(basis.values, [2.0, 2.0], atol=1e-8)

    def test_d_out_of_range(self, k3):
        with pytest.raises(ParameterError):
            lm_eigs(k3, 0)
        with pytest.raises(ParameterError):
            lm_eigs(k3, 4)

    def test_d_near_n_uses_dense_route(self, rng):
        graph = random_graph(rng, 12)
        full = dense_eig_oracle(graph)
        for d in (11, 12):
            basis = lm_eigs(graph, d)
            np.testing.assert_allclose(basis.values, full.values[:d],
                                       atol=1e-9)

    def test_deterministic_for_fixed_seed(self, rng):
        graph = random_graph(rng, 50)
        a = lm_eigs(graph, 4, seed=7)
        b = lm_eigs(graph, 4, seed=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_invariants_on_random_graphs(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 64))
            graph = random_graph(rng, n)
            d = int(rng.integers(1, n + 1))
            basis = lm_eigs(graph, d, seed=0)

            res = basis.residual_norms(graph)
            assert np.all(res <= 1e-8 * np.maximum(1.0, np.abs(basis.values)))
            gram = basis.vectors.T @ basis.vectors
            assert np.abs(gram - np.eye(d)).max() <= 1e-8
            for j in range(d):
                lead = np.flatnonzero(np.abs(basis.vectors[:, j]) > 1e-10)
                assert basis.vectors[lead[0], j] > 0

            oracle = dense_eig_oracle(graph)
            np.testing.assert_allclose(basis.values, oracle.values[:d],
                                       atol=1e-6)

    def test_top_d_objective_equals_eigenvalue_energy(self, rng):
        for _ in range(8):
            graph = random_graph(rng, int(rng.integers(6, 48)))
            d = int(rng.integers(1, 7))
            basis = lm_eigs(graph, d, seed=1)
            f = trace_objective_relaxed(graph, basis.vectors)
            np.testing.assert_allclose(f, np.sum(basis.values**2), atol=1e-8)


def _disjoint_cliques(count: int, size: int) -> list[tuple[int, int]]:
    return [(base + u, base + v) for base in range(0, count * size, size)
            for u in range(size) for v in range(u + 1, size)]


class TestLanczosBasis:
    """The Lanczos basis is sized to d: it must keep every copy of a
    repeated eigenvalue, and stay between d + 1 and n vectors."""

    @pytest.mark.parametrize("count, size, d, extra", [
        (50, 20, 40, 0), (50, 20, 40, 300), (30, 12, 25, 0)])
    def test_repeated_top_eigenvalues_match_dense(self, rng, count, size, d,
                                                  extra):
        n = count * size
        edges = _disjoint_cliques(count, size)
        pairs = rng.integers(0, n, size=(extra, 2))
        edges += [(int(u), int(v)) for u, v in pairs if u != v]
        graph = Graph.from_edges(n, edges)
        dense = np.sort(np.abs(np.linalg.eigvalsh(graph.to_dense())))[::-1]
        basis = lm_eigs(graph, d, seed=0)
        np.testing.assert_allclose(np.abs(basis.values), dense[:d], rtol=0,
                                   atol=1e-10)

    @pytest.mark.parametrize("n, d", [
        (200, 1), (200, 6), (200, 7), (200, 19), (200, 20), (200, 40),
        (30, 28)])
    def test_basis_size(self, monkeypatch, n, d):
        graph, _ = generate_sbm(n // 10, 10, 0.5, 0.05, seed=3)
        assert graph.node_count == n
        real = scipy.sparse.linalg.eigsh
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs["ncv"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
        basis = lm_eigs(graph, d, seed=1)
        [ncv] = seen
        assert d < ncv <= n
        assert ncv <= max(4 * d, d + 20)
        if d == n - 2:
            assert ncv == n
        res = basis.residual_norms(graph)
        assert np.all(res <= 1e-8 * np.maximum(1.0, np.abs(basis.values)))


class TestLmEigsNoConvergence:
    """ARPACK stalls: lm_eigs raises at every order, small graphs included,
    instead of switching to another solver."""

    @pytest.fixture
    def graphs(self):
        small, _ = generate_sbm(3, 30, 0.2, 0.05, seed=0)
        big, _ = generate_sbm(3, 200, 0.05, 0.01, seed=0)
        assert small.node_count <= 512 < big.node_count
        return small, big

    def _stall(self, monkeypatch, values, vectors):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK stalled", values, vectors)
        # lm_eigs imports eigsh from scipy.sparse.linalg when it runs.
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)

    def test_reports_residuals_of_partial_pairs(self, graphs, monkeypatch,
                                                rng):
        for graph in graphs:
            vectors = np.linalg.qr(
                rng.standard_normal((graph.node_count, 2)))[0]
            values = np.array([5.0, -3.0])
            self._stall(monkeypatch, values, vectors)
            with pytest.raises(ConvergenceError) as info:
                lm_eigs(graph, 4, seed=0)
            expected = np.linalg.norm(
                graph.to_dense() @ vectors - vectors * values, axis=0)
            np.testing.assert_allclose(info.value.residuals, expected,
                                       rtol=1e-12)

    def test_no_partial_pairs_reports_none(self, graphs, monkeypatch):
        for graph in graphs:
            self._stall(monkeypatch, np.empty(0),
                        np.empty((graph.node_count, 0)))
            with pytest.raises(ConvergenceError) as info:
                lm_eigs(graph, 4, seed=0)
            assert info.value.residuals is None

    def test_tolerance_miss_reports_residuals(self, graphs, monkeypatch, rng):
        for graph in graphs:
            vectors = np.linalg.qr(
                rng.standard_normal((graph.node_count, 4)))[0]
            values = np.array([4.0, 3.0, 2.0, 1.0])
            monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                                lambda *args, **kwargs: (values, vectors))
            with pytest.raises(ConvergenceError,
                               match="failed residual check") as info:
                lm_eigs(graph, 4, seed=0)
            expected = np.linalg.norm(
                graph.to_dense() @ vectors - vectors * values, axis=0)
            np.testing.assert_allclose(info.value.residuals, expected,
                                       rtol=1e-12)

    def test_orthonormality_miss_names_the_defect(self, monkeypatch):
        # Exact eigenpairs of K8, one of them repeated: every residual is
        # at rounding level, so only the orthonormality check can fail.
        graph = complete_graph(8)
        ones = np.full(8, 8 ** -0.5)
        u1 = np.array([1, -1, 0, 0, 0, 0, 0, 0]) / 2 ** 0.5
        u2 = np.array([1, 1, -2, 0, 0, 0, 0, 0]) / 6 ** 0.5
        vectors = np.column_stack([ones, u1, u1, u2])
        values = np.array([7.0, -1.0, -1.0, -1.0])
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *args, **kwargs: (values, vectors))
        with pytest.raises(ConvergenceError,
                           match="orthonormality check: defect 1") as info:
            lm_eigs(graph, 4, seed=0)
        assert np.all(info.value.residuals <= 1e-14)


def test_complete_graph_ordering_tie_rule():
    # |λ| ties between n−1 and −1 never arise for K_n with n ≥ 3, but the
    # ordering must still put the positive extreme first on P3-like spectra
    # and keep repeated eigenvalues adjacent.
    basis = dense_eig_oracle(complete_graph(5))
    np.testing.assert_allclose(basis.values, [4, -1, -1, -1, -1], atol=1e-12)


def test_sparse_scale_rejects_d_near_n():
    # Past the dense route's order, d > n − 2 is refused before any solve.
    from specsumm.spectral import _DENSE_ROUTE_LIMIT
    n = _DENSE_ROUTE_LIMIT + 1
    graph = Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])
    with pytest.raises(ParameterError, match="too close to n"):
        lm_eigs(graph, n - 1, seed=0)
