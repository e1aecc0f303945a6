import io

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsumm import (Graph, ParameterError, ParseError, adjacency_trace_sq,
                      generate_sbm, graph as graph_module,
                      largest_connected_component, load_edge_list,
                      write_edge_list)

from oracles import generate_sbm_reference, random_graph, to_networkx


class TestLoadEdgeList:
    def test_path_graph(self):
        graph, _ = load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert graph.node_count == 3
        assert graph.edge_count == 2
        assert 1 in graph.neighbors(0) and 2 in graph.neighbors(1)
        assert 2 not in graph.neighbors(0)

    def test_duplicate_and_self_loop_dropped(self):
        graph, _ = load_edge_list(io.StringIO("0 1\n1 0\n0 0\n"))
        assert graph.node_count == 2
        assert graph.edge_count == 1

    def test_dense_relabeling(self):
        graph, original = load_edge_list(io.StringIO("5 9\n9 7\n"))
        assert graph.node_count == 3
        assert graph.edge_count == 2
        assert original.dtype == np.int64
        assert original.tolist() == [5, 7, 9]
        # 5-9 and 9-7 become 0-2 and 2-1
        assert 2 in graph.neighbors(0) and 2 in graph.neighbors(1)
        assert 1 not in graph.neighbors(0)

    def test_comments_blanks_and_crlf(self):
        text = "# header\r\n% matrix-market style\r\n\r\n0 1\r\n1 2\r\n"
        graph, _ = load_edge_list(io.StringIO(text))
        assert (graph.node_count, graph.edge_count) == (3, 2)

    def test_reads_from_path(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        graph, _ = load_edge_list(p)
        assert graph.edge_count == 1
        graph2, _ = load_edge_list(str(p))
        assert graph2.edge_count == 1

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(io.StringIO("0 1\n1 x\n"))

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_edge_list(io.StringIO("0 1\n1 2\n1 2 3\n"))

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError, match="non-negative"):
            load_edge_list(io.StringIO("0 -1\n"))

    def test_empty_graph_rejected(self):
        with pytest.raises(ParseError, match="empty graph"):
            load_edge_list(io.StringIO("# nothing\n"))

    def test_id_beyond_int64_reports_line(self):
        largest = 2**63 - 1
        _, original = load_edge_list(io.StringIO(f"0 {largest}\n"))
        assert original.tolist() == [0, largest]
        with pytest.raises(ParseError, match="line 2.*exceeds"):
            load_edge_list(io.StringIO(f"0 1\n1 {largest + 1}\n"))

    def test_non_utf8_bytes_report_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"0 1\n1 2\n2 \xff3\n")
        with pytest.raises(ParseError, match="line 3.*UTF-8"):
            load_edge_list(p)
        with pytest.raises(ParseError, match="UTF-8"):
            load_edge_list(io.BytesIO(b"\xc3(0 1\n"))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=20), st.integers(0, 2**31))
    def test_round_trip(self, n, seed):
        graph = random_graph(np.random.default_rng(seed), n)
        buf = io.StringIO()
        write_edge_list(graph, buf)
        reloaded, back = load_edge_list(io.StringIO(buf.getvalue()))
        # isolated nodes vanish on reload; surviving edges are identical
        assert reloaded.edge_count == graph.edge_count
        pairs = {tuple(e) for e in graph.edge_pairs().tolist()}
        for u, v in reloaded.edge_pairs().tolist():
            assert (back[u], back[v]) in pairs or (back[v], back[u]) in pairs


class TestGraphStructure:
    def test_from_edges_validation(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(0, [])
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(1, 1)])

    def test_neighbor_lists_sorted_and_symmetric(self, rng):
        graph = random_graph(rng, 24)
        half_sum = 0
        for u in range(graph.node_count):
            nbrs = graph.neighbors(u)
            assert np.all(np.diff(nbrs) > 0)
            half_sum += len(nbrs)
            for v in nbrs:
                assert u in graph.neighbors(v)
        assert half_sum == 2 * graph.edge_count

    def test_degrees_and_edge_pairs(self, k3, p3):
        assert k3.degrees.tolist() == [2, 2, 2]
        assert p3.degrees.tolist() == [1, 2, 1]
        assert p3.edge_pairs().tolist() == [[0, 1], [1, 2]]

    def test_dense_matches_structure(self, rng):
        graph = random_graph(rng, 16)
        dense = graph.to_dense()
        assert np.array_equal(dense, dense.T)
        assert dense.trace() == 0
        assert dense.sum() == 2 * graph.edge_count


def _shuffled_union(rng, parts):
    """Disjoint union of graphs with node ids randomly permuted."""
    n = sum(part.node_count for part in parts)
    perm = rng.permutation(n)
    edges, offset = [], 0
    for part in parts:
        edges.extend((perm[u + offset], perm[v + offset])
                     for u, v in part.edge_pairs())
        offset += part.node_count
    return Graph.from_edges(n, edges)


class TestLcc:
    def test_extracts_larger_component(self):
        graph = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        sub, kept = largest_connected_component(graph)
        assert (sub.node_count, sub.edge_count) == (3, 2)
        assert kept.tolist() == [2, 3, 4]

    def test_connected_graph_is_identity(self, k3):
        sub, kept = largest_connected_component(k3)
        assert sub.node_count == 3 and sub.edge_count == 3
        assert kept.tolist() == [0, 1, 2]

    def test_tie_breaks_to_smallest_node(self):
        graph = Graph.from_edges(4, [(0, 1), (2, 3)])
        sub, kept = largest_connected_component(graph)
        assert sub.node_count == 2
        assert kept.tolist() == [0, 1]

    def test_matches_networkx(self, rng):
        disconnected = 0
        for i in range(20):
            # Every other graph is a shuffled disjoint union of small random
            # graphs, so equal-size largest components are common.
            if i % 2:
                parts = [random_graph(rng, int(rng.integers(2, 6)))
                         for _ in range(int(rng.integers(2, 5)))]
            else:
                parts = [random_graph(rng, int(rng.integers(2, 80)),
                                      p=float(rng.uniform(0.02, 0.3)))]
            graph = _shuffled_union(rng, parts)
            g = to_networkx(graph)
            components = list(nx.connected_components(g))
            disconnected += len(components) > 1
            # Largest first; among equal sizes, the one with the smallest id.
            best = sorted(max(components, key=lambda c: (len(c), -min(c))))
            sub, kept = largest_connected_component(graph)
            assert kept.tolist() == best
            edges = {(int(kept[u]), int(kept[v]))
                     for u, v in sub.edge_pairs()}
            assert edges == {tuple(sorted(e)) for e in g.subgraph(best).edges}
        assert disconnected >= 10


class TestGenerateSbm:
    def test_single_block_p1_is_complete(self):
        graph, planted = generate_sbm(1, 4, 1.0, 0.0, seed=0)
        assert (graph.node_count, graph.edge_count) == (4, 6)
        assert planted.assign.tolist() == [0, 0, 0, 0]

    def test_two_blocks_p1_are_disjoint_triangles(self):
        graph, planted = generate_sbm(2, 3, 1.0, 0.0, seed=5)
        assert (graph.node_count, graph.edge_count) == (6, 6)
        assert planted.assign.tolist() == [0, 0, 0, 1, 1, 1]
        for u, v in graph.edge_pairs():
            assert planted.assign[u] == planted.assign[v]

    def test_benchmark_edge_count_in_band(self):
        graph, _ = generate_sbm(20, 50, 0.25, 0.05, seed=1)
        assert graph.node_count == 1000
        assert abs(graph.edge_count - 29875) <= 500

    @pytest.mark.parametrize("args", [(4, 25, 0.5, 0.02, 7),
                                      (20, 50, 0.25, 0.05, 1)])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_row_chunks_match_one_shot_draw(self, monkeypatch, args, rows):
        # Chunked draws continue one Philox stream, so any chunk size gives
        # the graph of one uniform per pair drawn at once.
        n = args[0] * args[1]
        if rows is not None:
            monkeypatch.setattr(graph_module, "_SBM_PAIR_BUDGET", rows * n)
        *shape, seed = args
        graph, planted = generate_sbm(*shape, seed=seed)
        want, want_planted = generate_sbm_reference(*shape, seed=seed)
        assert np.array_equal(graph.indptr, want.indptr)
        assert np.array_equal(graph.indices, want.indices)
        assert np.array_equal(planted.assign, want_planted.assign)

    def test_deterministic_per_seed(self):
        g1, _ = generate_sbm(3, 10, 0.4, 0.1, seed=11)
        g2, _ = generate_sbm(3, 10, 0.4, 0.1, seed=11)
        g3, _ = generate_sbm(3, 10, 0.4, 0.1, seed=12)
        assert np.array_equal(g1.indices, g2.indices)
        assert not np.array_equal(g1.indices, g3.indices)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            generate_sbm(0, 4, 0.5, 0.1, seed=0)
        with pytest.raises(ParameterError):
            generate_sbm(2, 3, 0.2, 0.5, seed=0)  # p_out > p_in
        with pytest.raises(ParameterError):
            generate_sbm(2, 3, 1.5, 0.1, seed=0)


class TestKernels:
    def test_spmv_examples(self, k3, p3):
        assert k3.adjacency_matmat(np.ones(3)).tolist() == [2.0, 2.0, 2.0]
        assert p3.adjacency_matmat(
            np.array([1.0, 0.0, 0.0])).tolist() == [0.0, 1.0, 0.0]
        assert p3.adjacency_matmat(np.ones(3)).tolist() == [1.0, 2.0, 1.0]

    def test_spmv_length_mismatch(self, k3):
        with pytest.raises(ValueError):
            k3.adjacency_matmat(np.ones(4))

    def test_spmv_matches_dense(self, rng):
        for _ in range(10):
            graph = random_graph(rng, int(rng.integers(2, 64)))
            x = rng.standard_normal(graph.node_count)
            np.testing.assert_allclose(graph.adjacency_matmat(x),
                                       graph.to_dense() @ x, atol=1e-12)

    def test_trace_sq_examples(self, k3, p3, two_triangles):
        assert adjacency_trace_sq(k3) == 6.0
        assert adjacency_trace_sq(p3) == 4.0
        assert adjacency_trace_sq(two_triangles) == 12.0

    def test_trace_sq_matches_dense(self, rng):
        graph = random_graph(rng, 32)
        dense = graph.to_dense()
        assert adjacency_trace_sq(graph) == np.trace(dense @ dense)
