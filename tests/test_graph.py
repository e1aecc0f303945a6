import io
import sys
import threading
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsumm import (Graph, ParameterError, ParseError, adjacency_trace_sq,
                      generate_sbm, graph as graph_module,
                      largest_connected_component, load_edge_list, stiefel,
                      write_edge_list)

from conftest import use_lanes
from oracles import (canonicalize_reference, generate_sbm_reference,
                     graph_from_canonical_reference, random_graph,
                     relabeled_graph_reference, relabeled_unique_reference,
                     scan_ids_reference, to_networkx)
from test_fuzz import edge_bytes


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

    @pytest.mark.parametrize("token", ["1_0", "１", "٣", "+-1", "+"],
                             ids=["underscore", "full-width", "arabic-indic",
                                  "two-signs", "sign-only"])
    def test_id_must_be_ascii_digits(self, token):
        # int() alone reads 1_0 as 10 and the two other scripts' digits
        # as 1 and 3.
        text = f"1 2\n2 3\n3 {token}\n"
        with pytest.raises(ParseError, match="line 3: malformed integer"):
            load_edge_list(io.StringIO(text))
        with pytest.raises(ParseError, match="line 3: malformed integer"):
            load_edge_list(io.BytesIO(text.encode()))

    def test_signed_ids_load(self):
        graph, ids = load_edge_list(io.StringIO("+1 2\n2 -0\n"))
        assert ids.tolist() == [0, 1, 2]
        assert graph.edge_count == 2

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

    @pytest.mark.parametrize("brk", [
        b"\r", b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode()],
        ids=["cr", "vt", "ff", "fs", "nel", "ls"])
    @pytest.mark.parametrize("lead", [b"", b"2 "], ids=["line-start", "mid-line"])
    def test_invalid_byte_numbered_like_a_malformed_token(self, brk, lead):
        # Line breaks other than \n count as str.splitlines counts them.
        prefix = b"0 1" + brk + b"1 2\n2 3\n" + lead

        def line_of(bad):
            with pytest.raises(ParseError) as info:
                load_edge_list(io.BytesIO(prefix + bad + b"\n"))
            return str(info.value).split(":")[0]

        assert line_of(b"\xff") == line_of(b"x") == "line 4"

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


def _outcome(data: bytes):
    """What ``load_edge_list`` makes of ``data``: CSR arrays and ids as
    lists, or the ParseError text."""
    try:
        graph, ids = load_edge_list(io.BytesIO(data))
    except ParseError as exc:
        return str(exc)
    return graph.indptr.tolist(), graph.indices.tolist(), ids.tolist()


def _line_loop_outcome(data: bytes):
    """``_outcome`` with the vectorized route switched off."""
    with mock.patch.object(graph_module, "_scan_ids", return_value=None):
        return _outcome(data)


def _count_line_loops(source) -> int:
    """How often loading ``source`` runs the line loop, whether or not the
    load raises a ParseError."""
    with mock.patch.object(graph_module, "_line_ids",
                           wraps=graph_module._line_ids) as line_ids:
        try:
            load_edge_list(source)
        except ParseError:
            pass
    return line_ids.call_count


_BLANKS = st.text(alphabet=" \t", max_size=3)
# Ids from 18 to 20 digits: the vectorized route's limit, int64's, and past it.
_EDGE_IDS = (10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 2**63 + 9)


@st.composite
def _well_formed_edge_lists(draw) -> tuple[bytes, list[tuple[int, int]]]:
    """Edge lists without comments or bad token counts: runs of blanks,
    mixed line ends, blank lines, leading zeros, ids up to 2**63 + 9 and
    self-loops; returns the bytes and the pairs written."""
    top = draw(st.sampled_from([9, 10**6, 10**18 - 1, 2**63 + 9]))
    edge_ids = [x for x in (top, *_EDGE_IDS) if x <= top]
    ids = st.one_of(st.integers(0, top), st.sampled_from(edge_ids))
    zeros = st.integers(0, draw(st.integers(0, 2)))
    only_self_loops = draw(st.booleans())
    pairs, lines = [], []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANKS))
            continue
        u = draw(ids)
        v = u if only_self_loops else draw(st.one_of(st.just(u), ids))
        pairs.append((u, v))
        u_text, v_text = ("0" * draw(zeros) + str(x) for x in (u, v))
        sep = draw(st.text(alphabet=" \t", min_size=1, max_size=3))
        lines.append(draw(_BLANKS) + u_text + sep + v_text + draw(_BLANKS))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final line end
    return text.encode("ascii"), pairs


class TestIngestRoutes:
    """The vectorized route and the line loop read every input alike."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_well_formed_edge_lists())
    def test_well_formed_lists_agree(self, case):
        data, pairs = case
        outcome = _outcome(data)
        assert outcome == _line_loop_outcome(data)
        # Both also match the row-wise unique and lexsort references.
        if any(max(pair) > 2**63 - 1 for pair in pairs):
            assert "exceeds" in outcome
        elif all(u == v for u, v in pairs):
            assert outcome == "empty graph"
        else:
            graph, ids = relabeled_graph_reference(
                np.array(pairs, dtype=np.int64))
            assert outcome == (graph.indptr.tolist(), graph.indices.tolist(),
                               ids.tolist())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edge_bytes)
    def test_fuzz_corpus_agrees(self, data):
        assert _outcome(data) == _line_loop_outcome(data)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="0123 \t\r\n", max_size=40).map(str.encode))
    def test_plain_bytes_agree(self, data):
        # Only plain bytes, in any order: lines of any token count.
        assert _outcome(data) == _line_loop_outcome(data)

    def test_sbm_file_takes_vectorized_route(self):
        # refine-mid's shape: 40 blocks of 100, 12 neighbours inside the
        # block and 3 across.
        graph, _ = generate_sbm(40, 100, 12 / 99, 3 / 3900, seed=1)
        text = io.StringIO()
        write_edge_list(graph, text)
        data = text.getvalue().encode()
        assert _count_line_loops(io.BytesIO(data)) == 0
        outcome = _outcome(data)
        assert outcome == _line_loop_outcome(data)
        want, ids = relabeled_graph_reference(graph.edge_pairs())
        assert outcome == (want.indptr.tolist(), want.indices.tolist(),
                           ids.tolist())

    def test_crlf_file_with_header_takes_vectorized_route(self):
        plain = b"0 1\n1 2\n2 0\n2 3\n"
        crlf = b"# header\r\n" + plain.replace(b"\n", b"\r\n")
        assert _count_line_loops(io.BytesIO(crlf)) == 0
        assert _count_line_loops(io.BytesIO(plain)) == 0
        assert _outcome(crlf) == _outcome(plain) == _line_loop_outcome(crlf)

    @pytest.mark.parametrize("marker", [b"#", b"%"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n"])
    def test_comment_headers_take_vectorized_route(self, marker, end):
        graph, _ = generate_sbm(4, 10, 0.5, 0.1, seed=2)
        text = io.StringIO()
        write_edge_list(graph, text)
        body = text.getvalue().encode().replace(b"\n", end)
        header = b"".join(marker + line + end for line in (
            b" Directed graph (each unordered pair of nodes is saved once)",
            b"\tNodes: 40 Edges: 120 ~!@$^&*()_+{}|:\"<>?`-=[]\\;',./",
            b"", marker + b" FromNodeId\tToNodeId"))
        data = header + body
        assert _count_line_loops(io.BytesIO(data)) == 0
        outcome = _outcome(data)
        assert outcome == _line_loop_outcome(data) == _outcome(body)

    def test_error_after_header_reports_its_line(self):
        for bad, message in ((b"0 x", "malformed integer in ['0', 'x']"),
                             (b"0 1 2", "expected two integers, got 3 tokens")):
            data = b"# one\r\n% two\n#three\n" + bad + b"\n1 2\n"
            assert _outcome(data) == f"line 4: {message}"
            assert _outcome(data) == _line_loop_outcome(data)

    @pytest.mark.parametrize("header, expected", [
        # U+2028 breaks a line for the line loop: an edge, then a bad line
        ("# a\u2028 0 1\n".encode(), [0, 1, 3, 4, 5]),
        ("# a\u2028b c\n".encode(), "line 2: malformed integer in ['b', 'c']"),
        ("# caf\xe9\n".encode("latin-1"), "line 1: invalid UTF-8 byte"),
        (b"# bell \x07\n", [3, 4, 5]),
        (b"# cr\r1 2\n", [1, 2, 3, 4, 5]),
        (b" # indented\n", [3, 4, 5])])
    def test_other_header_bytes_take_line_loop(self, header, expected):
        data = header + b"3 4\n4 5\n"
        assert _count_line_loops(io.BytesIO(data)) == 1
        outcome = _outcome(data)
        assert outcome == _line_loop_outcome(data)
        assert (outcome if isinstance(outcome, str) else outcome[2]) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from("#%"), st.text(max_size=6),
                              st.sampled_from(["\n", "\r\n", "\r"])),
                    max_size=4),
           _well_formed_edge_lists())
    def test_any_comment_header_agrees(self, header, case):
        data = "".join(marker + text + end
                       for marker, text, end in header).encode(
                           "utf-8", "surrogatepass") + case[0]
        assert _outcome(data) == _line_loop_outcome(data)

    def test_text_handles_take_line_loop(self):
        assert _count_line_loops(io.StringIO("0 1\n1 2\n")) == 1


def _same_scan(data: bytes) -> np.ndarray | None:
    """``_scan_ids(data)``, checked against the ``bytes.split`` reference:
    None on both sides or equal int64 arrays."""
    got, want = graph_module._scan_ids(data), scan_ids_reference(data)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)
    return got


class TestPlainScan:
    """The array-pass scan of plain edge lists against its reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_well_formed_edge_lists())
    def test_well_formed_lists_match_reference(self, case):
        _same_scan(case[0])

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(alphabet="0123 \t\r\n", max_size=60).map(str.encode))
    def test_plain_bytes_match_reference(self, data):
        _same_scan(data)

    @pytest.mark.parametrize("width", range(1, 19))
    def test_every_token_length(self, width):
        # A different digit in each place, all nines, one digit, a one and
        # zeros, then 7 and 0 zero-padded to the width.  The first token
        # starts the file; the last ends it, with no line break after it.
        ids = [int("123456789987654321"[:width]), 10**width - 1, 7,
               10**(width - 1)]
        texts = [str(x) for x in ids] + [f"{7:0{width}d}", "0" * width]
        data = "\n".join(f"{a} {b}" for a, b in zip(texts, texts[1:]))
        want = [int(t) for pair in zip(texts, texts[1:]) for t in pair]
        assert _same_scan(data.encode()).tolist() == want
        assert _outcome(data.encode()) == _line_loop_outcome(data.encode())

    @pytest.mark.parametrize("data, want", [
        (b"999999999999999999 000000000000000042", [10**18 - 1, 42]),
        (b"1 2", [1, 2]),
        (b"1 2\n", [1, 2]),
        (b"\n\t 1 2 \n", [1, 2]),
        (b"123456789 1234567890123\r\n5 6", [123456789, 1234567890123, 5, 6]),
        (b"1 2\r3 4\r", [1, 2, 3, 4]),
        (b"1 2\r\r\r3 4", [1, 2, 3, 4]),
        (b"", []),
        (b" \r\n\t", []),
    ])
    def test_token_positions_and_line_ends(self, data, want):
        assert _same_scan(data).tolist() == want
        assert _outcome(data) == _line_loop_outcome(data)

    @pytest.mark.parametrize("data", [
        b"1\n2\n",                 # a break inside a pair
        b"1 \r 2\n",
        b"1 2 3 4\n",               # no break after a pair
        b"1 2\t3 4",
        b"1 2\n3",                  # an odd token count
        b"1234567890123456789 0\n",  # 19 digits
        b"1 -2\n", b"1 2 # c\n",
    ])
    def test_non_plain_files_are_refused(self, data):
        assert _same_scan(data) is None
        assert _count_line_loops(io.BytesIO(data)) == 1


class TestRelabel:
    """Both relabel branches against the ``np.unique`` reference."""

    @staticmethod
    def _relabel(ids: list[int]) -> bool:
        """Check ``_relabeled`` against the reference; returns whether it
        took the ``np.unique`` branch."""
        ids = np.array(ids, dtype=np.int64)
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            graph, original = graph_module._relabeled(ids)
        want, want_ids = relabeled_unique_reference(ids)
        assert original.dtype == np.int64
        assert np.array_equal(original, want_ids)
        assert np.array_equal(graph.indptr, want.indptr)
        assert np.array_equal(graph.indices, want.indices)
        return unique.called

    @pytest.mark.parametrize("ids, by_unique", [
        # The table serves ids below twice the count of endpoints left
        # once self-loops are dropped.
        ([0, 3], False), ([0, 4], True), ([1, 3], False), ([3, 1], False),
        ([0, 3, 9, 9], False), ([0, 4, 1, 1], True),
        ([0, 11, 11, 1, 2, 3], False), ([0, 12, 12, 1, 2, 3], True),
        ([1, 2, 2, 3, 3, 1], False), ([10**18 - 1, 0], True),
    ])
    def test_guard_picks_branch(self, ids, by_unique):
        assert self._relabel(ids) is by_unique

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                    min_size=1, max_size=30),
           st.sampled_from([0, 1, 10, 10**6]))
    def test_both_branches_match_reference(self, pairs, offset):
        if all(u == v for u, v in pairs):
            return
        self._relabel([x + offset for pair in pairs for x in pair])


class TestFromPairs:
    def test_single_key_csr_matches_lexsort_reference(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 60))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 300)), 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            graph = Graph.from_edges(n, pairs)
            want = graph_from_canonical_reference(
                n, canonicalize_reference(pairs))
            assert graph.edge_count == want.edge_count
            assert np.array_equal(graph.indptr, want.indptr)
            assert np.array_equal(graph.indices, want.indices)
            assert graph.indices.dtype == np.int64

    def test_pair_key_cannot_overflow(self):
        # The largest key is (n - 1)·n + (n - 1) = n² − 1.
        most = graph_module._MAX_NODES
        assert most**2 - 1 <= np.iinfo(np.int64).max < (most + 1)**2 - 1
        with pytest.raises(ParameterError, match="node_count"):
            Graph.from_edges(most + 1, [(0, most)])


class TestGraphStructure:
    def test_from_edges_validation(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(0, [])
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(1, 1)])
        # Non-integer endpoints, pairs of the wrong width and ragged lists.
        for edges in ([(0.5, 1)], np.array([[0.0, 1.0]]), [(True, False)],
                      [0, 1, 2], [0, 1], [(0, 1, 2)], [(0, 1), (2,)],
                      [(0, 1), (1, "a")]):
            with pytest.raises(ParameterError, match="integer"):
                Graph.from_edges(3, edges)
        assert Graph.from_edges(3, []).edge_count == 0
        for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.int64):
            graph = Graph.from_edges(3, np.array([[0, 1], [2, 1]], dtype=dtype))
            assert graph.edge_pairs().tolist() == [[0, 1], [1, 2]]

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
        graphs = []
        for i in range(20):
            # Every other graph is a shuffled disjoint union of small random
            # graphs, so equal-size largest components are common.
            if i % 2:
                parts = [random_graph(rng, int(rng.integers(2, 6)))
                         for _ in range(int(rng.integers(2, 5)))]
            else:
                parts = [random_graph(rng, int(rng.integers(2, 80)),
                                      p=float(rng.uniform(0.02, 0.3)))]
            graphs.append(_shuffled_union(rng, parts))
        # No edges at all, and isolated nodes around one edge.
        graphs += [Graph.from_edges(5, []), Graph.from_edges(6, [(2, 4)])]
        disconnected = 0
        for graph in graphs:
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
            # The CSR is the canonical one of the relabeled induced edges.
            induced = np.array(list(g.subgraph(best).edges),
                               dtype=np.int64).reshape(-1, 2)
            want = Graph.from_edges(len(kept), np.searchsorted(kept, induced))
            assert sub.indptr.dtype == sub.indices.dtype == np.int64
            assert np.array_equal(sub.indptr, want.indptr)
            assert np.array_equal(sub.indices, want.indices)
            assert sub.edge_count == want.edge_count
        assert disconnected >= 12


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

    def test_node_limit_checked_before_drawing(self, monkeypatch):
        # At the real limit a draw would first allocate n-wide rows, so the
        # bound is checked before any generator is made.
        def no_draws(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(graph_module, "_MAX_NODES", 10)
        monkeypatch.setattr(graph_module, "make_generator", no_draws)
        with pytest.raises(ParameterError, match="block_size"):
            generate_sbm(4, 5, 0.5, 0.1, seed=0)


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

    @staticmethod
    def _row_block_cases(rng):
        yield Graph.from_edges(1, [])
        yield Graph.from_edges(2, [(0, 1)])
        yield Graph.from_edges(3, [(0, 2)])
        # Isolated nodes give empty rows: first, inner and last.
        yield Graph.from_edges(12, [(2, 5), (5, 6), (6, 9), (2, 9)])
        for n in (5, 40, 200):
            graph = random_graph(rng, n, p=0.1)
            yield Graph.from_edges(n + 31, np.vstack(
                [graph.edge_pairs(), [[n + 3, n + 4]]]))

    @staticmethod
    def _in_ranges(graph, x, cuts, both):
        """A @ x written as the row ranges between ``cuts``, each range on
        a lane of ``both``."""
        out = np.empty_like(x)
        ranges = list(zip(cuts[:-1], cuts[1:]))
        both(lambda: [graph._matmat_rows(x, out, *r) for r in ranges[0::2]],
             lambda: [graph._matmat_rows(x, out, *r) for r in ranges[1::2]])
        return out

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_row_block_product_matches_csr(self, rng, lanes, monkeypatch):
        use_lanes(monkeypatch, lanes)
        with stiefel._lanes(1) as both:
            assert (both is stiefel._in_turn) == (lanes == 1)
            for graph in self._row_block_cases(rng):
                n = graph.node_count
                halves = [0, n // 2, n]
                cuts = sorted(rng.integers(0, n + 1, size=4).tolist())
                for k in (1, 3, 32):
                    x = rng.standard_normal((n, k))
                    want = graph._csr @ x
                    assert np.array_equal(want, graph.adjacency_matmat(
                        np.asfortranarray(x)))
                    for bounds in (halves, [0] + cuts + [n]):
                        got = self._in_ranges(graph, x, bounds, both)
                        assert np.array_equal(got, want)

    def test_row_block_product_leaves_other_rows(self, rng):
        graph = random_graph(rng, 30, p=0.2)
        x = rng.standard_normal((30, 4))
        out = np.full((30, 4), 7.0)
        graph._matmat_rows(x, out, 10, 20)
        assert np.array_equal(out[10:20], (graph._csr @ x)[10:20])
        assert (out[:10] == 7.0).all() and (out[20:] == 7.0).all()

    def test_row_block_product_under_thread_stress(self, monkeypatch):
        # A range written twice, half or never would break the equality:
        # six threads on two lanes each, switching as often as the
        # interpreter allows.
        use_lanes(monkeypatch, 2)
        graph, _ = generate_sbm(8, 50, 0.3, 0.02, seed=2)
        n = graph.node_count
        x = np.random.default_rng(3).standard_normal((n, 4))
        want = graph._csr @ x
        mismatches = []

        def hammer():
            with stiefel._lanes(1) as both:
                for _ in range(40):
                    got = self._in_ranges(graph, x, [0, n // 2, n], both)
                    if not np.array_equal(got, want):
                        mismatches.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_row_block_product_rejects_a_bad_operand(self, k3):
        good = np.ones((3, 2))
        for x, out, start, stop in (
                (np.ones(3), np.ones(3), 0, 3),
                (np.ones((4, 2)), np.ones((4, 2)), 0, 3),
                (good, np.ones((3, 1)), 0, 3),
                (good, np.ones((3, 2)), 2, 1),
                (good, np.ones((3, 2)), 0, 4),
                (np.asfortranarray(good), np.ones((3, 2)), 0, 3),
                (good, np.asfortranarray(np.ones((3, 2))), 0, 3),
                (good.astype(np.float32), np.ones((3, 2)), 0, 3)):
            with pytest.raises(ValueError):
                k3._matmat_rows(x, out, start, stop)

    def test_trace_sq_examples(self, k3, p3, two_triangles):
        assert adjacency_trace_sq(k3) == 6.0
        assert adjacency_trace_sq(p3) == 4.0
        assert adjacency_trace_sq(two_triangles) == 12.0

    def test_trace_sq_matches_dense(self, rng):
        graph = random_graph(rng, 32)
        dense = graph.to_dense()
        assert adjacency_trace_sq(graph) == np.trace(dense @ dense)
