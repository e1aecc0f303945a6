"""Simple undirected graphs in compressed sparse row form.

Ingestion (edge-list text), preprocessing (largest connected component),
synthetic benchmark generation (planted-partition random graphs), and the
small linear-algebra kernels the optimizers are built on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, TextIO

import numpy as np

from .errors import ParameterError, ParseError
from .rng import make_generator

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Graph",
    "load_edge_list",
    "write_edge_list",
    "largest_connected_component",
    "generate_sbm",
    "adjacency_trace_sq",
]

_MAX_NODE_ID = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph.

    Attributes
    ----------
    node_count : int
        Number of nodes n (ids are dense, 0-based).
    edge_count : int
        Number of undirected edges m.
    indptr : int64 array, shape (n+1,)
        CSR row pointers into ``indices``.
    indices : int64 array, shape (2m,)
        Concatenated neighbor lists, sorted ascending within each row.
        Symmetric: v appears in row u iff u appears in row v.
    """

    node_count: int
    edge_count: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from undirected edges over nodes [0, node_count).

        Duplicate edges are collapsed; self-loops are rejected, and so is
        anything but integer (u, v) pairs.
        """
        if node_count < 1:
            raise ParameterError("node_count must be >= 1")
        message = "edges must be integer (u, v) pairs"
        try:
            pairs = np.asarray(edges if isinstance(edges, np.ndarray)
                               else list(edges))
        except ValueError:  # ragged pairs
            raise ParameterError(message) from None
        if pairs.size and (pairs.dtype.kind not in "iu"
                           or pairs.shape[1:] != (2,)):
            raise ParameterError(message)
        pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= node_count:
                raise ParameterError("edge endpoint out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ParameterError("self-loops are not allowed")
        return _from_pairs(node_count, *pairs.T)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of node u (a read-only view)."""
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        # Single shared float64 CSR backing for all matrix products, the
        # ascent's through ``_row_blocks``; scipy's kernel sums each row in
        # index order, so results are thread-count independent.  scipy is
        # imported here, once per graph, so that the commands which never
        # multiply by A start without it.
        import scipy.sparse as sp

        n = self.node_count
        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    @cached_property
    def _row_blocks(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        # The CSR's rows in each of ``row_halves``, copied once per graph:
        # an ascent lane forms its half of A·Z as ``block @ x``, which has
        # the bits of those rows of ``csr @ x``.
        return tuple(self._csr[rows] for rows in row_halves(self.node_count))

    def adjacency_matmat(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector or matrix with n rows."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.node_count:
            raise ValueError(
                f"operand has {x.shape[0]} rows, graph has {self.node_count} nodes")
        return self._csr @ x

    def to_dense(self) -> np.ndarray:
        """Dense n×n 0/1 adjacency matrix (test-scale graphs only)."""
        n = self.node_count
        a = np.zeros((n, n), dtype=np.float64)
        src = np.repeat(np.arange(n), self.degrees)
        a[src, self.indices] = 1.0
        return a

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as an (m, 2) array with u < v, lexicographic."""
        src = np.repeat(np.arange(self.node_count), self.degrees)
        keep = src < self.indices
        return np.column_stack([src[keep], self.indices[keep]])


def row_halves(n: int) -> tuple[slice, slice]:
    """The row halves [0, h) and [h, n), h = n // 2, of n rows."""
    return slice(0, n // 2), slice(n // 2, n)


# Largest node count whose directed pair keys src·n + dst (at most n² − 1)
# fit in int64.
_MAX_NODES = 3_037_000_499


def _from_pairs(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Graph on nodes [0, n) with an edge for each pair u[i]–v[i].

    The pairs hold no self-loops; repeats, in either orientation, collapse
    to one edge.  Each edge enters as its two directed keys src·n + dst, so
    the sorted distinct keys are the CSR entries in row-major order.
    """
    if n > _MAX_NODES:
        raise ParameterError(f"node_count must be <= {_MAX_NODES}")
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    # Not np.unique: without return_* flags it took 0.10 s on 320k wide int64
    # keys under numpy 2.4 (a hash route), this sort and mask 0.003 s.
    distinct = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    # The sources overwrite the keys, so the peak holds one array fewer.
    src, dst = np.divmod(keys, n, out=(keys, np.empty_like(keys)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(node_count=n, edge_count=len(keys) // 2,
                 indptr=indptr, indices=dst)


def _relabeled(ids: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Graph of the flat id sequence u0 v0 u1 v1 ..., relabeled densely in
    ascending id order, and its sorted original ids; self-loops are
    dropped."""
    u, v = ids[0::2], ids[1::2]
    keep = u != v
    if not keep.any():
        raise ParseError("empty graph")
    endpoints = np.concatenate([u[keep], v[keep]])
    top = int(endpoints.max())
    if top < 2 * len(endpoints):
        # Dense enough for a presence table: an id's new label is the
        # number of present ids below it.  The table and its running count
        # take at most twice the memory of ``endpoints``.
        present = np.zeros(top + 1, dtype=bool)
        present[endpoints] = True
        original_ids = np.flatnonzero(present)
        dense = (np.cumsum(present, dtype=np.int64) - 1)[endpoints]
    else:
        original_ids, dense = np.unique(endpoints, return_inverse=True)
    half = len(endpoints) // 2
    return _from_pairs(len(original_ids), dense[:half],
                       dense[half:]), original_ids


# The bytes of a plain edge list: ASCII digits, blanks and line breaks.
_PLAIN_BYTES = b"0123456789 \t\n\r"
# Ids of at most this many digits are below 10**18 and fit in int64.
_PLAIN_DIGITS = 18


def _scan_ids(data: bytes) -> np.ndarray | None:
    """The ids of a plain edge list in file order, or None if the file is
    not plain.

    Plain means every byte is in ``_PLAIN_BYTES``, every line (split at
    '\\n' and at '\\r') holds 0 or 2 tokens, and no token is longer than
    ``_PLAIN_DIGITS``.  On such a file the line loop would raise nothing and
    read the same ids, so ``load_edge_list`` converts them all at once with
    array passes over the bytes, making no Python object per token.
    """
    if data.translate(None, _PLAIN_BYTES):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    starts, ends = _token_bounds(buf)
    lengths = ends - starts
    if len(lengths) % 2 or np.max(lengths, initial=0) > _PLAIN_DIGITS:
        return None
    if not _pairs_fill_lines(buf, starts):
        return None
    return _token_values(data, ends, lengths)


def _token_bounds(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each token (run of digits) of a plain edge list starts, and
    where it ends (exclusive)."""
    # Digits are the only plain bytes >= b"0".
    is_digit = buf >= ord("0")
    edges = np.empty(len(buf) + 1, dtype=bool)
    np.not_equal(is_digit[1:], is_digit[:-1], out=edges[1:-1])
    edges[0], edges[-1] = is_digit[:1].any(), is_digit[-1:].any()
    bounds = np.flatnonzero(edges)
    return bounds[0::2], bounds[1::2]


def _pairs_fill_lines(buf: np.ndarray, starts: np.ndarray) -> bool:
    """Whether the tokens, given where they start, pair up into lines: no
    line break in the gap inside a pair, at least one in the gap after it."""
    # Among the line breaks and the token starts in file order, the breaks
    # between two starts are those of the gap before the second.
    events = (buf == ord("\n")) | (buf == ord("\r"))
    events[starts] = True
    is_start = buf[np.flatnonzero(events)] >= ord("0")
    breaks = np.diff(np.flatnonzero(is_start))
    breaks -= 1
    return not breaks[0::2].any() and bool(breaks[1::2].all())


def _token_values(data: bytes, ends: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """The int64 values of the tokens of a plain edge list, given where
    they end and their lengths (1 to ``_PLAIN_DIGITS``): eight digits at a
    time, from the end."""
    # Word i holds the eight bytes before data[i]; the zero bytes in front
    # give the tokens at the start of the file a full word too.
    words = np.ndarray((len(data) + 1,), dtype="<u8",
                       buffer=bytes(8) + data, strides=(1,))
    values = _last_eight_digits(words, ends, lengths)
    for lead in range(8, int(np.max(lengths, initial=0)), 8):
        pick = np.flatnonzero(lengths > lead)
        values[pick] += 10**lead * _last_eight_digits(
            words, ends[pick] - lead, lengths[pick] - lead)
    return values


# Eight ASCII digits read as one little-endian uint64, the first digit in
# the lowest byte, become their value in three steps.  Each step keeps the
# digit groups under its mask (1, 2, then 4 digits per group; the first
# mask also drops the ASCII offset 0x30) and joins every two neighbouring
# groups with one multiply and shift.  This is simdjson's eight-digit parse
# (Langdale & Lemire, VLDB J. 2019); the products wrap in uint64.
_EIGHT_DIGIT_STEPS = ((0x0F0F0F0F0F0F0F0F, 1 + (10 << 8), 8),
                      (0x00FF00FF00FF00FF, 1 + (100 << 16), 16),
                      (0x0000FFFF0000FFFF, 1 + (10000 << 32), 32))
# Entry w keeps the last min(w, 8) bytes of a word and zeroes the bytes in
# front of them, which then read as leading zero digits.
_WIDTH_MASKS = np.array([~0 << 8 * max(8 - w, 0) & (2**64 - 1)
                         for w in range(_PLAIN_DIGITS + 1)], dtype=np.uint64)


def _last_eight_digits(words: np.ndarray, ends: np.ndarray,
                       widths: np.ndarray) -> np.ndarray:
    """The value of the last min(width, 8) digits before each end."""
    group = words[ends]
    group &= _WIDTH_MASKS[widths]
    for mask, weights, shift in _EIGHT_DIGIT_STEPS:
        group &= mask
        group *= weights
        group >>= shift
    return group.view(np.int64)


# Leading comment lines the vectorized route skips: '#' or '%' first, then
# printable ASCII or tabs only, ended by '\n' or '\r\n'.  No such line holds
# a line break of the line loop's own (str.splitlines), so the loop would
# read the same lines after them and no ids from them.
_COMMENT_HEADER = re.compile(rb"(?:[#%][\t\x20-\x7e]*\r?\n)*")


def _line_ids(data: str | bytes) -> np.ndarray:
    """The ids of an edge list in file order, read line by line: the one
    source of ``ParseError`` messages and line numbers."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Numbered by str.splitlines, as the loop below numbers lines:
            # "x" stands in for the bad byte, which starts a new line only
            # when a line break ends the valid prefix.
            prefix = data[:exc.start].decode("utf-8")
            raise ParseError("invalid UTF-8 byte",
                             len((prefix + "x").splitlines())) from None
    ids: list[int] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two integers, got {len(tokens)} tokens", lineno)
        try:
            # ASCII digits after an optional sign only: int() alone would
            # also take "_" between digits and digits of other scripts.
            if "_" in line or not (tokens[0] + tokens[1]).isascii():
                raise ValueError
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"malformed integer in {tokens!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError("node ids must be non-negative", lineno)
        if u > _MAX_NODE_ID or v > _MAX_NODE_ID:
            raise ParseError(f"node id exceeds {_MAX_NODE_ID}", lineno)
        ids += (u, v)
    return np.array(ids, dtype=np.int64)


def load_edge_list(source: str | Path | IO) -> tuple[Graph, np.ndarray]:
    """Parse a whitespace-separated "u v" edge list into a Graph.

    Node ids are integers in [0, 2**63 - 1], written as ASCII digits after
    an optional '+' or '-' sign, and are relabeled densely to [0, n) in
    ascending original-id order.  Returns the graph and the
    sorted int64 array of original ids, so node i of the graph is original
    id ``ids[i]``.  Lines starting with '#' or '%' are comments; blank
    lines are ignored.  Repeated edges collapse to one and self-loops are
    dropped.

    A path or binary handle whose bytes are a plain edge list (see
    ``_scan_ids``), possibly after a header of comment lines (see
    ``_COMMENT_HEADER``), is converted in one vectorized pass; any other
    input, text handles included, goes through the line loop.  Both give
    the same graph and ids.

    Raises
    ------
    ParseError
        On undecodable bytes or a malformed or out-of-range token (with its
        line number), or when no edges remain ("empty graph").
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
    ids = None
    if isinstance(data, bytes):
        ids = _scan_ids(data[_COMMENT_HEADER.match(data).end():])
    if ids is None:
        ids = _line_ids(data)
    return _relabeled(ids)


def write_edge_list(graph: Graph, target: TextIO) -> None:
    """Write one "u v" line per undirected edge (u < v, sorted) to a text
    handle."""
    target.write("".join(f"{u} {v}\n" for u, v in graph.edge_pairs()))


def largest_connected_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest component, densely relabeled.

    Returns the subgraph and the sorted int64 array of the kept node ids.
    Ties between equal-size components go to the one containing the
    smallest node id.
    """
    from scipy.sparse.csgraph import connected_components

    ncomp, labels = connected_components(graph._csr, directed=False)
    if ncomp == 1:
        return graph, np.arange(graph.node_count, dtype=np.int64)
    sizes = np.bincount(labels, minlength=ncomp)
    # The lowest node that lies in a largest component picks it, so ties
    # go to the component holding the smallest id.
    best = labels[np.argmax(sizes[labels] == sizes.max())]

    keep = labels == best
    kept = np.flatnonzero(keep)
    # A component holds every neighbor of its nodes, so the kept CSR rows
    # are the subgraph's rows; numbering the kept nodes in id order keeps
    # each row sorted.
    new_id = np.cumsum(keep, dtype=np.int64) - 1
    indices = new_id[graph.indices[np.repeat(keep, graph.degrees)]]
    indptr = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(graph.degrees[kept], out=indptr[1:])
    return Graph(len(kept), len(indices) // 2, indptr, indices), kept


# Node pairs per uniform draw of generate_sbm, rounded down to whole rows.
_SBM_PAIR_BUDGET = 1 << 20


def generate_sbm(blocks: int, block_size: int, p_in: float, p_out: float,
                 seed: int | None):
    """Sample a planted-partition random graph.

    Nodes are grouped into ``blocks`` consecutive blocks of ``block_size``;
    each unordered distinct pair is an edge independently with probability
    ``p_in`` inside a block and ``p_out`` across blocks.  Returns the graph
    together with the planted block membership.

    Pairs draw one uniform each in ``np.triu_indices`` order, a chunk of
    rows at a time, so memory holds one chunk plus the kept edges; the
    Philox stream, and so the graph, is that of one draw for every pair.
    """
    from .summary import Membership  # deferred: summary imports this module

    if blocks < 1 or block_size < 1:
        raise ParameterError("blocks and block_size must be >= 1")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ParameterError("need 0 <= p_out <= p_in <= 1")

    n = blocks * block_size
    if n > _MAX_NODES:
        raise ParameterError(f"blocks * block_size must be <= {_MAX_NODES}")
    rng = make_generator(seed)
    rows = max(1, _SBM_PAIR_BUDGET // n)
    kept = []
    for start in range(0, n, rows):
        chunk = np.ones((min(rows, n - start), n), dtype=bool)
        iu, ju = np.nonzero(np.triu(chunk, k=start + 1))
        iu += start
        same = (iu // block_size) == (ju // block_size)
        keep = rng.random(len(iu)) < np.where(same, p_in, p_out)
        kept.append(np.column_stack([iu[keep], ju[keep]]))
    graph = _from_pairs(n, *np.concatenate(kept).T)
    planted = Membership(np.arange(n, dtype=np.int64) // block_size, blocks)
    return graph, planted


def adjacency_trace_sq(graph: Graph) -> float:
    """tr(A²) for a simple undirected graph, which is exactly 2m."""
    return float(2 * graph.edge_count)
