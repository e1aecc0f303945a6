"""Graph summaries: grouped adjacency densities and the quality objective.

A summary compresses a graph into k supernodes.  Its quality is the trace
objective F (sum over supernode pairs of squared edge counts over size
products); the squared reconstruction error of the lifted adjacency equals
2m - F, so maximizing F and minimizing the error are the same problem.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ParameterError
from .graph import Graph, adjacency_trace_sq
from .kmeans import KmeansConfig, _gamma, _minibatch_kmeans
from .rng import derive_seeds, make_generator
from .spectral import lm_eigs
from .stiefel import ocsa, random_orthonormal_init

__all__ = ["Membership", "Summary", "ReassignConfig", "ReassignMove",
           "SummaryReport", "supernode_edge_counts", "objective_integer",
           "build_summary", "l2_loss", "reassignment", "specsumm"]


@dataclass(frozen=True, eq=False)
class Membership:
    """Assignment of each node to one of k supernodes.

    Every supernode must be inhabited: empty groups would put zero sizes in
    density denominators downstream.
    """

    assign: np.ndarray
    k: int

    def __post_init__(self):
        # copy so freezing never reaches back into the caller's buffer
        assign = np.array(self.assign)
        if assign.ndim != 1 or assign.size == 0:
            raise ParameterError("assignment must be a non-empty 1-d array")
        if assign.dtype.kind not in "iu":
            raise ParameterError("assignment labels must be integers")
        if (isinstance(self.k, bool)
                or not isinstance(self.k, (int, np.integer))):
            raise ParameterError("k must be an integer")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        assign = assign.astype(np.int64, copy=False)
        if assign.min() < 0 or assign.max() >= self.k:
            raise ParameterError("assignment labels must lie in [0, k)")
        sizes = np.bincount(assign, minlength=self.k)
        if sizes.min() == 0:
            raise ParameterError("every supernode must contain a node")
        assign.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "sizes", sizes)

    sizes: np.ndarray = field(init=False, repr=False)

    @property
    def n(self) -> int:
        return int(self.assign.size)


@dataclass(frozen=True, eq=False)
class Summary:
    """Supernode membership plus the symmetric density matrix.

    density[i, j] is edges between groups i and j divided by n_i * n_j
    (diagonal: ordered pairs over n_i^2, so it tops out at (n_i - 1)/n_i).
    """

    membership: Membership
    density: np.ndarray

    def __post_init__(self):
        density = np.array(self.density, dtype=np.float64)
        k = self.membership.k
        if density.shape != (k, k):
            raise ParameterError(f"density must be {k}x{k}")
        if not np.all(np.isfinite(density)):
            raise ParameterError("density entries must be finite")
        if np.abs(density - density.T).max(initial=0.0) > 1e-12:
            raise ParameterError("density must be symmetric")
        if density.min(initial=0.0) < 0.0 or density.max(initial=0.0) > 1.0:
            raise ParameterError("density entries must lie in [0, 1]")
        sizes = self.membership.sizes.astype(np.float64)
        diag_cap = (sizes - 1.0) / sizes
        if np.any(np.diag(density) > diag_cap + 1e-12):
            raise ParameterError("diagonal density exceeds (n_i - 1)/n_i")
        density.setflags(write=False)
        object.__setattr__(self, "density", density)

    @property
    def k(self) -> int:
        return self.membership.k


def supernode_edge_counts(graph: Graph, membership: Membership) -> np.ndarray:
    """Ordered-pair edge counts E between supernodes, as int64 (k, k).

    Both directions of every edge are counted, so E is symmetric, diagonal
    entries are twice the intra-group edge count, and E sums to 2m: one
    bincount over the CSR entries, which hold both directions, gives E.
    """
    if membership.n != graph.node_count:
        raise ParameterError("membership length must match graph order")
    k = membership.k
    a = membership.assign
    keys = np.repeat(a * k, graph.degrees) + a[graph.indices]
    return np.bincount(keys, minlength=k * k).reshape(k, k)


def _objective_from_counts(counts: np.ndarray, sizes: np.ndarray) -> float:
    outer = sizes.astype(np.float64)[:, None] * sizes.astype(np.float64)[None, :]
    sq = counts.astype(np.float64) ** 2
    return float(np.sum(sq / outer))


def _summarize_counts(graph: Graph, membership: Membership,
                      counts: np.ndarray | None = None
                      ) -> tuple[Summary, float, float]:
    """The summary of a membership with its objective F and loss L = 2m - F.

    All three come from one matrix of supernode edge counts: ``counts``
    when the caller already holds them, else one count taken here.
    """
    if counts is None:
        counts = supernode_edge_counts(graph, membership)
    sizes = membership.sizes.astype(np.float64)
    summary = Summary(membership, counts / (sizes[:, None] * sizes[None, :]))
    objective = _objective_from_counts(counts, membership.sizes)
    return summary, objective, adjacency_trace_sq(graph) - objective


def objective_integer(graph: Graph, membership: Membership) -> float:
    """Trace objective F = sum_ij E_ij^2 / (n_i n_j), from exact counts."""
    return _summarize_counts(graph, membership)[1]


def build_summary(graph: Graph, membership: Membership) -> Summary:
    """Summary whose densities are exact edge counts over size products."""
    return _summarize_counts(graph, membership)[0]


def l2_loss(graph: Graph, summary: Summary) -> float:
    """Squared Frobenius error of the lifted adjacency over all ordered node
    pairs, for the summary's own densities D.

    Summed over supernode pairs it is 2m − 2⟨E, D⟩ + ⟨nnᵀ, D∘D⟩, from the
    edge counts E and the group sizes n, so no dense reconstruction is ever
    materialized.  For count-based densities it equals 2m − F.
    """
    if summary.membership.n != graph.node_count:
        raise ParameterError("summary does not match graph order")
    counts = supernode_edge_counts(graph, summary.membership)
    sizes = summary.membership.sizes.astype(np.float64)
    d = summary.density
    return float(adjacency_trace_sq(graph) - 2.0 * np.sum(counts * d)
                 + np.sum(np.outer(sizes, sizes) * d * d))


@dataclass(frozen=True)
class ReassignConfig:
    rounds: int = 4
    samples_per_round: int = 500
    seed: int | None = None

    def __post_init__(self):
        if self.rounds < 0:
            raise ParameterError("rounds must be >= 0")
        if self.samples_per_round < 1:
            raise ParameterError("samples_per_round must be >= 1")


class ReassignMove(NamedTuple):
    node: int
    source: int
    target: int
    objective: float


# Sampled nodes evaluated per window of _reassign: each (B, k) temporary
# of _move_deltas holds under 4096 floats below k = 64, and from there on
# no more than a (k, k) one of the counts.
_WINDOW_NODES = 64

# Each move delta is a signed sum of terms like E²/(n_i·n_j) of exact
# integers (counts and sizes far below 2⁵³, and their sums and
# differences), and every term meets at most k + 11 roundings on its way
# to the delta: a few in forming it, k − 1 in a band sum of any order
# (FMA or not), and the scalings and combinations after it.  So each delta
# lies within γ_{k+11}·M of the true change in F, M the sum of its terms'
# absolute values (Higham, "Accuracy and Stability of Numerical
# Algorithms", §3.1).  Every term is bounded through a band sum: an entry
# a band drops is one of the band's own terms, and
# 2·|E_bj·c_j| ≤ E_bj² + c_j².  So M ≤ 5P, where
# P = 2X/n'_a + 4(R_b + C)/n'_b + I + 2R_a/n_a + 2R_b/n_b, with
# X = Σⱼ (E_aj − c_j)²/n_j, C = Σⱼ c_j²/n_j, I the three entries inside
# {a, b} after the move and n' the sizes after it.  The slack
# 8γ_{k+16}·max_b P, one per node, exceeds 5γ_{k+11}·P with room for the
# rounding of P: a delta above its node's slack is a move that raises F,
# and a node whose best true change is within rounding of zero stays.  No
# term is subnormal: a nonzero numerator is at least 1 and a denominator
# at most n².
_SLACK_FACTOR = 8.0


def _neighbor_counts(graph: Graph, assign: np.ndarray, nodes: np.ndarray,
                     k: int) -> np.ndarray:
    """(B, k) int64: entry (r, j) counts the neighbors of nodes[r] in group
    j, from one flat bincount over the nodes' CSR rows."""
    starts = graph.indptr[nodes]
    degrees = graph.indptr[nodes + 1] - starts
    ends = np.cumsum(degrees)
    slots = np.arange(degrees.sum()) + np.repeat(starts - (ends - degrees),
                                                 degrees)
    keys = np.repeat(np.arange(len(nodes)) * k, degrees)
    keys += assign[graph.indices[slots]]
    return np.bincount(keys, minlength=len(nodes) * k).reshape(-1, k)


def _move_deltas(counts: np.ndarray, sizes: np.ndarray, nbr: np.ndarray,
                 a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Change in F when node r of B moves from its group a[r] to each group
    b, in O(B·k) work plus one (B, k)·(k, k) product, and a rounding slack
    per node that bounds each delta's gap to the true change.

    nbr[r, j] counts node r's neighbors in group j.  Moving it from a to b
    changes F only in the bands of a and b: each band's entries outside
    {a, b} over its group's size, plus the three entries inside.  With
    c = nbr[r], target b's band after the move, Σⱼ (E_bj + c_j)²/n_j,
    expands as R_b + 2·(E·(c/n))_b + Σⱼ c_j²/n_j, where R_b = Σⱼ E_bj²/n_j
    is shared by every node; group a's, Σⱼ (E_aj − c_j)²/n_j, is one sum
    per node.  Each then drops its a and b entries.  Entry (r, a[r]),
    staying put, is -inf.  No step calls BLAS, and each row's bits depend
    only on its own node, not on B or the other rows.
    """
    nodes, k = nbr.shape
    r = np.arange(nodes)
    fs = sizes.astype(np.float64)
    rows = counts.astype(np.float64)
    inv = 1.0 / fs
    inv_b = 1.0 / (fs + 1.0)
    e_bb = np.diagonal(rows)
    bands = np.sum(rows**2 * inv, axis=1)
    doubled = 2.0 * bands * inv
    stay = doubled - (e_bb * inv)**2

    c = nbr.astype(np.float64)
    c_a = c[r, a][:, None]
    inv_a = inv[a][:, None]
    inv_na = 1.0 / (fs[a][:, None] - 1.0)
    # Row r, column b: E_ab, then E_ab − c_b and its entry of a's band.
    row_a = rows[a]
    left = row_a - c
    left_sq = left**2 * inv
    left_full = np.sum(left_sq, axis=1, keepdims=True)
    band_a = left_full - left_sq[r, a][:, None] - left_sq
    scaled = c * inv
    shared = bands + np.sum(c * scaled, axis=1, keepdims=True)
    across = e_bb + c
    band_b = (shared + 2.0 * np.einsum("bj,jc->bc", scaled, rows)
              - (row_a + c_a)**2 * inv_a - across**2 * inv)
    inside = (((row_a[r, a][:, None] - 2.0 * c_a) * inv_na)**2
              + ((across + c) * inv_b)**2
              + 2.0 * (left + c_a)**2 * (inv_na * inv_b))
    # The bands of a and b before the move, F's part that the move changes.
    before = stay[a][:, None] + stay - 2.0 * row_a**2 * (inv_a * inv)
    deltas = (2.0 * inv_na * band_a + band_b * (2.0 * inv_b) + inside
              - before)
    deltas[r, a] = -np.inf
    positive = (2.0 * inv_na * left_full + shared * (4.0 * inv_b) + inside
                + doubled + doubled[a][:, None])
    slack = _SLACK_FACTOR * _gamma(k + 16) * positive.max(axis=1, initial=0.0)
    return deltas, slack


def reassignment(graph: Graph, membership: Membership, counts: np.ndarray,
                 config: ReassignConfig | None = None
                 ) -> tuple[Membership, list[ReassignMove]]:
    """Greedy node moves that strictly increase the trace objective.

    Each round samples nodes without replacement and visits them in
    sample order; a visited node moves to the supernode with its largest
    move delta (ties to the lowest target index) if that delta exceeds the
    node's rounding slack, which bounds each delta's gap to the true change
    in F, so every move raises F.  Moves update a private copy of
    ``counts`` (the caller's array is left as it was), and the objective is
    then recomputed exactly from the counts.
    Moves that would empty a supernode are skipped.

    The visits are evaluated in windows: the next 64 sampled nodes against
    the current counts, every move of every node in O(B·k) work plus one
    (B, k)·(k, k) product, without BLAS.  The window's first node whose
    best delta exceeds its slack is moved, and the next window starts at
    the node after it, so every node is evaluated against exactly the
    counts a one-node-at-a-time loop would show it.  Each node's deltas do
    not depend on the other nodes of its window, so the moves, the
    objectives logged and the result are that loop's, bit for bit,
    whatever the BLAS thread count.

    Returns the updated membership and a log of applied moves with the
    objective after each one.
    """
    membership, moves, _ = _reassign(graph, membership, counts, config)
    return membership, moves


def _reassign(graph: Graph, membership: Membership, counts: np.ndarray,
              config: ReassignConfig | None
              ) -> tuple[Membership, list[ReassignMove], np.ndarray]:
    """``reassignment``, also returning the edge counts of the final
    membership, which the moves keep up to date."""
    config = config or ReassignConfig()
    if membership.n != graph.node_count:
        raise ParameterError("membership length must match graph order")
    counts = np.array(counts, dtype=np.int64)
    k = membership.k
    if counts.shape != (k, k):
        raise ParameterError(f"counts must be {k}x{k}")
    if np.any(counts != counts.T):
        raise ParameterError("counts must be symmetric")
    if int(counts.sum()) != 2 * graph.edge_count:
        raise ParameterError("counts must sum to twice the edge count")

    assign = membership.assign.copy()
    sizes = membership.sizes.copy()
    rng = make_generator(config.seed)
    n = graph.node_count
    moves: list[ReassignMove] = []

    for _ in range(config.rounds):
        sampled = rng.choice(n, size=min(config.samples_per_round, n),
                             replace=False)
        pos = 0
        while pos < len(sampled):
            window = sampled[pos:pos + _WINDOW_NODES]
            # Nodes alone in their group stay put.
            live = np.flatnonzero(sizes[assign[window]] > 1)
            nodes = window[live]
            nbr = _neighbor_counts(graph, assign, nodes, k)
            deltas, slack = _move_deltas(counts, sizes, nbr, assign[nodes])
            movers = np.flatnonzero(deltas.max(axis=1) > slack)
            if len(movers) == 0:
                pos += len(window)
                continue
            # The first mover saw the counts the one-node-at-a-time loop
            # would show it; the nodes after it are evaluated again.
            first = movers[0]
            pos += int(live[first]) + 1
            node, row = int(nodes[first]), nbr[first]
            a, b = int(assign[node]), int(np.argmax(deltas[first]))
            counts[a, :] -= row
            counts[:, a] -= row
            counts[b, :] += row
            counts[:, b] += row
            sizes[a] -= 1
            sizes[b] += 1
            assign[node] = b
            moves.append(ReassignMove(node, a, b,
                                      _objective_from_counts(counts, sizes)))
    return Membership(assign, k), moves, counts


@contextmanager
def _timed(seconds: dict[str, float], phase: str) -> Iterator[None]:
    """Record the wall time of the ``with`` block as ``seconds[phase]``:
    the one definition of every phase time a run reports."""
    start = time.perf_counter()
    yield
    seconds[phase] = time.perf_counter() - start


@dataclass(frozen=True)
class SummaryReport:
    objective: float
    loss: float
    k: int
    d: int
    relax_method: str
    reassign_moves: int
    seconds: dict[str, float]
    # The caller's "master" seed and the "relax", "cluster" and "reassign"
    # seeds derived from it.
    seeds: dict[str, int | None]
    # How k-means ended, in plain JSON types (see kmeans._minibatch_kmeans).
    cluster: dict[str, int | float | str]


def specsumm(graph: Graph, k: int, d: int | None = None,
             relax_method: str = "lm-eigvecs",
             reassign: ReassignConfig | None = None,
             seed: int | None = None) -> tuple[Summary, SummaryReport]:
    """Full pipeline: spectral embedding, clustering, optional refinement.

    The embedding is either the top-|magnitude| eigenvectors (lm-eigvecs)
    or an orthonormality-constrained ascent from a random start
    (ocsa-random).  Rows are clustered into k groups by mini-batch k-means,
    then refined by ``reassign.rounds`` reassignment rounds (none when
    ``reassign`` is None).  One master seed derives every phase seed (a
    seed set in ``reassign`` is replaced), so equal seeds reproduce results
    exactly.
    """
    n = graph.node_count
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range for n={n}")
    d = k if d is None else d
    if not 1 <= d <= n:
        raise ParameterError(f"d={d} out of range for n={n}")
    if relax_method not in ("lm-eigvecs", "ocsa-random"):
        raise ParameterError(f"unknown relax method {relax_method!r}")

    relax_seed, cluster_seed, reassign_seed = derive_seeds(seed, 3)
    seconds: dict[str, float] = {}

    with _timed(seconds, "relax"):
        if relax_method == "lm-eigvecs":
            embedding = lm_eigs(graph, d, seed=relax_seed).vectors
        else:
            start = random_orthonormal_init(n, d, relax_seed)
            embedding, _ = ocsa(graph, start)

    with _timed(seconds, "cluster"):
        assign, _, _, cluster = _minibatch_kmeans(
            embedding, k, KmeansConfig(seed=cluster_seed))
        membership = Membership(assign, k)

    with _timed(seconds, "reassign"):
        # The moves keep the counts current, so they are taken only once.
        membership, moves, counts = _reassign(
            graph, membership, supernode_edge_counts(graph, membership),
            replace(reassign or ReassignConfig(rounds=0), seed=reassign_seed))

    with _timed(seconds, "summary"):
        summary, objective, loss = _summarize_counts(graph, membership, counts)

    report = SummaryReport(objective=objective, loss=loss, k=k, d=d,
                           relax_method=relax_method,
                           reassign_moves=len(moves), seconds=seconds,
                           seeds={"master": seed, "relax": relax_seed,
                                  "cluster": cluster_seed,
                                  "reassign": reassign_seed},
                           cluster=cluster)
    return summary, report
