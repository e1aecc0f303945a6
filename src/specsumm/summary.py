"""Graph summaries: grouped adjacency densities and the quality objective.

A summary compresses a graph into k supernodes.  Its quality is the trace
objective F (sum over supernode pairs of squared edge counts over size
products); the squared reconstruction error of the lifted adjacency equals
2m - F, so maximizing F and minimizing the error are the same problem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .graph import Graph, adjacency_trace_sq
from .kmeans import KmeansConfig, minibatch_kmeans
from .rng import derive_seeds, make_generator
from .spectral import lm_eigs
from .stiefel import ocsa, random_orthonormal_init

__all__ = ["Membership", "Summary", "ReassignConfig", "ReassignMove",
           "SummaryReport", "supernode_edge_counts", "objective_integer",
           "membership_to_normalized", "build_summary", "lifted_entry",
           "l2_loss", "reassignment", "specsumm"]


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
        assign = np.array(self.assign, dtype=np.int64)
        if assign.ndim != 1 or assign.size == 0:
            raise ParameterError("assignment must be a non-empty 1-d array")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
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
    entries are twice the intra-group edge count, and E sums to 2m.
    """
    if membership.n != graph.node_count:
        raise ParameterError("membership length must match graph order")
    k = membership.k
    pairs = graph.edge_pairs()
    a = membership.assign
    flat = np.bincount(a[pairs[:, 0]] * k + a[pairs[:, 1]], minlength=k * k)
    counts = flat.reshape(k, k)
    return np.ascontiguousarray(counts + counts.T, dtype=np.int64)


def _objective_from_counts(counts: np.ndarray, sizes: np.ndarray) -> float:
    outer = sizes.astype(np.float64)[:, None] * sizes.astype(np.float64)[None, :]
    sq = counts.astype(np.float64) ** 2
    return float(np.sum(sq / outer))


def objective_integer(graph: Graph, membership: Membership) -> float:
    """Trace objective F = sum_ij E_ij^2 / (n_i n_j), from exact counts."""
    counts = supernode_edge_counts(graph, membership)
    return _objective_from_counts(counts, membership.sizes)


def membership_to_normalized(membership: Membership) -> np.ndarray:
    """Column-orthonormal indicator matrix: entry (u, i) is 1/sqrt(n_i)
    when node u belongs to group i, else 0."""
    sizes = membership.sizes
    if sizes.min() == 0:  # unreachable with a validated Membership
        raise ParameterError("empty supernode")
    z = np.zeros((membership.n, membership.k))
    z[np.arange(membership.n), membership.assign] = 1.0 / np.sqrt(
        sizes[membership.assign])
    return z


def _summary_from_counts(membership: Membership, counts: np.ndarray) -> Summary:
    sizes = membership.sizes.astype(np.float64)
    return Summary(membership, counts / (sizes[:, None] * sizes[None, :]))


def build_summary(graph: Graph, membership: Membership) -> Summary:
    """Summary whose densities are exact edge counts over size products."""
    return _summary_from_counts(membership,
                                supernode_edge_counts(graph, membership))


def lifted_entry(summary: Summary, u: int, v: int) -> float:
    """Entry (u, v) of the reconstructed adjacency: the density between the
    groups of u and v (self-pairs included)."""
    n = summary.membership.n
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError("node index out of range")
    a = summary.membership.assign
    return float(summary.density[a[u], a[v]])


def l2_loss(graph: Graph, summary: Summary) -> float:
    """Squared Frobenius error of the lifted adjacency, as 2m - F.

    The identity is exact for count-based densities, so no dense
    reconstruction is ever materialized here.
    """
    if summary.membership.n != graph.node_count:
        raise ParameterError("summary does not match graph order")
    return adjacency_trace_sq(graph) - objective_integer(graph,
                                                         summary.membership)


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


def _move_deltas(counts: np.ndarray, sizes: np.ndarray, nbr: np.ndarray,
                 a: int) -> np.ndarray:
    """Change in F when one node moves from group a to each group b.

    nbr[j] counts the node's neighbors currently in group j.  Only the rows
    and columns of a and b change, so each delta is the difference of those
    bands before and after.  All k targets are evaluated at once: row b of
    the (k, k) arrays holds target b's band, with the same elementwise
    arithmetic and the same per-row sums as evaluating b alone.  Entry a
    (staying put) is -inf.
    """
    k = len(sizes)
    diag = np.arange(k)
    fs = sizes.astype(np.float64)
    rows = counts.astype(np.float64)
    row_a = rows[a]
    old = (2.0 * np.sum(row_a**2 / fs) / fs[a]
           + 2.0 * np.sum(rows**2 / fs, axis=1) / fs
           - (row_a[a]**2 / fs[a]**2 + rows[diag, diag]**2 / fs**2
              + 2.0 * row_a**2 / (fs[a] * fs)))

    # Row b of new_a/new_b/ns: group a's row, target b's row and the sizes
    # after the move to b.
    new_a = np.broadcast_to(row_a - nbr, (k, k)).copy()
    new_a[:, a] = row_a[a] - 2.0 * nbr[a]
    new_a[diag, diag] = row_a - nbr + nbr[a]
    new_b = rows + nbr
    new_b[diag, diag] = rows[diag, diag] + 2.0 * nbr
    new_b[:, a] = new_a[diag, diag]
    ns_a = fs[a] - 1.0
    ns_b = fs + 1.0
    ns = np.broadcast_to(fs, (k, k)).copy()
    ns[:, a] = ns_a
    ns[diag, diag] = ns_b
    new = (2.0 * np.sum(new_a**2 / ns, axis=1) / ns_a
           + 2.0 * np.sum(new_b**2 / ns, axis=1) / ns_b
           - (new_a[:, a]**2 / ns_a**2 + new_b[diag, diag]**2 / ns_b**2
              + 2.0 * new_a[diag, diag]**2 / (ns_a * ns_b)))
    deltas = new - old
    deltas[a] = -np.inf
    return deltas


def reassignment(graph: Graph, membership: Membership, counts: np.ndarray,
                 config: ReassignConfig | None = None
                 ) -> tuple[Membership, list[ReassignMove]]:
    """Greedy node moves that strictly increase the trace objective.

    Each round samples nodes without replacement and, for every sampled
    node, evaluates moving it to every other supernode at once: one (k, k)
    array evaluation of the row/column band deltas, O(k^2) per node.  The
    best strictly improving move (ties to the lowest target index) is
    applied by updating the integer count matrix in place; the
    objective is then recomputed exactly from the counts.  Moves that would
    empty a supernode are skipped.

    Returns the updated membership and a log of applied moves with the
    objective after each one.
    """
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
        for node in sampled:
            a = int(assign[node])
            if sizes[a] == 1:
                continue
            nbr = np.bincount(assign[graph.neighbors(node)], minlength=k)
            deltas = _move_deltas(counts, sizes, nbr, a)
            b = int(np.argmax(deltas))
            if deltas[b] <= 0.0:
                continue
            counts[a, :] -= nbr
            counts[:, a] -= nbr
            counts[b, :] += nbr
            counts[:, b] += nbr
            sizes[a] -= 1
            sizes[b] += 1
            assign[node] = b
            moves.append(ReassignMove(int(node), a, b,
                                      _objective_from_counts(counts, sizes)))
    return Membership(assign, k), moves


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


def specsumm(graph: Graph, k: int, d: int | None = None,
             relax_method: str = "lm-eigvecs",
             reassign: ReassignConfig | None = None,
             seed: int | None = None) -> tuple[Summary, SummaryReport]:
    """Full pipeline: spectral embedding, clustering, optional refinement.

    The embedding is either the top-|magnitude| eigenvectors (lm-eigvecs)
    or an orthonormality-constrained ascent from a random start
    (ocsa-random).  Rows are clustered into k groups by mini-batch k-means,
    then refined by reassignment rounds when a config is given.  One master
    seed derives every phase seed (a seed set in ``reassign`` is replaced),
    so equal seeds reproduce results exactly.
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

    t0 = time.perf_counter()
    if relax_method == "lm-eigvecs":
        embedding = lm_eigs(graph, d, seed=relax_seed).vectors
    else:
        start = random_orthonormal_init(n, d, relax_seed)
        embedding, _ = ocsa(graph, start)
    seconds["relax"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assign, _, _ = minibatch_kmeans(embedding, k,
                                    KmeansConfig(seed=cluster_seed))
    membership = Membership(assign, k)
    seconds["cluster"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    moves: list[ReassignMove] = []
    if reassign is not None:
        counts = supernode_edge_counts(graph, membership)
        membership, moves = reassignment(
            graph, membership, counts, replace(reassign, seed=reassign_seed))
    seconds["reassign"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    counts = supernode_edge_counts(graph, membership)
    summary = _summary_from_counts(membership, counts)
    objective = _objective_from_counts(counts, membership.sizes)
    loss = adjacency_trace_sq(graph) - objective
    seconds["summary"] = time.perf_counter() - t0

    report = SummaryReport(objective=objective, loss=loss, k=k, d=d,
                           relax_method=relax_method,
                           reassign_moves=len(moves), seconds=seconds,
                           seeds={"master": seed, "relax": relax_seed,
                                  "cluster": cluster_seed,
                                  "reassign": reassign_seed})
    return summary, report
