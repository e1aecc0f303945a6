"""Independent oracles used across the test suite.

Everything here recomputes quantities the package produces, but by a
different route: dense matrices, brute-force enumeration, or literal
definition sums.  Slow on purpose; kept well away from production code.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

from specsumm import (EigenBasis, Graph, Membership, ParameterError, Summary,
                      build_summary)
from specsumm.queries import _pair_matrix
from specsumm.spectral import _DENSE_LIMIT, _dense_basis

_ORACLE_LIMIT = 1500


def dense_eig_oracle(graph: Graph) -> EigenBasis:
    """Full dense eigendecomposition, for cross-checking the sparse path.

    Refuses graphs with more than 512 nodes.
    """
    if graph.node_count > _DENSE_LIMIT:
        raise ParameterError(
            f"dense oracle refused: n={graph.node_count} exceeds {_DENSE_LIMIT}")
    return _dense_basis(graph)


def triangles_triple_sum_oracle(summary: Summary) -> float:
    """Expected triangles of a summary by brute force over node triples.

    Materializes the n x n pair-probability matrix, so it refuses large
    summaries; it exists to cross-check the closed form.
    """
    n = summary.membership.n
    if n > _ORACLE_LIMIT:
        raise ParameterError(f"oracle limited to n <= {_ORACLE_LIMIT}")
    a = summary.membership.assign
    pi = _pair_matrix(summary)
    p = pi[np.ix_(a, a)]
    np.fill_diagonal(p, 0.0)
    # With a zero diagonal and symmetry, tr(P^3)/6 is exactly the sum of
    # p_uv p_vw p_wu over unordered triples of distinct nodes.
    return float(np.sum((p @ p) * p)) / 6.0


def dense_objective(graph: Graph, z: np.ndarray) -> float:
    """tr((ZᵀAZ)²) straight from the dense adjacency."""
    m = z.T @ graph.to_dense() @ z
    return float(np.trace(m @ m))


def dense_lifted(summary: Summary) -> np.ndarray:
    """The full n×n reconstruction, one density lookup per node pair."""
    a = summary.membership.assign
    return summary.density[np.ix_(a, a)]


def dense_l2_loss(graph: Graph, summary: Summary) -> float:
    """Literal double sum of squared reconstruction errors over all ordered
    node pairs (diagonal included)."""
    diff = graph.to_dense() - dense_lifted(summary)
    return float(np.sum(diff * diff))


def fd_gradient(graph: Graph, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the trace objective, entry by entry."""
    from specsumm import trace_objective_relaxed

    out = np.zeros_like(z, dtype=np.float64)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp = z.copy()
            zp[i, j] += h
            zm = z.copy()
            zm[i, j] -= h
            out[i, j] = (trace_objective_relaxed(graph, zp)
                         - trace_objective_relaxed(graph, zm)) / (2 * h)
    return out


def all_memberships(n: int, k: int):
    """Every assignment of n nodes to k labels that uses all k labels."""
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) == k:
            yield Membership(np.array(labels, dtype=np.int64), k)


def best_partition_objective(graph: Graph, k: int) -> float:
    """Exhaustive maximum of the integer objective over all k-partitions."""
    from specsumm import objective_integer

    return max(objective_integer(graph, m)
               for m in all_memberships(graph.node_count, k))


def best_single_move(graph: Graph, membership: Membership
                     ) -> tuple[float, tuple[int, int] | None]:
    """Best objective reachable by moving one node, by full recomputation.

    Returns (best objective, (node, target)) — the move is None when
    staying put is at least as good as every legal single move.
    """
    from specsumm import objective_integer

    best = objective_integer(graph, membership)
    move = None
    sizes = membership.sizes
    for node in range(membership.n):
        a = int(membership.assign[node])
        if sizes[a] == 1:
            continue
        for b in range(membership.k):
            if b == a:
                continue
            assign = membership.assign.copy()
            assign[node] = b
            value = objective_integer(graph, Membership(assign, membership.k))
            if value > best:
                best, move = value, (node, b)
    return best, move


def move_delta(counts: np.ndarray, sizes: np.ndarray, nbr: np.ndarray,
               a: int, b: int) -> float:
    """Change in F when one node moves from group a to group b, one target
    at a time (the per-target form the all-targets array evaluation must
    reproduce bit for bit).

    nbr[j] counts the node's neighbors currently in group j.  Only the rows
    and columns of a and b change, so the delta is the difference of those
    bands before and after.
    """
    fs = sizes.astype(np.float64)
    row_a = counts[a].astype(np.float64)
    row_b = counts[b].astype(np.float64)
    old = (2.0 * np.sum(row_a**2 / fs) / fs[a]
           + 2.0 * np.sum(row_b**2 / fs) / fs[b]
           - (row_a[a]**2 / fs[a]**2 + row_b[b]**2 / fs[b]**2
              + 2.0 * row_a[b]**2 / (fs[a] * fs[b])))

    new_a = row_a - nbr
    new_b = row_b + nbr
    new_a[a] = row_a[a] - 2.0 * nbr[a]
    new_a[b] = row_a[b] - nbr[b] + nbr[a]
    new_b[b] = row_b[b] + 2.0 * nbr[b]
    new_b[a] = new_a[b]
    ns = fs.copy()
    ns[a] -= 1.0
    ns[b] += 1.0
    new = (2.0 * np.sum(new_a**2 / ns) / ns[a]
           + 2.0 * np.sum(new_b**2 / ns) / ns[b]
           - (new_a[a]**2 / ns[a]**2 + new_b[b]**2 / ns[b]**2
              + 2.0 * new_a[b]**2 / (ns[a] * ns[b])))
    return new - old


def minibatch_replay(centroids: np.ndarray, counts: np.ndarray,
                     batch: np.ndarray, nearest: np.ndarray) -> None:
    """Sculley's streaming update, one sample at a time in batch order:
    each hit centroid moves toward the sample with learning rate
    1/(samples it has absorbed so far).  Updates both arrays in place."""
    for sample, cluster in zip(batch, nearest):
        counts[cluster] += 1
        centroids[cluster] += (sample - centroids[cluster]) / counts[cluster]


def triangle_triple_loop(summary: Summary) -> float:
    """Expected triangles by literally iterating node triples."""
    n = summary.membership.n
    a = summary.membership.assign
    pi = _pair_matrix(summary)
    total = 0.0
    for u, v, w in itertools.combinations(range(n), 3):
        total += pi[a[u], a[v]] * pi[a[v], a[w]] * pi[a[w], a[u]]
    return total


def triangle_count_dense(graph: Graph) -> int:
    """tr(A³)/6 on the dense adjacency."""
    a = graph.to_dense()
    return int(round(np.trace(a @ a @ a) / 6.0))


def random_graph(rng: np.random.Generator, n: int, p: float = 0.3) -> Graph:
    """Erdős–Rényi sample with at least one edge (resamples until so)."""
    while True:
        iu = np.triu_indices(n, k=1)
        mask = rng.random(len(iu[0])) < p
        edges = list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
        if edges:
            return Graph.from_edges(n, edges)


def to_networkx(graph: Graph) -> nx.Graph:
    """The same graph as a networkx graph, isolated nodes included."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.node_count))
    g.add_edges_from(graph.edge_pairs().tolist())
    return g


def random_membership(rng: np.random.Generator, n: int, k: int) -> Membership:
    """Uniform labels, patched so all k supernodes are inhabited."""
    assign = rng.integers(0, k, size=n)
    forced = rng.choice(n, size=k, replace=False)
    assign[forced] = np.arange(k)
    return Membership(assign.astype(np.int64), k)


def random_summary(rng: np.random.Generator, n: int, k: int
                   ) -> tuple[Graph, Summary]:
    graph = random_graph(rng, n)
    return graph, build_summary(graph, random_membership(rng, n, k))
