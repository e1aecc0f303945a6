"""Independent oracles used across the test suite.

Everything here recomputes quantities the package produces, but by a
different route: dense matrices, brute-force enumeration, or literal
definition sums.  Slow on purpose; kept well away from production code.
The k-means references measure through ``sq_dists``, the full distance
matrix, which the package never builds: it takes one column at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np

from specsumm import (AscentTrace, EigenBasis, Graph, KmeansConfig,
                      Membership, OcsaConfig, ParameterError, ReassignConfig,
                      ReassignMove, SkewDirection, Summary, gradient, kmeans,
                      skew_direction, stiefel, trace_objective_relaxed)
from specsumm.graph import _PLAIN_BYTES, _PLAIN_DIGITS, _from_pairs
from specsumm.queries import _pair_matrix
from specsumm.rng import make_generator
from specsumm.spectral import _dense_basis
from specsumm.stiefel import CayleyStepError
from specsumm.summary import _move_deltas, _objective_from_counts

_ORACLE_LIMIT = 1500
_DENSE_ORACLE_LIMIT = 512


def dense_eig_oracle(graph: Graph) -> EigenBasis:
    """Full dense eigendecomposition, for cross-checking the sparse path.

    Refuses graphs with more than 512 nodes.
    """
    if graph.node_count > _DENSE_ORACLE_LIMIT:
        raise ParameterError(f"dense oracle refused: n={graph.node_count} "
                             f"exceeds {_DENSE_ORACLE_LIMIT}")
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


def trace_objective_split(graph: Graph, Z: np.ndarray) -> tuple[float, float]:
    """Diagonal/off-diagonal split of F(Z).

    Returns (t1, t2): t1 sums the squared diagonal of ZᵀAZ (per-column
    self terms), t2 the squared off-diagonal cross terms; t1 + t2 = F(Z).
    """
    M = Z.T @ graph.adjacency_matmat(Z)
    diag = np.diag(M)
    t1 = float(np.sum(diag * diag))
    return t1, float(np.sum(M * M) - t1)


def membership_to_normalized(membership: Membership) -> np.ndarray:
    """Column-orthonormal indicator matrix: entry (u, i) is 1/sqrt(n_i)
    when node u belongs to group i, else 0.  F(Z) of this Z is the integer
    objective of the membership."""
    z = np.zeros((membership.n, membership.k))
    z[np.arange(membership.n), membership.assign] = 1.0 / np.sqrt(
        membership.sizes[membership.assign])
    return z


def skew_apply(W: SkewDirection, x: np.ndarray) -> np.ndarray:
    """W·x = left·(rightᵀ·x) − right·(leftᵀ·x), without forming W."""
    return W.left @ (W.right.T @ x) - W.right @ (W.left.T @ x)


def direction_slope_reference(Z: np.ndarray, G: np.ndarray
                              ) -> tuple[float, float]:
    """‖−W·Z‖ and ⟨G, −W·Z⟩ for W = Z·Gᵀ − G·Zᵀ, from the direction lifted
    to n×k: the norm and slope the Armijo search tests."""
    direction = -skew_apply(skew_direction(Z, G), Z)
    return float(np.linalg.norm(direction)), float(np.vdot(G, direction))


def skew_dense(W: SkewDirection) -> np.ndarray:
    """The n×n matrix W = left·rightᵀ − right·leftᵀ."""
    return W.left @ W.right.T - W.right @ W.left.T


def canonicalize_reference(pairs: np.ndarray) -> np.ndarray:
    """Unique undirected pairs in (min, max) form, lexicographically sorted,
    by a row-wise ``np.unique``."""
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(np.column_stack([lo, hi]), axis=0)


def graph_from_canonical_reference(n: int, pairs: np.ndarray) -> Graph:
    """CSR from unique (u < v) pairs by a two-key ``lexsort`` of both
    orientations."""
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return Graph(node_count=n, edge_count=len(pairs),
                 indptr=indptr, indices=dst.astype(np.int64))


def relabeled_graph_reference(pairs: np.ndarray) -> tuple[Graph, np.ndarray]:
    """``load_edge_list``'s graph and ids from its (u, v) pairs, self-loops
    included: canonical pairs first, then ids by ``searchsorted``."""
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    canonical = canonicalize_reference(pairs)
    ids = np.unique(canonical)
    dense = np.searchsorted(ids, canonical)
    return graph_from_canonical_reference(len(ids), dense), ids


def scan_ids_reference(data: bytes) -> np.ndarray | None:
    """``graph._scan_ids`` by one ``reduceat`` per gap for the line check
    and one Python ``bytes`` object per token for the conversion."""
    if data.translate(None, _PLAIN_BYTES):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # Token j spans [bounds[2j], bounds[2j + 1]).
    bounds = np.flatnonzero(np.diff(buf >= ord("0"), prepend=False,
                                    append=False))
    lengths = bounds[1::2] - bounds[0::2]
    if len(lengths) % 2 or np.max(lengths, initial=0) > _PLAIN_DIGITS:
        return None
    if len(lengths):
        # Per gap between consecutive tokens, whether it breaks the line:
        # the gap inside a pair must not, the gap after a pair must.
        is_break = (buf == ord("\n")) | (buf == ord("\r"))
        breaks = np.logical_or.reduceat(is_break, bounds[1:-1])[0::2]
        if breaks[0::2].any() or not breaks[1::2].all():
            return None
    return np.array(data.split(), dtype=np.int64)


def relabeled_unique_reference(ids: np.ndarray) -> tuple[Graph, np.ndarray]:
    """``graph._relabeled`` with every relabel by ``np.unique``."""
    u, v = ids[0::2], ids[1::2]
    keep = u != v
    u, v = u[keep], v[keep]
    original_ids, dense = np.unique(np.concatenate([u, v]),
                                    return_inverse=True)
    return _from_pairs(len(original_ids), dense[:len(u)],
                       dense[len(u):]), original_ids


def generate_sbm_reference(blocks: int, block_size: int, p_in: float,
                           p_out: float, seed: int | None
                           ) -> tuple[Graph, Membership]:
    """``generate_sbm`` with every pair of ``np.triu_indices`` and its
    uniform draw made at once (O(n²) memory)."""
    n = blocks * block_size
    iu, ju = np.triu_indices(n, k=1)
    same = (iu // block_size) == (ju // block_size)
    thresholds = np.where(same, p_in, p_out)
    draws = make_generator(seed).random(len(iu))
    keep = draws < thresholds
    graph = graph_from_canonical_reference(
        n, np.column_stack([iu[keep], ju[keep]]))
    planted = Membership(np.arange(n, dtype=np.int64) // block_size, blocks)
    return graph, planted


def dense_lifted(summary: Summary) -> np.ndarray:
    """The full n×n reconstruction, one density lookup per node pair."""
    a = summary.membership.assign
    return summary.density[np.ix_(a, a)]


def edge_counts_dense(graph: Graph, membership: Membership) -> np.ndarray:
    """Supernode edge counts as HᵀAH, with H the n×k one-hot membership
    matrix and A the dense adjacency, in exact integer arithmetic."""
    h = np.zeros((membership.n, membership.k), dtype=np.int64)
    h[np.arange(membership.n), membership.assign] = 1
    return h.T @ graph.to_dense().astype(np.int64) @ h


def dense_l2_loss(graph: Graph, summary: Summary) -> float:
    """Literal double sum of squared reconstruction errors over all ordered
    node pairs (diagonal included)."""
    diff = graph.to_dense() - dense_lifted(summary)
    return float(np.sum(diff * diff))


def fd_gradient(graph: Graph, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the trace objective, entry by entry."""
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
    at a time: the reference that ``summary._move_deltas`` must lie within
    its rounding slack of.

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


def reassign_reference(graph: Graph, membership: Membership,
                       counts: np.ndarray, config: ReassignConfig):
    """``summary._reassign`` one sampled node at a time: each node's
    neighbor counts from its own bincount, and its deltas and slack from
    ``summary._move_deltas`` on that one row; the node moves to its best
    target when that delta exceeds the slack.  Returns (assign, moves,
    counts, sizes)."""
    counts = np.array(counts, dtype=np.int64)
    assign = membership.assign.copy()
    sizes = membership.sizes.copy()
    k = membership.k
    rng = make_generator(config.seed)
    n = graph.node_count
    moves = []
    for _ in range(config.rounds):
        sampled = rng.choice(n, size=min(config.samples_per_round, n),
                             replace=False)
        for node in sampled:
            a = int(assign[node])
            if sizes[a] == 1:
                continue
            nbr = np.bincount(assign[graph.neighbors(node)], minlength=k)
            deltas, slack = _move_deltas(counts, sizes, nbr[None, :],
                                         np.array([a]))
            b = int(np.argmax(deltas[0]))
            if not deltas[0, b] > slack[0]:
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
    return assign, moves, counts, sizes


def objective_exact(graph: Graph, membership: Membership) -> Fraction:
    """F = Σ E_ij²/(n_i·n_j) in exact rational arithmetic, from the counts
    of ``edge_counts_dense``."""
    counts = edge_counts_dense(graph, membership).tolist()
    sizes = membership.sizes.tolist()
    return sum((Fraction(e * e, sizes[i] * sizes[j])
                for i, row in enumerate(counts) for j, e in enumerate(row)),
               Fraction(0))


def minibatch_replay(centroids: np.ndarray, counts: np.ndarray,
                     batch: np.ndarray, nearest: np.ndarray) -> None:
    """Sculley's streaming update, one sample at a time in batch order:
    each hit centroid moves toward the sample with learning rate
    1/(samples it has absorbed so far).  Updates both arrays in place."""
    for sample, cluster in zip(batch, nearest):
        counts[cluster] += 1
        centroids[cluster] += (sample - centroids[cluster]) / counts[cluster]


def minibatch_running_mean(centroids: np.ndarray, counts: np.ndarray,
                           batch: np.ndarray, nearest: np.ndarray) -> None:
    """The batch's running-mean update, one cluster at a time: each hit
    cluster's members are summed row by row in batch order, and its
    centroid c with h hits moves to c + (sum − h·c)/(count + h).  Updates
    both arrays in place."""
    for cluster in np.unique(nearest):
        members = batch[nearest == cluster]
        total = np.zeros(batch.shape[1])
        for row in members:
            total += row
        hits = len(members)
        counts[cluster] += hits
        centroids[cluster] += ((total - hits * centroids[cluster])
                               / counts[cluster])


# Rows per block of sq_dists: the difference tensor stays at
# DIST_BLOCK * k * d floats however many points there are.
DIST_BLOCK = 128


def sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (n, k), taken in row blocks;
    each entry is the same d-term sum as the unblocked einsum."""
    out = np.empty((len(points), len(centroids)))
    for start in range(0, len(points), DIST_BLOCK):
        diff = (points[start:start + DIST_BLOCK, None, :]
                - centroids[None, :, :])
        out[start:start + DIST_BLOCK] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def kmeanspp_reference(points: np.ndarray, k: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Greedy kmeans++ read off full exact distance matrices, with no
    screen: each point's D² is its row minimum of ``sq_dists`` to every
    centroid chosen so far, each of the 2 + ⌊ln k⌋ D²-weighted draws is
    scored by its potential Σ min(D², its ``sq_dists`` column), and the
    first draw with the lowest potential is kept.  When every D² is zero
    one uniform draw is kept."""
    n = len(points)
    trials = 2 + int(math.log(k))
    chosen = [rng.integers(n)]
    for _ in range(1, k):
        best = np.min(sq_dists(points, points[chosen]), axis=1)
        total = best.sum()
        drawn = (rng.choice(n, size=trials, p=best / total) if total > 0
                 else rng.integers(n, size=1))
        columns = sq_dists(points, points[drawn])
        potentials = [np.minimum(best, columns[:, t]).sum()
                      for t in range(len(drawn))]
        chosen.append(drawn[int(np.argmin(potentials))])
    return points[chosen].copy()


def assign_with_repair_reference(points: np.ndarray, centroids: np.ndarray
                                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """Nearest-centroid assignment with empty-cluster repair, each pass
    built on the full exact distance matrix ``sq_dists``: the lowest-index
    empty centroid moves onto the worst-fit unpinned point, which is pinned
    there."""
    k = len(centroids)
    centroids = centroids.copy()
    pins: dict[int, int] = {}
    for _ in range(len(points) + k):
        dists = sq_dists(points, centroids)
        assign = np.argmin(dists, axis=1)
        for point, cluster in pins.items():
            assign[point] = cluster
        occupancy = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(occupancy == 0)
        if len(empties) == 0:
            cost = float(dists[np.arange(len(points)), assign].sum())
            return assign.astype(np.int64), centroids, cost
        fit = dists[np.arange(len(points)), assign].copy()
        if pins:
            fit[list(pins)] = -1.0
        worst = int(np.argmax(fit))
        empty = int(empties[0])
        centroids[empty] = points[worst]
        pins[worst] = empty
    raise RuntimeError("empty-cluster repair failed to terminate")


def minibatch_kmeans_reference(
        points: np.ndarray, k: int, config: KmeansConfig
        ) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Mini-batch k-means on the row-major copy of the points, seeded by
    ``kmeanspp_reference`` on every row, or, above max(_SEED_ROWS, k) rows,
    on the sorted uniform subsample of that many that the generator draws
    first.  Every batch is assigned by the argmin of the full exact
    distance matrix, its cost is the mean of those minima, and it is
    updated by ``minibatch_running_mean``.  The loop ends after
    _MAX_ITERATIONS batches, or at the first batch whose last _PATIENCE
    smoothed costs all lie at or above the lowest one before them.  The
    final pass of the trained centroids goes through
    ``assign_with_repair_reference``.  The package's constants are read at
    call time.  Returns the result and the batches run."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = len(points)
    rng = make_generator(config.seed)
    rows = max(kmeans._SEED_ROWS, k)
    sample = (points[np.sort(rng.choice(n, rows, replace=False))]
              if n > rows else points)
    centroids = kmeanspp_reference(sample, k, rng)
    counts = np.zeros(k, dtype=np.int64)
    alpha = min(1.0, 2.0 * kmeans._BATCH_SIZE / (n + 1))
    patience = kmeans._PATIENCE
    smoothed = []
    for _ in range(kmeans._MAX_ITERATIONS):
        batch = points[rng.integers(0, n, size=kmeans._BATCH_SIZE)]
        dists = sq_dists(batch, centroids)
        nearest = np.argmin(dists, axis=1)
        cost = dists[np.arange(len(batch)), nearest].mean()
        minibatch_running_mean(centroids, counts, batch, nearest)
        smoothed.append(smoothed[-1] * (1.0 - alpha) + cost * alpha
                        if smoothed else cost)
        if (len(smoothed) > patience
                and min(smoothed[-patience:]) >= min(smoothed[:-patience])):
            break
    return (*assign_with_repair_reference(points, centroids), len(smoothed))


def triangle_triple_loop(summary: Summary) -> float:
    """Expected triangles by literally iterating node triples, in exact
    rational arithmetic on the float pair probabilities, rounded once."""
    n = summary.membership.n
    a = summary.membership.assign
    pi = [[Fraction(p) for p in row] for row in _pair_matrix(summary).tolist()]
    total = Fraction(0)
    for u, v, w in itertools.combinations(range(n), 3):
        total += pi[a[u]][a[v]] * pi[a[v]][a[w]] * pi[a[w]][a[u]]
    return float(total)


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


def cayley_step_reference(Z: np.ndarray, W: SkewDirection,
                          tau: float) -> np.ndarray:
    """Z(τ) = Z − τ·B·(I + τ/2·CᵀB)⁻¹·CᵀZ with B = [U V], C = [V −U] stacked
    as n×2k copies and CᵀB, CᵀZ taken as n-long products at every τ."""
    B = np.hstack([W.left, W.right])
    C = np.hstack([W.right, -W.left])
    S = np.eye(B.shape[1]) + (tau / 2.0) * (C.T @ B)
    try:
        coeff = np.linalg.solve(S, C.T @ Z)
    except np.linalg.LinAlgError as exc:
        raise CayleyStepError(f"singular curve system at tau={tau}") from exc
    out = Z - tau * (B @ coeff)
    if not np.all(np.isfinite(out)):
        raise CayleyStepError(f"non-finite curve point at tau={tau}")
    return out


def ocsa_reference(graph: Graph, Z0: np.ndarray,
                   config: OcsaConfig) -> tuple[np.ndarray, AscentTrace]:
    """The ascent loop with a fresh gradient (its own A·Z) every iteration
    and the curve system rebuilt from n-long products at every trial step:
    the same Armijo rule, step-size carry, stop tests and trace as
    ``ocsa``, with the package's Armijo constant, backtrack limit and
    expand ratio read at call time."""
    Z = np.array(Z0, dtype=np.float64)
    value = trace_objective_relaxed(graph, Z)
    objectives, steps, reason = [value], [], "max-iter"
    backtracks, tau0 = 0, config.initial_step
    for _ in range(config.max_iterations):
        G = gradient(graph, Z)
        W = skew_direction(Z, G)
        direction = -skew_apply(W, Z)
        g0 = float(np.vdot(G, direction))
        if (np.linalg.norm(direction) <= 1e-8 * np.linalg.norm(G)
                or g0 <= 0):
            reason = "no-ascent-step"
            break
        tau, accepted, rejected = tau0, None, 0
        for _ in range(stiefel._MAX_BACKTRACKS + 1):
            try:
                candidate = cayley_step_reference(Z, W, tau)
            except CayleyStepError:
                tau *= config.contraction
                rejected += 1
                continue
            trial = trace_objective_relaxed(graph, candidate)
            if trial >= value + stiefel._SUFFICIENT_INCREASE * tau * g0:
                accepted = candidate, trial
                break
            tau *= config.contraction
            rejected += 1
        backtracks += rejected
        if accepted is None:
            reason = "no-ascent-step"
            break
        Z, trial = accepted
        objectives.append(trial)
        steps.append(tau)
        expand = (rejected == 0
                  and trial - value >= stiefel._EXPAND_RATIO * tau * g0)
        tau0 = tau / config.contraction if expand else tau
        gain = (trial - value) / value if value > 0 else (
            np.inf if trial > 0 else 0.0)
        value = trial
        if gain <= config.relative_tolerance:
            reason = "tolerance"
            break
    return Z, AscentTrace(objectives=np.asarray(objectives),
                          step_sizes=np.asarray(steps), reason=reason,
                          backtracks=backtracks)
