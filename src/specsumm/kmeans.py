"""Mini-batch k-means over embedding rows.

Sculley-style streaming updates with kmeans++ seeding.  The output never
leaves a cluster empty (downstream summaries need every group inhabited)
and never costs more than the seeding it started from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import make_generator

__all__ = ["KmeansConfig", "kmeanspp_init", "minibatch_kmeans", "kmeans_cost"]


@dataclass(frozen=True)
class KmeansConfig:
    batch_size: int = 1024
    max_iterations: int = 100
    seed: int | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.max_iterations < 0:
            raise ParameterError("max_iterations must be >= 0")


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must be finite")
    return pts


# Rows per block of _sq_dists: the difference tensor stays at
# _DIST_BLOCK * k * d floats however many points there are.
_DIST_BLOCK = 128


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (n, k), taken in row blocks;
    each entry is the same d-term sum as the unblocked einsum."""
    out = np.empty((len(points), len(centroids)))
    for start in range(0, len(points), _DIST_BLOCK):
        diff = (points[start:start + _DIST_BLOCK, None, :]
                - centroids[None, :, :])
        out[start:start + _DIST_BLOCK] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def _replay_batch(centroids: np.ndarray, counts: np.ndarray,
                  batch: np.ndarray, nearest: np.ndarray) -> None:
    """Sculley's streaming update of a batch, in per-rank rounds.

    Round r applies the r-th hit of every cluster at once, so each centroid
    sees its own samples in batch order with learning rate 1/(samples it
    has absorbed so far): the same sequence of operations, and the same
    bits, as replaying the batch one sample at a time.  Updates both arrays
    in place.
    """
    # Position of each hit among its cluster's hits, in batch order.
    order = np.argsort(nearest, kind="stable")
    hits = np.bincount(nearest, minlength=len(centroids))
    rank = np.arange(len(order)) - (np.cumsum(hits) - hits)[nearest[order]]
    by_rank = np.argsort(rank, kind="stable")
    order, rank = order[by_rank], rank[by_rank]
    clusters = nearest[order]
    samples = batch[order]
    absorbed = (counts[clusters] + rank + 1)[:, None]
    start = 0
    for stop in np.cumsum(np.bincount(rank)):
        cl = clusters[start:stop]
        moved = centroids[cl]
        moved += (samples[start:stop] - moved) / absorbed[start:stop]
        centroids[cl] = moved
        start = stop
    counts += hits


def _kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    best = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for j in range(1, k):
        total = best.sum()
        if total > 0:
            idx = rng.choice(n, p=best / total)
        else:
            # All residual distances vanish (duplicate-heavy input):
            # fall back to a uniform draw.
            idx = rng.integers(n)
        chosen[j] = idx
        best = np.minimum(best, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


def kmeanspp_init(points: np.ndarray, k: int, seed: int | None) -> np.ndarray:
    """kmeans++ seeding: first centroid uniform, then D²-weighted draws.

    Points and the returned centroids are row-major float arrays, one
    point per row.  Deterministic per seed.
    """
    pts = _as_points(points)
    if not 1 <= k <= len(pts):
        raise ParameterError(f"k={k} out of range for n={len(pts)}")
    return _kmeanspp(pts, k, make_generator(seed))


def _assign_with_repair(points: np.ndarray, centroids: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """Nearest-centroid assignment, reseeding empty clusters until none remain.

    Each repair moves the lowest-index empty centroid onto the worst-fit
    point (largest distance to its own centroid, lowest index on ties) and
    pins that point there; pinning keeps the repaired cluster inhabited
    even when duplicate points make nearest-assignment ambiguous.  Repairs
    never increase the clustering cost.
    """
    k = len(centroids)
    centroids = centroids.copy()
    pins: dict[int, int] = {}
    for _ in range(len(points) + k):
        dists = _sq_dists(points, centroids)
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


def minibatch_kmeans(points: np.ndarray, k: int, config: KmeansConfig | None = None
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Cluster points into k groups with mini-batch updates.

    Each iteration draws a batch, assigns it to the nearest centroids, then
    moves each hit centroid toward each of its samples, in batch order,
    with learning rate 1/(samples it has absorbed so far).  The replay runs
    in per-rank rounds: round r updates every cluster's r-th hit at once,
    which gives the same bits as a one-sample-at-a-time loop.  A
    final full pass defines the returned assignment; if the streamed
    centroids ended up worse than the kmeans++ seeding, the seeding wins.

    Returns (assignment, centroids, cost); equidistant ties go to the
    lowest centroid index, and no cluster is left empty.
    """
    config = config or KmeansConfig()
    pts = _as_points(points)
    n = len(pts)
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range for n={n}")

    rng = make_generator(config.seed)
    initial = _kmeanspp(pts, k, rng)
    centroids = initial.copy()
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(config.max_iterations):
        batch_idx = rng.integers(0, n, size=config.batch_size)
        batch = pts[batch_idx]
        nearest = np.argmin(_sq_dists(batch, centroids), axis=1)
        _replay_batch(centroids, counts, batch, nearest)

    trained = _assign_with_repair(pts, centroids)
    seeded = _assign_with_repair(pts, initial)
    return trained if trained[2] <= seeded[2] else seeded


def kmeans_cost(points: np.ndarray, centroids: np.ndarray,
                assignment: np.ndarray) -> float:
    """Sum of squared distances from each point to its assigned centroid."""
    pts = _as_points(points)
    cents = _as_points(centroids)
    assign = np.asarray(assignment, dtype=np.int64)
    if assign.shape != (len(pts),):
        raise ParameterError("assignment length must match point count")
    if assign.size and (assign.min() < 0 or assign.max() >= len(cents)):
        raise IndexError("assignment index out of range")
    diff = pts - cents[assign]
    return float(np.sum(diff * diff))
