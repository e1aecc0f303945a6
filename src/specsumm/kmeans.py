"""Mini-batch k-means over embedding rows.

Sculley-style running-mean updates with kmeans++ seeding.  The output
never leaves a cluster empty (downstream summaries need every group
inhabited) and never costs more than the seeding it started from.

Points are taken as one row-major float64 array whatever layout the
caller passes, so every distance sums its d squares in one order and the
results do not depend on the input's memory order.  Nearest-centroid
search is screened: one GEMM gives every squared distance as
‖x‖² − 2x·c + ‖c‖², one slack per row bounds its forward error against
every centroid, and only rows where that bound cannot name a single
winner are recomputed in the exact difference form Σ(x − c)² that
kmeans++, the fits and the cost use.  The result is the exact argmin bit
for bit, whatever the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import make_generator

__all__ = ["KmeansConfig", "kmeanspp_init", "minibatch_kmeans", "kmeans_cost"]


@dataclass(frozen=True)
class KmeansConfig:
    """Seed of the kmeans++ draws and of the _MAX_ITERATIONS batches of
    _BATCH_SIZE points, drawn with replacement, that every run takes."""

    seed: int | None = None


_BATCH_SIZE = 1024
_MAX_ITERATIONS = 100


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must be finite")
    return np.ascontiguousarray(pts)


# Rows per screened block of _nearest, and per block of
# _assigned_sq_dists: the GEMM screen's temporaries stay at
# _SCREEN_BLOCK * k floats and the differences at _SCREEN_BLOCK * d.
_SCREEN_BLOCK = 1024

# The GEMM form and the difference form each lie within γ_{d+2}·(‖x‖ + ‖c‖)²
# of the true squared distance for any summation order, FMA or not (Higham,
# "Accuracy and Stability of Numerical Algorithms", §3.1), so their gap is
# at most 2γ_{d+2}·(‖x‖ + ‖c‖)².  The slack 4γ_{d+4}·(‖x‖ + max‖c‖)² bounds
# that gap for every centroid of a row and leaves room for the rounding of
# the norms and of the screen itself; the smallest normal float on top
# covers products that underflow.
_SLACK_FACTOR = 4.0
_UNIT_ROUNDOFF = 2.0 ** -53


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row's argmin of its exact distances Σ(x − c)², bit for bit.

    Each block of rows gets approximate distances from one GEMM,
    ‖x‖² − 2x·cᵀ + ‖c‖², and each row one slack s_i that bounds their gap
    to the exact ones in every column.  A row is settled by its approximate
    argmin b when column b is its only candidate, that is, the only j with
    approx_ij − s_i ≤ approx_ib + s_i: every other column is then provably
    farther.  Rows with another count of candidates (exact or near ties;
    overflow or NaN, which give none or all k) are re-solved alone, one
    ``_assigned_sq_dists`` column per centroid, and argmin'd, so ties
    still go to the lowest index.
    """
    m = (points.shape[1] + 4) * _UNIT_ROUNDOFF
    scale = _SLACK_FACTOR * m / (1.0 - m)
    tiny = np.finfo(np.float64).tiny
    cent_sq = np.einsum("kd,kd->k", centroids, centroids)
    cent_max = np.sqrt(cent_sq.max())
    nearest = np.empty(len(points), dtype=np.int64)
    ties = []
    for start in range(0, len(points), _SCREEN_BLOCK):
        rows = points[start:start + _SCREEN_BLOCK]
        row_sq = np.einsum("nd,nd->n", rows, rows)
        # Overflow and inf - inf only ever widen or void the candidate
        # test, which sends the row to the exact recomputation.
        with np.errstate(over="ignore", invalid="ignore"):
            approx = row_sq[:, None] - 2.0 * (rows @ centroids.T) + cent_sq
            best = np.argmin(approx, axis=1)
            slack = scale * (np.sqrt(row_sq) + cent_max) ** 2 + tiny
            upper = approx[np.arange(len(rows)), best] + slack
            candidate = approx - slack[:, None] <= upper[:, None]
        nearest[start:start + len(rows)] = best
        ties.append(start + np.flatnonzero(
            np.count_nonzero(candidate, axis=1) != 1))
    ties = np.concatenate(ties)
    # Most calls tie no row; k column calls on zero rows would add about a
    # third to the screen of a 1024-row batch at k = 40.
    if len(ties):
        tied = points[ties]
        nearest[ties] = np.argmin(np.column_stack(
            [_assigned_sq_dists(tied, c) for c in centroids]), axis=1)
    return nearest


def _assigned_sq_dists(points: np.ndarray, centroids: np.ndarray,
                       assign: np.ndarray | None = None) -> np.ndarray:
    """Entry (i, assign[i]) of the exact distances Σ(x − c)², taken in row
    blocks so the differences stay at _SCREEN_BLOCK rows.  Without
    ``assign``, centroids is one row that every point is measured against
    by broadcasting, with the same bits as an all-zero assignment."""
    out = np.empty(len(points))
    for start in range(0, len(points), _SCREEN_BLOCK):
        rows = slice(start, start + _SCREEN_BLOCK)
        diff = points[rows] - (centroids if assign is None
                               else centroids[assign[rows]])
        out[rows] = np.einsum("nd,nd->n", diff, diff)
    return out


def _update_batch(centroids: np.ndarray, counts: np.ndarray,
                  batch: np.ndarray, nearest: np.ndarray) -> None:
    """Sculley's update of a batch, in closed form.

    A centroid c that has absorbed ``count`` samples and is nearest to h
    batch rows moves to c + (Σ rows − h·c)/(count + h): in exact
    arithmetic, the running mean that h one-sample steps of rate
    1/(samples absorbed so far) reach.  One flat ``bincount`` sums each
    cluster's rows in batch order, without BLAS, so the bits do not depend
    on the thread count.  Updates both arrays in place.
    """
    k, d = centroids.shape
    hits = np.bincount(nearest, minlength=k)
    slots = (nearest * d)[:, None] + np.arange(d)
    sums = np.bincount(slots.ravel(), weights=batch.ravel(),
                       minlength=k * d).reshape(k, d)
    counts += hits
    hit = np.flatnonzero(hits)
    centroids[hit] += ((sums[hit] - hits[hit, None] * centroids[hit])
                       / counts[hit, None])


def _kmeanspp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    best = _assigned_sq_dists(points, points[chosen[:1]])
    for j in range(1, k):
        total = best.sum()
        if total > 0:
            idx = rng.choice(n, p=best / total)
        else:
            # All residual distances vanish (duplicate-heavy input):
            # fall back to a uniform draw.
            idx = rng.integers(n)
        chosen[j] = idx
        np.minimum(best, _assigned_sq_dists(points, points[[idx]]),
                   out=best)
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
    never increase the clustering cost.  Every pass is one screened
    ``_nearest`` search; the cost and the fits are each point's exact
    ``_assigned_sq_dists`` distance to its own centroid.
    """
    k = len(centroids)
    centroids = centroids.copy()
    pins: dict[int, int] = {}
    for _ in range(len(points) + k):
        assign = _nearest(points, centroids)
        for point, cluster in pins.items():
            assign[point] = cluster
        fit = _assigned_sq_dists(points, centroids, assign)
        occupancy = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(occupancy == 0)
        if len(empties) == 0:
            return assign, centroids, float(fit.sum())
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
    moves each hit centroid to the running mean of every sample it has
    absorbed, the batch's in one closed-form step (``_update_batch``).  Every
    nearest-centroid search, per batch and in the final passes, is the
    GEMM screen of ``_nearest`` with its exact fallback, so it returns the
    argmin of the exact distances.  A final full pass defines the returned
    assignment; if the streamed centroids ended up worse than the kmeans++
    seeding, the seeding wins.

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
    for _ in range(_MAX_ITERATIONS):
        batch_idx = rng.integers(0, n, size=_BATCH_SIZE)
        batch = pts[batch_idx]
        _update_batch(centroids, counts, batch, _nearest(batch, centroids))

    trained = _assign_with_repair(pts, centroids)
    seeded = _assign_with_repair(pts, initial)
    return trained if trained[2] <= seeded[2] else seeded


def kmeans_cost(points: np.ndarray, centroids: np.ndarray,
                assignment: np.ndarray) -> float:
    """Sum of squared distances from each point to its assigned centroid,
    taken as ``minibatch_kmeans`` takes the cost it returns, bit for bit."""
    pts = _as_points(points)
    cents = _as_points(centroids)
    assign = np.asarray(assignment, dtype=np.int64)
    if assign.shape != (len(pts),):
        raise ParameterError("assignment length must match point count")
    if assign.size and (assign.min() < 0 or assign.max() >= len(cents)):
        raise IndexError("assignment index out of range")
    return float(_assigned_sq_dists(pts, cents, assign).sum())
