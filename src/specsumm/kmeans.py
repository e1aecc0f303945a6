"""Mini-batch k-means over embedding rows.

Greedy kmeans++ seeding, then Sculley-style running-mean updates on
batches until their smoothed cost stops falling, then one full pass of
the trained centroids.  The output never leaves a cluster empty
(downstream summaries need every group inhabited).

Points are taken as one row-major float64 array whatever layout the
caller passes, so every distance sums its d squares in one order and the
results do not depend on the input's memory order.  Nearest-centroid
search is screened: one GEMM gives every squared distance as
‖x‖² − 2x·c + ‖c‖², one slack per row bounds its forward error against
every centroid, and only rows where that bound cannot name a single
winner are recomputed in the exact difference form Σ(x − c)² that the
seeding's D², the fits, the batch costs and the final cost use.  The
seeding scores its draws by the same rule: a row whose screened distance
to a draw, minus its slack, exceeds its D² keeps that D², and every other
row takes its exact distance.  So every choice is the exact form's, bit
for bit, whatever the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import make_generator

__all__ = ["KmeansConfig", "kmeanspp_init", "minibatch_kmeans", "kmeans_cost"]


@dataclass(frozen=True)
class KmeansConfig:
    """Seed of the seeding's draws and of the batches of _BATCH_SIZE
    points, drawn with replacement: at most _MAX_ITERATIONS of them, fewer
    when the smoothed batch cost reaches a plateau first."""

    seed: int | None = None


_BATCH_SIZE = 1024
_MAX_ITERATIONS = 100
# The batch loop stops after this many batches in a row that set no new
# minimum of the smoothed batch cost (scikit-learn's max_no_improvement).
_PATIENCE = 10
# Above this many rows the seeding runs on a sorted uniform subsample of
# that many (scikit-learn's init_size); the final pass still sees every row.
_SEED_ROWS = 4 * _BATCH_SIZE


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


def _gamma(m: int) -> float:
    """Higham's γ_m = m·u/(1 − m·u), with the unit roundoff u = 2⁻⁵³ of
    float64: the relative error bound of m roundings in a row."""
    mu = m * 2.0 ** -53
    return mu / (1.0 - mu)


def _screened_sq_dists(rows: np.ndarray, row_sq: np.ndarray,
                       centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GEMM form ‖x‖² − 2x·c + ‖c‖² of every row's squared distance to
    each centroid, one centroid per row of the result, given the rows'
    ‖x‖², and each row's slack: a bound on the gap between that form and
    the exact form Σ(x − c)² to every centroid.  Overflow gives inf, and
    inf − inf NaN."""
    cent_sq = np.einsum("kd,kd->k", centroids, centroids)
    with np.errstate(over="ignore", invalid="ignore"):
        approx = cent_sq[:, None] - 2.0 * (centroids @ rows.T) + row_sq
        slack = (_SLACK_FACTOR * _gamma(rows.shape[1] + 4)
                 * (np.sqrt(row_sq) + np.sqrt(cent_sq.max())) ** 2
                 + np.finfo(np.float64).tiny)
    return approx, slack


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row's argmin of its exact distances Σ(x − c)², bit for bit.

    Each block of rows gets its screened distances and slacks s_i
    (``_screened_sq_dists``).  Row i is settled by its screened argmin b
    when centroid b is its only candidate, that is, the only j with
    approx_ji − s_i ≤ approx_bi + s_i: every other centroid is then
    provably farther.  Rows with another count of candidates (exact or
    near ties; overflow or NaN, which give none or all k) take their exact
    distance to every centroid from ``_assigned_sq_dists``, gathered over
    their (row, centroid) pairs, and the argmin of those, so ties still go
    to the lowest index.
    """
    k = len(centroids)
    nearest = np.empty(len(points), dtype=np.int64)
    ties = []
    for start in range(0, len(points), _SCREEN_BLOCK):
        rows = points[start:start + _SCREEN_BLOCK]
        approx, slack = _screened_sq_dists(
            rows, np.einsum("nd,nd->n", rows, rows), centroids)
        best = np.argmin(approx, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            upper = approx[best, np.arange(len(rows))] + slack
            candidate = approx - slack <= upper
        nearest[start:start + len(rows)] = best
        ties.append(start + np.flatnonzero(
            np.count_nonzero(candidate, axis=0) != 1))
    ties = np.concatenate(ties)
    # Each call gathers the rows of at most max(_SCREEN_BLOCK, k) pairs.
    step = max(1, _SCREEN_BLOCK // k)
    for start in range(0, len(ties), step):
        tied = ties[start:start + step]
        exact = _assigned_sq_dists(np.repeat(points[tied], k, axis=0),
                                   centroids, np.tile(np.arange(k), len(tied)))
        nearest[tied] = np.argmin(exact.reshape(-1, k), axis=1)
    return nearest


def _assigned_sq_dists(points: np.ndarray, centroids: np.ndarray,
                       assign: np.ndarray) -> np.ndarray:
    """Entry (i, assign[i]) of the exact distances Σ(x − c)², taken in row
    blocks so the differences stay at _SCREEN_BLOCK rows."""
    out = np.empty(len(points))
    for start in range(0, len(points), _SCREEN_BLOCK):
        rows = slice(start, start + _SCREEN_BLOCK)
        diff = points[rows] - centroids[assign[rows]]
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


def _best_candidate(points: np.ndarray, row_sq: np.ndarray, best: np.ndarray,
                    drawn: np.ndarray) -> tuple[int, np.ndarray]:
    """The draw with the lowest exact potential, the first such on ties,
    and D² with it added as a centroid, bit for bit as the exact form
    gives them.

    Repeated draws are scored once, each against every row's screened
    distance and slack (``_screened_sq_dists``).  A row whose screened
    distance minus slack exceeds its D² provably keeps it; every other row
    (NaN and overflow included) takes the minimum of its D² and its exact
    ``_assigned_sq_dists`` distance, all draws' such rows in one gathered
    call.  Each draw's potential is the sum of its full updated D².
    """
    candidates = np.array(list(dict.fromkeys(drawn.tolist())))
    drawn_points = points[candidates]
    approx, slack = _screened_sq_dists(points, row_sq, drawn_points)
    with np.errstate(over="ignore", invalid="ignore"):
        near = ~(approx - slack > best)
    draw, rows = np.divmod(np.flatnonzero(near), len(points))
    reduced = np.repeat(best[None, :], len(candidates), axis=0)
    reduced[draw, rows] = np.minimum(best[rows], _assigned_sq_dists(
        points[rows], drawn_points, draw))
    win = int(np.argmin([r.sum() for r in reduced]))
    return int(candidates[win]), reduced[win]


def _greedy_kmeanspp(points: np.ndarray, k: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Greedy kmeans++ (Arthur & Vassilvitskii, "k-means++: The Advantages
    of Careful Seeding", SODA 2007): the first centroid is a uniform draw,
    and each next one the best of 2 + ⌊ln k⌋ D²-weighted draws, the one
    whose potential Σ min(D², d(x, c)²) is lowest (``_best_candidate``)."""
    n = len(points)
    trials = 2 + int(math.log(k))
    row_sq = np.einsum("nd,nd->n", points, points)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    best = _assigned_sq_dists(points, points[chosen[:1]],
                              np.zeros(n, dtype=np.int64))
    for j in range(1, k):
        total = best.sum()
        if total > 0:
            drawn = rng.choice(n, size=trials, p=best / total)
        else:
            # All residual distances vanish (duplicate-heavy input): every
            # potential is 0, so one uniform draw stands for all of them.
            drawn = rng.integers(n, size=1)
        chosen[j], best = _best_candidate(points, row_sq, best, drawn)
    return points[chosen].copy()


def _seeding(points: np.ndarray, k: int,
             rng: np.random.Generator) -> np.ndarray:
    """The centroids ``minibatch_kmeans`` starts from: greedy kmeans++ on
    every row, or, above max(_SEED_ROWS, k) rows, on a sorted uniform
    subsample of that many."""
    rows = max(_SEED_ROWS, k)
    if len(points) > rows:
        points = points[np.sort(rng.choice(len(points), rows, replace=False))]
    return _greedy_kmeanspp(points, k, rng)


def kmeanspp_init(points: np.ndarray, k: int, seed: int | None) -> np.ndarray:
    """The seeding that ``minibatch_kmeans`` starts from with this seed:
    greedy kmeans++, on a uniform subsample of the rows above _SEED_ROWS.

    Points and the returned centroids are row-major float arrays, one
    point per row.  Deterministic per seed.
    """
    pts = _as_points(points)
    if not 1 <= k <= len(pts):
        raise ParameterError(f"k={k} out of range for n={len(pts)}")
    return _seeding(pts, k, make_generator(seed))


def _assign_with_repair(points: np.ndarray, centroids: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Nearest-centroid assignment, reseeding empty clusters until none remain.

    Each repair moves the lowest-index empty centroid onto the worst-fit
    point (largest distance to its own centroid, lowest index on ties) and
    pins that point there; pinning keeps the repaired cluster inhabited
    even when duplicate points make nearest-assignment ambiguous.  Repairs
    never increase the clustering cost.  Every pass is one screened
    ``_nearest`` search; the cost and the fits are each point's exact
    ``_assigned_sq_dists`` distance to its own centroid.  Returns the
    assignment, the centroids, the cost and the number of repairs.
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
            return assign, centroids, float(fit.sum()), len(pins)
        if pins:
            fit[list(pins)] = -1.0
        worst = int(np.argmax(fit))
        empty = int(empties[0])
        centroids[empty] = points[worst]
        pins[worst] = empty
    raise RuntimeError("empty-cluster repair failed to terminate")


def _minibatch_kmeans(points: np.ndarray, k: int, config: KmeansConfig
                      ) -> tuple[np.ndarray, np.ndarray, float, dict]:
    """``minibatch_kmeans``' result and a record of how it was reached, in
    plain JSON types: the batches run, why the loop stopped ("plateau" or
    "cap"), the returned cost, and the empty-cluster repairs the final
    pass made."""
    pts = _as_points(points)
    n = len(pts)
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range for n={n}")

    rng = make_generator(config.seed)
    centroids = _seeding(pts, k, rng)
    counts = np.zeros(k, dtype=np.int64)
    # The batch costs' exponentially weighted average takes
    # scikit-learn's weight, a span of about one pass over the data.
    alpha = min(1.0, 2.0 * _BATCH_SIZE / (n + 1))
    lowest = np.inf
    batches = stale = 0
    stop = "cap"
    while batches < _MAX_ITERATIONS:
        batch = pts[rng.integers(0, n, size=_BATCH_SIZE)]
        nearest = _nearest(batch, centroids)
        cost = _assigned_sq_dists(batch, centroids, nearest).mean()
        _update_batch(centroids, counts, batch, nearest)
        batches += 1
        smoothed = (cost if batches == 1
                    else smoothed * (1.0 - alpha) + cost * alpha)
        if smoothed < lowest:
            lowest, stale = smoothed, 0
        else:
            stale += 1
            if stale == _PATIENCE:
                stop = "plateau"
                break

    assign, centroids, cost, repairs = _assign_with_repair(pts, centroids)
    return assign, centroids, cost, {
        "batches": batches, "stop": stop, "cost": cost, "repairs": repairs}


def minibatch_kmeans(points: np.ndarray, k: int, config: KmeansConfig | None = None
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Cluster points into k groups with mini-batch updates.

    Seeds with greedy kmeans++ (``kmeanspp_init``).  Each iteration then
    draws a batch, assigns it to the nearest centroids, and moves each hit
    centroid to the running mean of every sample it has absorbed, the
    batch's in one closed-form step (``_update_batch``).  Each batch's
    mean exact distance to its assigned centroids, before the update, feeds
    an exponentially weighted average; the loop stops once _PATIENCE
    batches in a row set no new minimum of it, or after _MAX_ITERATIONS
    batches.  A final full pass of the trained centroids, with
    empty-cluster repair (``_assign_with_repair``), defines the returned
    assignment.  Every nearest-centroid search, per batch and in the final
    pass, is the GEMM screen of ``_nearest`` with its exact fallback, so
    it returns the argmin of the exact distances.

    Returns (assignment, centroids, cost); equidistant ties go to the
    lowest centroid index, and no cluster is left empty.
    """
    return _minibatch_kmeans(points, k, config or KmeansConfig())[:3]


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
