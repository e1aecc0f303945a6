"""Largest-in-magnitude eigenpairs of the adjacency matrix.

The relaxed optimizer's reference solution is the span of the d
largest-|λ| eigenvectors; this module computes them with an implicitly
restarted Lanczos iteration (ARPACK), whose failures are raised and never
hidden behind another solver, and fixes a deterministic ordering and sign
convention so downstream results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .graph import Graph
from .rng import make_generator
from .stiefel import FEASIBILITY_TOL, orthonormality_defect

__all__ = ["EigenBasis", "lm_eigs"]

_SIGN_EPS = 1e-10
_RESIDUAL_TOL = 1e-8
# Largest order the dense route serves when d > n - 2 leaves ARPACK out.
_DENSE_ROUTE_LIMIT = 2048


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """d eigenpairs sorted by (|λ| desc, λ desc, original index asc).

    ``vectors`` is n×d with unit-norm, pairwise-orthonormal columns; each
    column's first entry exceeding 1e-10 in magnitude is positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def d(self) -> int:
        return len(self.values)

    def residual_norms(self, graph: Graph) -> np.ndarray:
        """‖A e_j − λ_j e_j‖₂ for each eigenpair."""
        r = graph.adjacency_matmat(self.vectors) - self.vectors * self.values
        return np.linalg.norm(r, axis=0)


def _canonical_order(values: np.ndarray) -> np.ndarray:
    # ±λ pairs (bipartite spectra) tie in magnitude only up to rounding;
    # group near-equal magnitudes so the λ-descending tie-break governs
    # instead of ulp noise, keeping both solver routes in the same order.
    mags = np.abs(values)
    by_mag = np.argsort(-mags, kind="stable")
    order: list[int] = []
    i = 0
    while i < len(by_mag):
        lead = mags[by_mag[i]]
        j = i + 1
        while j < len(by_mag) and lead - mags[by_mag[j]] <= 1e-8 * max(1.0, lead):
            j += 1
        block = by_mag[i:j]
        order.extend(block[np.lexsort((block, -values[block]))].tolist())
        i = j
    return np.asarray(order, dtype=np.intp)


def _canonicalize(values: np.ndarray, vectors: np.ndarray) -> EigenBasis:
    values = np.asarray(values, dtype=np.float64)
    vectors = np.array(vectors, dtype=np.float64)
    order = _canonical_order(values)
    values = values[order]
    vectors = vectors[:, order]
    # argmax finds each column's first entry above _SIGN_EPS (or row 0).
    lead = vectors[np.argmax(np.abs(vectors) > _SIGN_EPS, axis=0),
                   np.arange(vectors.shape[1])]
    vectors[:, lead < -_SIGN_EPS] *= -1.0
    return EigenBasis(values=values, vectors=vectors)


def _dense_basis(graph: Graph) -> EigenBasis:
    values, vectors = np.linalg.eigh(graph.to_dense())
    return _canonicalize(values, vectors)


def lm_eigs(graph: Graph, d: int, seed: int | None = None) -> EigenBasis:
    """Compute the d largest-magnitude eigenpairs of the adjacency matrix.

    Every returned pair meets ‖A e_j − λ_j e_j‖ ≤ 1e-8·max(1, |λ_j|).

    Parameters
    ----------
    graph : Graph
    d : int
        Number of eigenpairs, 1 ≤ d ≤ n.
    seed : int, optional
        Seeds the starting vector; fixed seeds give bit-identical output.

    ARPACK, which needs a spare basis column, runs when d ≤ n − 2; a dense
    ``eigh`` route serves d > n − 2, for n ≤ 2048.

    The Lanczos basis holds ncv = min(n, max(2d + 1, d + 20)) vectors.
    Each implicit restart costs O(n·ncv²) of dense work, which grows faster
    than the sparse products a wider basis saves, so ncv follows scipy's
    default of 2d + 1 for large d; the d + 20 floor, where scipy has 20,
    keeps small d from needing extra restarts.

    Raises
    ------
    ParameterError
        If d is out of range, or d > n − 2 on a graph with n > 2048.
    ConvergenceError
        If ARPACK stalls or fails, or its pairs miss the residual tolerance
        or its vectors the orthonormality one, at any n; carries the best
        residual norms reached.
    """
    n = graph.node_count
    if not 1 <= d <= n:
        raise ParameterError(f"d={d} out of range for n={n}")
    if d > n - 2:
        if n > _DENSE_ROUTE_LIMIT:
            raise ParameterError(
                f"d={d} too close to n={n} for the sparse solver at this scale")
        dense = _dense_basis(graph)
        return EigenBasis(values=dense.values[:d].copy(),
                          vectors=dense.vectors[:, :d].copy())

    # Imported on the one route that calls ARPACK, so that importing the
    # package loads no scipy (see Graph._csr).
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    v0 = make_generator(seed).standard_normal(n)
    ncv = min(n, max(2 * d + 1, d + 20))
    try:
        values, vectors = eigsh(graph._csr, k=d, which="LM", v0=v0, ncv=ncv,
                                tol=0)
    except ArpackNoConvergence as exc:
        # Report the residuals of the pairs converged before stopping.
        partial = EigenBasis(np.asarray(exc.eigenvalues, dtype=np.float64),
                             np.asarray(exc.eigenvectors, dtype=np.float64))
        raise ConvergenceError(str(exc), residuals=(
            partial.residual_norms(graph) if partial.d else None)) from None
    except (ArpackError, np.linalg.LinAlgError) as exc:
        raise ConvergenceError(str(exc)) from exc
    basis = _canonicalize(values, vectors)
    residuals = basis.residual_norms(graph)
    bound = _RESIDUAL_TOL * np.maximum(1.0, np.abs(basis.values))
    if not np.all(residuals <= bound):
        raise ConvergenceError("Lanczos output failed residual check",
                               residuals=residuals)
    defect = orthonormality_defect(basis.vectors)
    if not defect <= FEASIBILITY_TOL:
        raise ConvergenceError(
            f"Lanczos output failed orthonormality check: defect {defect:.3g}",
            residuals=residuals)
    return basis
