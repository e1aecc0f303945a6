"""Probabilistic queries against a summary.

A summary induces a random-graph model: each node pair is an independent
edge with the density between its groups (same-group pairs get the
small-population correction n_i/(n_i - 1) so expected intra-group edge
counts come out right).  Queries below evaluate that model without ever
sampling from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .summary import Summary

__all__ = ["TriangleEstimate", "expected_triangles", "exact_triangles"]


@dataclass(frozen=True)
class TriangleEstimate:
    expected: float


def _pair_matrix(summary: Summary) -> np.ndarray:
    """Group-level edge probabilities: off-diagonal densities as-is, the
    diagonal rescaled by n_i/(n_i - 1) (zero for singleton groups), all
    clamped to [0, 1]."""
    sizes = summary.membership.sizes.astype(np.float64)
    pi = summary.density.copy()
    correction = np.where(sizes >= 2.0, sizes / np.maximum(sizes - 1.0, 1.0),
                          0.0)
    np.fill_diagonal(pi, np.diag(summary.density) * correction)
    return np.clip(pi, 0.0, 1.0)


def expected_triangles(summary: Summary) -> TriangleEstimate:
    """Expected triangle count of the summary's model, in closed form.

    With P the n×n node-pair probability matrix (zero diagonal), the sum
    over unordered node triples of their pair probabilities' product is
    tr(P³)/6.  P = Q − E, with Q the group-level Π repeated over the nodes
    and E its diagonal, so for group sizes N, in three O(k³) sums,
    tr(P³) = tr((NΠ)³) − 3·Σᵢ nᵢπᵢᵢ·Σⱼ nⱼπᵢⱼ² + 2·Σᵢ nᵢπᵢᵢ³.
    """
    sizes = summary.membership.sizes.astype(np.float64)
    pi = _pair_matrix(summary)
    diag = np.diag(pi)
    weighted = sizes[:, None] * pi
    trace = (float(np.trace(weighted @ weighted @ weighted))
             - 3.0 * float(np.sum(sizes * diag
                                  * np.sum(sizes * pi**2, axis=1)))
             + 2.0 * float(np.sum(sizes * diag**3)))
    return TriangleEstimate(expected=trace / 6.0)


# Oriented two-paths per row block of exact_triangles: the product holds at
# most one sparse entry per two-path, so this bounds its memory (a single
# row with more two-paths forms a block of its own).
_TWO_PATH_BLOCK = 1 << 22


def exact_triangles(graph: Graph) -> int:
    """Triangle count of the graph itself.

    With U the strict upper triangle of the adjacency (edges oriented from
    lower to higher id), (U @ U)[u, w] counts paths u < v < w, and masking
    by U keeps those closed by the edge (u, w), so each triangle is counted
    once.  The product is taken in row blocks of at most _TWO_PATH_BLOCK
    two-paths each.  Counts are small integers, exact in float64.
    """
    import scipy.sparse as sp

    upper = sp.triu(graph._csr, k=1, format="csr")
    # Two-paths u < v < w starting at u: deg+(v) summed over u's out-neighbors.
    two_paths = np.cumsum(upper @ np.diff(upper.indptr))
    total = 0
    start = 0
    while start < graph.node_count:
        base = two_paths[start - 1] if start else 0
        stop = max(int(np.searchsorted(two_paths, base + _TWO_PATH_BLOCK,
                                       side="right")), start + 1)
        rows = upper[start:stop]
        total += int((rows @ upper).multiply(rows).sum())
        start = stop
    return total
