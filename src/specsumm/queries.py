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
import scipy.sparse as sp

from .errors import ParameterError
from .graph import Graph
from .summary import Summary

__all__ = ["TriangleEstimate", "pair_probability", "expected_triangles",
           "exact_triangles"]


@dataclass(frozen=True)
class TriangleEstimate:
    expected: float
    method: str


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


def pair_probability(summary: Summary, u: int, v: int) -> float:
    """Edge probability between two distinct nodes under the summary's
    model."""
    if u == v:
        raise ParameterError("pair probability requires two distinct nodes")
    n = summary.membership.n
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError("node index out of range")
    a = summary.membership.assign
    return float(_pair_matrix(summary)[a[u], a[v]])


def expected_triangles(summary: Summary) -> TriangleEstimate:
    """Expected triangle count of the summary's model, in closed form.

    Sums, over unordered node triples, the product of the three pair
    probabilities.  Grouping triples by which supernodes host them reduces
    the sum to O(k^3): the fully mixed part is a trace of the cube of the
    size-weighted probability matrix, corrected for coincident-group
    patterns by inclusion-exclusion, plus the two-group and one-group
    terms counted directly.
    """
    sizes = summary.membership.sizes.astype(np.float64)
    pi = _pair_matrix(summary)
    diag = np.diag(pi)

    choose2 = sizes * (sizes - 1.0) / 2.0
    choose3 = sizes * (sizes - 1.0) * (sizes - 2.0) / 6.0

    # All three nodes in one group.
    total = float(np.sum(choose3 * diag**3))

    # Exactly two groups: two nodes in i, one in j (and the mirror image).
    off = pi.copy()
    np.fill_diagonal(off, 0.0)
    pair_w = off**2
    total += float(np.sum(pair_w * (choose2 * diag)[:, None] * sizes[None, :]))

    # Three distinct groups, via inclusion-exclusion on the unrestricted
    # cyclic sum s_all = sum_{i,j,w} n_i n_j n_w pi_ij pi_jw pi_wi.
    weighted = sizes[:, None] * pi
    s_all = float(np.trace(weighted @ weighted @ weighted))
    s_pair = float(np.sum(sizes**2 * diag * np.sum(sizes[None, :] * pi**2,
                                                   axis=1)))
    s_triple = float(np.sum(sizes**3 * diag**3))
    total += (s_all - 3.0 * s_pair + 2.0 * s_triple) / 6.0

    return TriangleEstimate(expected=total, method="closed-form")


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
