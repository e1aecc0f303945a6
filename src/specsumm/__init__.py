"""Spectral graph summarization.

Compress a simple undirected graph into k supernodes whose pairwise edge
densities reconstruct the adjacency matrix with minimal squared error.
The pipeline embeds nodes with the largest-magnitude eigenvectors (or a
constrained-ascent refinement of a random basis), clusters the embedding
rows, and optionally polishes the grouping with greedy node moves.
"""

from .errors import ConvergenceError, ParameterError, ParseError
from .graph import (Graph, adjacency_trace_sq, generate_sbm,
                    largest_connected_component, load_edge_list,
                    write_edge_list)
from .kmeans import KmeansConfig, kmeans_cost, kmeanspp_init, minibatch_kmeans
from .queries import TriangleEstimate, exact_triangles, expected_triangles
from .spectral import EigenBasis, lm_eigs
from .stiefel import (AscentTrace, OcsaConfig, SkewDirection, cayley_step,
                      gradient, ocsa, orthonormality_defect,
                      random_orthonormal_init, skew_direction,
                      trace_objective_relaxed)
from .summary import (Membership, ReassignConfig, ReassignMove, Summary,
                      SummaryReport, build_summary, l2_loss, objective_integer,
                      reassignment, specsumm, supernode_edge_counts)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "ParameterError", "ParseError",
    "Graph", "adjacency_trace_sq", "generate_sbm",
    "largest_connected_component", "load_edge_list", "write_edge_list",
    "KmeansConfig", "kmeans_cost", "kmeanspp_init", "minibatch_kmeans",
    "TriangleEstimate", "exact_triangles", "expected_triangles",
    "EigenBasis", "lm_eigs",
    "AscentTrace", "OcsaConfig", "SkewDirection", "cayley_step", "gradient",
    "ocsa", "orthonormality_defect", "random_orthonormal_init",
    "skew_direction", "trace_objective_relaxed",
    "Membership", "ReassignConfig", "ReassignMove", "Summary",
    "SummaryReport", "build_summary", "l2_loss", "objective_integer",
    "reassignment", "specsumm", "supernode_edge_counts",
    "__version__",
]
