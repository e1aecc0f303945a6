"""The benchmark's workloads and the map from layers to the metrics they move.

A job is what a user does: ``specsumm summarize`` on an edge-list file, then
the query commands on the summary it wrote.  Each workload is one seeded
SBM graph and one job shape; the comments say which layers it exercises and
which it bypasses, so that an optimisation of a layer has one workload
where the prediction is "faster" and one where it is "no change".
"""

from __future__ import annotations

from dataclasses import dataclass

from sbm import SbmSpec


@dataclass(frozen=True)
class Workload:
    name: str
    sbm: SbmSpec
    summarize_args: tuple[str, ...]
    queries: tuple[str, ...]
    # Every run completes at least this many jobs, and rel_loss and
    # energy_ratio average over exactly these: their seeds are fixed, so the
    # means repeat exactly.  Sized so that they fit in one run.
    quality_jobs: int
    why: str
    bypasses: tuple[str, ...]

    def option(self, flag: str, default: str | None = None) -> str | None:
        """The value ``summarize_args`` gives ``flag``."""
        args = self.summarize_args
        return args[args.index(flag) + 1] if flag in args else default

    @property
    def k(self) -> int:
        return int(self.option("--k"))

    @property
    def lcc(self) -> bool:
        return "--lcc" in self.summarize_args


WORKLOADS = {w.name: w for w in (
    # Greedy reassignment dominates summarize and the exact triangle count
    # dominates the queries; evaluate reads a summary back and rebuilds it.
    Workload(
        name="refine-mid", sbm=SbmSpec(40, 100, 12.0, 3.0),
        summarize_args=("--k", "40", "--reassign-rounds", "4",
                        "--reassign-samples", "500"),
        queries=("triangles", "evaluate"), quality_jobs=5,
        why="n=4k, m~30k, k=40 with 4x500 reassignment samples, then "
            "triangles (exact count) and evaluate: reassignment and the exact "
            "count dominate; bypasses ascent and lcc",
        bypasses=("stiefel", "graph.largest_connected_component")),
    # The Cayley/Armijo ascent from a random start dominates; Lanczos is
    # never called.  The graph is connected, so --lcc costs one
    # connected-components pass and changes nothing else.  n > 10k, so
    # triangles gives the estimate only and parse is most of the query.
    Workload(
        name="ascent-random", sbm=SbmSpec(50, 320, 16.0, 4.0),
        summarize_args=("--k", "32", "--method", "ocsa", "--lcc"),
        queries=("triangles",), quality_jobs=6,
        why="n=16k, m~160k, k=32 with --lcc: random-start Cayley/Armijo "
            "ascent dominates summarize, then k-means and parse; bypasses "
            "lm_eigs, reassignment and exact triangles",
        bypasses=("spectral", "summary.reassignment",
                  "queries.exact_triangles")),
)}

# The order in which ``specsumm.summary.specsumm`` calls the public
# functions; the traced run composes the same calls in the same order.
PIPELINE_ORDER = (
    "rng.derive_seeds",
    "spectral.lm_eigs | stiefel.random_orthonormal_init + stiefel.ocsa",
    "kmeans.minibatch_kmeans",
    "summary.Membership",
    "summary.supernode_edge_counts",
    "summary.reassignment",
    "summary.build_summary",
    "summary.objective_integer",
)

# Which end-to-end metric, on which workload, each layer's metrics should
# move.  Written down before any optimisation, per the benchmark's method.
LAYER_MAP = {
    "graph": "graph.load_edge_list_s and graph.parse_edges_per_s move "
             "summarize_p50_rel and query_p50_rel on ascent-random (parse is "
             "nearly all of its query); graph.lcc_s runs on ascent-random "
             "only; graph.matmat_s is context",
    "spectral": "spectral.lm_eigs_s moves summarize_p50_rel on refine-mid "
                "(a small share) and nothing on ascent-random",
    "stiefel": "stiefel.* move summarize_p50_rel and energy_ratio on "
               "ascent-random and nothing on refine-mid",
    "kmeans": "kmeans.minibatch_s, kmeans.kmeanspp_s and "
              "kmeans.peak_alloc_mb move summarize_p50_rel on both workloads "
              "and peak_rss_mb on ascent-random, whose n*k*d distance "
              "tensor is the larger",
    "summary": "summary.reassign_* move summarize_p50_rel, rel_loss and "
               "energy_ratio on refine-mid; reassignment runs nowhere else",
    "queries": "queries.exact_triangles_s moves query_p50_rel on refine-mid; "
               "the CLI skips the exact count above n = 10k, so "
               "ascent-random bypasses it",
    "cli": "cli.*_s split each command's time; cli.self_s is the part no "
           "child span covers",
}
