"""The traced run: one job composed from specsumm's public functions.

``traced_job`` calls the functions ``specsumm summarize``, ``triangles`` and
``evaluate`` reach, in the order the CLI and ``specsumm()`` call them (see
``workloads.PIPELINE_ORDER``), and records a span around each call.  A span
wraps a whole pipeline step, branch included, so a step the workload
bypasses still has a span whose length is the cost of skipping it.  The
composed result is compared bit for bit with the untraced CLI job on the same
seed, so the trace measures the same program.

Kernel timings and the tracemalloc pass run outside the job spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from specsumm.cli import SummaryFile, read_summary_file
from specsumm.graph import largest_connected_component, load_edge_list
from specsumm.kmeans import (KmeansConfig, kmeans_cost, kmeanspp_init,
                             minibatch_kmeans)
from specsumm.queries import exact_triangles, expected_triangles
from specsumm.rng import derive_seeds
from specsumm.spectral import lm_eigs
from specsumm.stiefel import (OcsaConfig, cayley_step, gradient, ocsa,
                              random_orthonormal_init, skew_direction,
                              trace_objective_relaxed)
from specsumm.summary import (Membership, ReassignConfig, build_summary,
                              objective_integer, reassignment,
                              supernode_edge_counts)

from jobs import EXACT_TRIANGLE_LIMIT, JobResult
from workloads import Workload

KERNEL_REPEATS = 5


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


@dataclass
class Tracer:
    """Spans of one job, kept in memory until the run ends."""

    job: int
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                               self.job))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(s.name == name for s in self.spans)

    def wall(self) -> float:
        """Time in the root spans, one per CLI command."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def root_self_time(self) -> float:
        """Root-span time that no child span covers."""
        return self.wall() - sum(s.end - s.start for s in self.spans
                                 if s.parent is not None
                                 and self.spans[s.parent].parent is None)


@dataclass
class TracedJob:
    tracer: Tracer
    graph: object
    assign: np.ndarray
    density: np.ndarray
    objective: float
    embedding: np.ndarray
    cluster_seed: int
    kmeans_cost: float
    ocsa_trace: object | None
    eig_residual: float
    reassign_sampled: int
    reassign_moves: int
    summary: object


def _hash_file(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def traced_job(workload: Workload, edges: Path, out: Path, seed: int,
               job: int) -> TracedJob:
    """One job of ``workload``, composed from public functions with spans."""
    t = Tracer(job)
    k = workload.k
    method = {"lm": "lm-eigvecs", "ocsa": "ocsa-random"}[
        workload.option("--method", "lm")]
    rounds = int(workload.option("--reassign-rounds", "0"))
    samples = int(workload.option("--reassign-samples", "500"))
    ocsa_trace = basis = None
    moves: list = []

    with t.span("cli.summarize"):
        with t.span("graph.load_edge_list"):
            graph, _ = load_edge_list(edges)
        with t.span("graph.largest_connected_component"):
            if workload.lcc:
                graph, _ = largest_connected_component(graph)
        n = graph.node_count
        with t.span("rng.derive_seeds"):
            relax_seed, cluster_seed, reassign_seed = derive_seeds(seed, 3)
        with t.span("spectral.lm_eigs"):
            if method == "lm-eigvecs":
                basis = lm_eigs(graph, k, seed=relax_seed)
                embedding = basis.vectors
        with t.span("stiefel.random_orthonormal_init"):
            if method == "ocsa-random":
                start = random_orthonormal_init(n, k, relax_seed)
        with t.span("stiefel.ocsa"):
            if method == "ocsa-random":
                embedding, ocsa_trace = ocsa(graph, start, None)
        with t.span("kmeans.minibatch_kmeans"):
            assign, _, cost = minibatch_kmeans(
                embedding, k, KmeansConfig(seed=cluster_seed))
        with t.span("summary.Membership"):
            membership = Membership(assign, k)
        with t.span("summary.supernode_edge_counts"):
            if rounds > 0:
                counts = supernode_edge_counts(graph, membership)
        with t.span("summary.reassignment"):
            if rounds > 0:
                membership, moves = reassignment(
                    graph, membership, counts,
                    ReassignConfig(rounds=rounds, samples_per_round=samples,
                                   seed=reassign_seed))
        with t.span("summary.build_summary"):
            summary = build_summary(graph, membership)
        with t.span("summary.objective_integer"):
            objective = objective_integer(graph, membership)
        # The CLI's report recomputes F and the triangle estimate.
        with t.span("summary.objective_integer"):
            report_f = objective_integer(graph, summary.membership)
        with t.span("queries.expected_triangles"):
            estimate = expected_triangles(summary).expected
        report = {"F": report_f, "L": 2.0 * graph.edge_count - report_f,
                  "triangles_estimate": estimate, "n": n,
                  "m": graph.edge_count, "k": k}
        with t.span("cli.write_summary"):
            meta = {"source_hash": _hash_file(edges), "d": k,
                    "relax_method": method,
                    "seeds": {"master": seed, "relax": relax_seed,
                              "cluster": cluster_seed,
                              "reassign": reassign_seed},
                    "params": {"k": k, "lcc": workload.lcc,
                               "reassign_rounds": rounds,
                               "reassign_samples": samples}}
            SummaryFile.from_summary(summary, meta).write(out)
        json.dumps(report, sort_keys=True, separators=(",", ":"))

    with t.span("cli.triangles"):
        with t.span("graph.load_edge_list"):
            qgraph, _ = load_edge_list(edges)
        with t.span("cli.read_summary"):
            stored = read_summary_file(out).to_summary()
        with t.span("queries.exact_triangles"):
            exact = (exact_triangles(qgraph)
                     if qgraph.node_count <= EXACT_TRIANGLE_LIMIT else None)
        with t.span("queries.expected_triangles"):
            estimate = expected_triangles(stored).expected
        json.dumps({"estimate": estimate, "exact": exact})

    with t.span("cli.evaluate"):
        if "evaluate" in workload.queries:
            with t.span("graph.load_edge_list"):
                egraph, _ = load_edge_list(edges)
            with t.span("cli.read_summary"):
                stored_file = read_summary_file(out)
            with t.span("summary.Membership"):
                emem = Membership(np.asarray(stored_file.membership,
                                             dtype=np.int64), stored_file.k)
            with t.span("summary.build_summary"):
                rebuilt = build_summary(egraph, emem)
            drift = float(np.max(np.abs(stored_file.density_matrix()
                                        - rebuilt.density), initial=0.0))
            with t.span("summary.objective_integer"):
                ef = objective_integer(egraph, rebuilt.membership)
            with t.span("queries.expected_triangles"):
                estimate = expected_triangles(rebuilt).expected
            json.dumps({"F": ef, "density_drift_max": drift,
                        "triangles_estimate": estimate})

    residual = 0.0
    if basis is not None:
        residual = float(np.max(basis.residual_norms(graph)))
    return TracedJob(
        tracer=t, graph=graph, assign=membership.assign,
        density=summary.density, objective=objective, embedding=embedding,
        cluster_seed=cluster_seed, kmeans_cost=cost, ocsa_trace=ocsa_trace,
        eig_residual=residual,
        reassign_sampled=rounds * min(samples, n) if rounds > 0 else 0,
        reassign_moves=len(moves), summary=summary)


def identity_problems(traced: TracedJob, untraced: JobResult, out: Path
                      ) -> list[str]:
    """Differences between the composed pipeline and specsumm() as the CLI
    ran it on the same seed: membership, densities and F must be equal."""
    problems = []
    stored = read_summary_file(out)
    if not np.array_equal(traced.assign, np.asarray(stored.membership)):
        problems.append("traced membership differs from specsumm()")
    if not np.array_equal(traced.density, stored.density_matrix()):
        problems.append("traced densities differ from specsumm()")
    if traced.objective != untraced.objective:
        problems.append(f"traced F {traced.objective!r} != specsumm() F "
                        f"{untraced.objective!r}")
    return problems


def ascent_counts(trace) -> tuple[int, int]:
    """(accepted steps, backtracks) of an ascent, the backtracks derived
    from each accepted step size as log(tau0 / tau) / log(1 / rho)."""
    if trace is None:
        return 0, 0
    config = OcsaConfig()
    ratios = np.log(config.initial_step / trace.step_sizes) / np.log(
        1.0 / config.contraction)
    return int(trace.iterations), int(np.rint(ratios).sum())


def _median_time(fn, repeats: int = KERNEL_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_timings(graph, summary, k: int, seed: int) -> dict:
    """Median time of each kernel on this workload's graph with an n x k
    operand, with operation counts and bytes moved computed from the
    shapes (labelled "computed": nothing here is a hardware counter)."""
    n, nnz = graph.node_count, 2 * graph.edge_count
    z = random_orthonormal_init(n, k, seed)
    g = gradient(graph, z)
    w = skew_direction(z, g)
    block = 8 * n * k
    csr = 16 * nnz + 8 * (n + 1)
    assign = np.arange(n) % k
    cents = z[:k].copy()
    kernels = {
        "graph.adjacency_matmat": (lambda: graph.adjacency_matmat(z),
                                   2 * nnz * k, csr + 2 * block),
        "stiefel.gradient": (lambda: gradient(graph, z),
                             2 * nnz * k + 4 * n * k * k, csr + 5 * block),
        "stiefel.cayley_step": (lambda: cayley_step(z, w, 1e-3),
                                16 * n * k * k + 6 * (2 * k) ** 3,
                                13 * block),
        "stiefel.trace_objective_relaxed": (
            lambda: trace_objective_relaxed(graph, z),
            2 * nnz * k + 2 * n * k * k, csr + 3 * block),
        "kmeans.kmeans_cost": (lambda: kmeans_cost(z, cents, assign),
                               3 * n * k, 4 * block + 8 * n),
        "queries.expected_triangles": (lambda: expected_triangles(summary),
                                       4 * k ** 3, 8 * 8 * k * k),
    }
    if n <= EXACT_TRIANGLE_LIMIT:
        wedges = int(np.sum(graph.degrees.astype(np.int64) ** 2))
        kernels["queries.exact_triangles"] = (
            lambda: exact_triangles(graph), wedges, 8 * wedges)
    return {name: {"seconds": _median_time(fn), "repeats": KERNEL_REPEATS,
                   "ops": int(ops), "bytes": int(nbytes),
                   "counts": "computed"}
            for name, (fn, ops, nbytes) in kernels.items()}


def kmeans_side_passes(traced: TracedJob, k: int) -> dict:
    """kmeans++ seeding timed alone, and minibatch_kmeans' peak traced
    allocation in a pass of its own so tracemalloc distorts no span."""
    seeding_s = _median_time(
        lambda: kmeanspp_init(traced.embedding, k, traced.cluster_seed),
        repeats=3)
    tracemalloc.start()
    try:
        minibatch_kmeans(traced.embedding, k,
                         KmeansConfig(seed=traced.cluster_seed))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"kmeanspp_s": seeding_s, "peak_alloc_mb": peak / 2**20}
