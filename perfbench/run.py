#!/usr/bin/env python3
"""specsumm benchmark: seeded SBM workloads of end-to-end summarize + query jobs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload refine-mid --seed 1 --seconds 60 --trace 0

One client runs jobs back to back (a closed loop) in this one process; each
job calls ``specsumm.cli.main`` for ``summarize`` and then the workload's
query commands, and every job's output is checked.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see ``trace.py``).  End-to-end job times are multiples of a fixed host
probe's time measured around each command (see ``probe.py``), so that a
slow spell of the shared host does not read as a slower program; their wall
seconds are in the record.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with host facts, every job, spans and kernel timings, is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("refine-mid", "ascent-random")
# Set-up (import the program in a fresh interpreter, sample + write the
# inputs) repeats this often; setup_s takes the median.  The repeats also
# check that a seed always gives the same bytes.
SETUP_REPEATS = 3
# Run in a fresh interpreter; prints how long the import took.
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import specsumm.cli; "
                "print(time.perf_counter() - t0)")
MAX_JOBS = 1000
# One BLAS thread: on a host of few shared cores a second thread makes each
# BLAS call wait for the slower of two cores, which adds run-to-run noise.
BLAS_THREADS = 1

# Job times are reported as multiples of the host probe's time (unit
# "probe", see probe.py); the wall seconds are in the run's record.
END_TO_END = {
    "summarize_p50_rel": "probe", "query_p50_rel": "probe",
    "edges_per_probe": "1/probe",
    "rel_loss": "ratio", "energy_ratio": "ratio", "peak_rss_mb": "MB",
    "setup_s": "s", "jobs_ok_frac": "ratio",
}
PER_LAYER = {
    "graph.load_edge_list_s": "s", "graph.parse_edges_per_s": "1/s",
    "graph.lcc_s": "s", "graph.matmat_s": "s", "graph.matmat_bytes": "B",
    "spectral.lm_eigs_s": "s", "spectral.max_residual": "norm",
    "stiefel.ocsa_s": "s", "stiefel.iterations": "count",
    "stiefel.s_per_iter": "s", "stiefel.backtracks": "count",
    "stiefel.accept_ratio": "ratio", "stiefel.gradient_s": "s",
    "stiefel.cayley_step_s": "s",
    "kmeans.minibatch_s": "s", "kmeans.kmeanspp_s": "s",
    "kmeans.peak_alloc_mb": "MB", "kmeans.cost": "sq_dist",
    "summary.reassign_s": "s", "summary.reassign_sampled": "count",
    "summary.reassign_moves": "count", "summary.accept_ratio": "ratio",
    "summary.s_per_node": "s", "summary.edge_counts_s": "s",
    "summary.build_s": "s", "summary.objective_s": "s",
    "queries.exact_triangles_s": "s", "queries.exact_edges_per_s": "1/s",
    "queries.expected_triangles_s": "s",
    "cli.summarize_s": "s", "cli.triangles_s": "s", "cli.evaluate_s": "s",
    "cli.write_summary_s": "s", "cli.read_summary_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_manifest() -> None:
    """The metrics printed must be those BENCHMARK.json lists, by name and
    unit."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return
    spec = json.loads(manifest.read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
              for m in spec[key]}
    if listed != {**END_TO_END, **PER_LAYER}:
        raise BenchError("BENCHMARK.json metrics differ from perfbench/run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOAD_NAMES):
        raise BenchError("BENCHMARK.json workloads differ from perfbench")


def import_program() -> None:
    """Pin BLAS threads, put the checkout's ``src`` first on the path and
    import the CLI."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "specsumm" / "cli.py").is_file():
        raise BenchError(f"no specsumm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specsumm.cli
    if Path(specsumm.cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"imported specsumm from {specsumm.cli.__file__}")


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the CLI, numpy and scipy
    included, as a user's first command pays them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    if done.returncode != 0:
        raise BenchError(f"importing specsumm failed: {done.stderr[-500:]}")
    return float(done.stdout)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "git_commit": git_commit(), "workload_seed": seed,
            "machine": platform.machine()}


def timing_stats(values: list[float]) -> dict:
    """Median, sample count, and the highest of p99.9/p99/p90 that has at
    least ten samples beyond it, when there is one."""
    stats = {"p50": statistics.median(values), "samples": len(values)}
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0):
        index = math.ceil(len(values) * pct / 100.0) - 1
        if len(values) - index - 1 >= 10:
            stats[f"p{pct:g}"] = ordered[index]
            break
    return stats


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(workload, seed: int, work: Path):
    """Sample and write the workload's inputs SETUP_REPEATS times; returns
    the inputs, the time of each repeat and the sampler's problems."""
    import numpy as np
    from sbm import check_sample, edge_list_bytes, labels_bytes, sample_sbm

    edges, labels_path = work / "graph.edges", work / "graph.edges.membership"
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pairs, labels = sample_sbm(workload.sbm, seed)
        data, label_data = edge_list_bytes(pairs), labels_bytes(labels)
        edges.write_bytes(data)
        labels_path.write_bytes(label_data)
        times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(data + b"\0" + label_data).hexdigest())
    problems = check_sample(workload.sbm, pairs, labels)
    if len(digests) != 1:
        problems.append("the same seed gave different sampler bytes")
    if not np.all(np.diff(pairs[:, 0]) >= 0):
        problems.append("edge list is not sorted")
    return edges, pairs, times, problems


def job_record(job) -> dict:
    summ = job.payloads.get("summarize", {})
    return {"seed": job.seed, "summarize_s": job.summarize_s,
            "query_rounds_s": job.query_rounds,
            "summarize_rel": job.summarize_rel,
            "query_rounds_rel": job.query_rounds_rel, "probes_s": job.probes,
            "F": summ.get("F"), "L": summ.get("L"),
            "phase_seconds": summ.get("seconds"),
            "summary_sha256": job.summary_sha256, "problems": job.problems}


def keep_going(done: int, walls: list[float], started: float,
               seconds: float, minimum: int) -> bool:
    """Closed loop: start another job while it is predicted to end within
    ``seconds``, and always until ``minimum`` jobs have run."""
    if done < minimum:
        return True
    return time.perf_counter() - started + statistics.mean(walls) <= seconds


def end_to_end(workload, ref, jobs, edges: Path, work: Path, seeds,
               seconds: float):
    from jobs import check_job, run_job

    out = work / "job.summary.json"
    started = time.perf_counter()
    walls: list[float] = []
    while len(jobs) < len(seeds) and keep_going(len(jobs), walls, started,
                                                seconds,
                                                workload.quality_jobs):
        job = run_job(workload, edges, out, seeds[len(jobs)])
        check_job(job, ref, out)
        jobs.append(job)
        walls.append(job.wall)
    done = [j for j in jobs if j.ok] or jobs
    # Every query round does the same work, so query_p50_rel is the median of
    # all rounds of the run.
    rounds = [r for j in done for r in j.query_rounds] or [0.0]
    rounds_rel = [r for j in done for r in j.query_rounds_rel] or [0.0]
    quality = [j for j in jobs[:workload.quality_jobs] if j.ok]
    two_m = 2.0 * ref.m
    metrics = {
        "summarize_p50_rel": statistics.median(j.summarize_rel
                                               for j in done),
        "query_p50_rel": statistics.median(rounds_rel),
        "edges_per_probe": (ref.m * sum(j.ok for j in jobs)
                            / sum(j.wall_rel for j in jobs)),
        # 0 only when every quality job failed, and then correct is false.
        "rel_loss": (statistics.fmean(j.loss / two_m for j in quality)
                     if quality else 0.0),
        "energy_ratio": (statistics.fmean(j.objective / ref.energy_bound
                                          for j in quality)
                         if quality else 0.0),
    }
    timings = {"summarize_s": timing_stats([j.summarize_s for j in done]),
               "query_s": timing_stats(rounds),
               "job_s": timing_stats(walls),
               "summarize_rel": timing_stats([j.summarize_rel
                                              for j in done]),
               "query_rel": timing_stats(rounds_rel),
               "probe_s": timing_stats([p for j in jobs for p in j.probes])}
    return metrics, timings


def traced(workload, ref, jobs, edges: Path, work: Path, seeds,
           seconds: float, m_file: int):
    from jobs import EXACT_TRIANGLE_LIMIT, check_job, run_job
    from trace import (ascent_counts, identity_problems, kernel_timings,
                       kmeans_side_passes, traced_job)

    out, traced_out = work / "job.summary.json", work / "traced.summary.json"
    started = time.perf_counter()
    walls: list[float] = []
    runs = []
    while len(jobs) < len(seeds) and keep_going(len(runs), walls, started,
                                                seconds, 1):
        seed = seeds[len(runs)]
        job = run_job(workload, edges, out, seed)
        check_job(job, ref, out)
        jobs.append(job)
        tj = traced_job(workload, edges, traced_out, seed, len(runs))
        if job.ok:
            job.problems += identity_problems(tj, job, out)
        runs.append((job, tj))
        walls.append(job.wall + tj.tracer.wall())

    first = runs[0][1]
    kernels = kernel_timings(first.graph, first.summary, workload.k,
                             seeds[0])
    side = kmeans_side_passes(first, workload.k)
    iterations, backtracks = ascent_counts(first.ocsa_trace)
    sampled, moves = first.reassign_sampled, first.reassign_moves

    def timed(name: str) -> float:
        return statistics.median(tj.tracer.total(name) for _, tj in runs)

    loads = first.tracer.count("graph.load_edge_list")
    ocsa_s = timed("stiefel.ocsa")
    reassign_s = timed("summary.reassignment")
    exact_s = timed("queries.exact_triangles")
    exact_ran = first.graph.node_count <= EXACT_TRIANGLE_LIMIT
    metrics = {
        "graph.load_edge_list_s": timed("graph.load_edge_list"),
        "graph.parse_edges_per_s": loads * m_file
        / timed("graph.load_edge_list"),
        "graph.lcc_s": timed("graph.largest_connected_component"),
        "graph.matmat_s": kernels["graph.adjacency_matmat"]["seconds"],
        "graph.matmat_bytes": kernels["graph.adjacency_matmat"]["bytes"],
        "spectral.lm_eigs_s": timed("spectral.lm_eigs"),
        "spectral.max_residual": first.eig_residual,
        "stiefel.ocsa_s": ocsa_s,
        "stiefel.iterations": iterations,
        "stiefel.s_per_iter": ocsa_s / max(iterations, 1),
        "stiefel.backtracks": backtracks,
        "stiefel.accept_ratio": (iterations / (iterations + backtracks)
                                 if iterations else 0.0),
        "stiefel.gradient_s": kernels["stiefel.gradient"]["seconds"],
        "stiefel.cayley_step_s": kernels["stiefel.cayley_step"]["seconds"],
        "kmeans.minibatch_s": timed("kmeans.minibatch_kmeans"),
        "kmeans.kmeanspp_s": side["kmeanspp_s"],
        "kmeans.peak_alloc_mb": side["peak_alloc_mb"],
        "kmeans.cost": first.kmeans_cost,
        "summary.reassign_s": reassign_s,
        "summary.reassign_sampled": sampled,
        "summary.reassign_moves": moves,
        "summary.accept_ratio": moves / sampled if sampled else 0.0,
        "summary.s_per_node": reassign_s / max(sampled, 1),
        "summary.edge_counts_s": timed("summary.supernode_edge_counts"),
        "summary.build_s": timed("summary.build_summary"),
        "summary.objective_s": timed("summary.objective_integer"),
        "queries.exact_triangles_s": exact_s,
        "queries.exact_edges_per_s": (first.graph.edge_count / exact_s
                                      if exact_ran else 0.0),
        "queries.expected_triangles_s": timed("queries.expected_triangles"),
        "cli.summarize_s": timed("cli.summarize"),
        "cli.triangles_s": timed("cli.triangles"),
        "cli.evaluate_s": timed("cli.evaluate"),
        "cli.write_summary_s": timed("cli.write_summary"),
        "cli.read_summary_s": timed("cli.read_summary"),
        "cli.self_s": statistics.median(tj.tracer.root_self_time()
                                        for _, tj in runs),
        # A traced job asks its queries once; compare with one round.
        "trace.overhead_s": statistics.median(
            tj.tracer.wall() - job.summarize_s - job.query_s
            for job, tj in runs),
    }
    detail = {
        "kernels": kernels,
        "ascent": ({"reason": first.ocsa_trace.reason,
                    "iterations": iterations, "backtracks": backtracks}
                   if first.ocsa_trace is not None else None),
        "spans": [[s.job, s.name, s.start, s.end, s.parent]
                  for _, tj in runs for s in tj.tracer.spans],
        "traced_jobs": len(runs),
    }
    return metrics, detail


def run(args) -> dict:
    run_started = time.perf_counter()
    check_manifest()
    import_program()
    sys.path.insert(0, str(HERE))
    import numpy as np
    from jobs import reference
    from workloads import LAYER_MAP, PIPELINE_ORDER, WORKLOADS

    workload = WORKLOADS[args.workload]
    states = np.random.SeedSequence(args.seed).generate_state(
        MAX_JOBS + 1, dtype=np.uint32)
    graph_seed, seeds = int(states[0]), [int(s) for s in states[1:]]
    work = ROOT / ".perfbench" / "work" / args.workload
    results = ROOT / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    jobs = []
    try:
        edges, pairs, prepare_s, problems = prepare(workload, graph_seed,
                                                    work)
        import_s = ([] if args.trace else
                    [time_import() for _ in range(SETUP_REPEATS)])
        t0 = time.perf_counter()
        ref = reference(pairs, workload)
        reference_s = time.perf_counter() - t0

        if args.trace:
            metrics, detail = traced(workload, ref, jobs, edges, work, seeds,
                                     args.seconds, len(pairs))
            timings = {}
        else:
            metrics, timings = end_to_end(workload, ref, jobs, edges, work,
                                          seeds, args.seconds)
            metrics["peak_rss_mb"] = peak_rss_mb()
            metrics["setup_s"] = statistics.median(
                i + p for i, p in zip(import_s, prepare_s))
            metrics["jobs_ok_frac"] = sum(j.ok for j in jobs) / len(jobs)
            detail = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not j.ok for j in jobs)
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "bypasses": list(workload.bypasses),
                     "sbm": vars(workload.sbm) | {"graph_seed": graph_seed},
                     "summarize_args": list(workload.summarize_args),
                     "queries": list(workload.queries)},
        "host": host_facts(args.seed),
        "trace": args.trace, "seconds": args.seconds,
        "pipeline_order": list(PIPELINE_ORDER), "layer_map": LAYER_MAP,
        "setup": {"import_s": import_s, "prepare_s": prepare_s,
                  "reference_s": reference_s},
        "reference": vars(ref), "sampler_problems": problems,
        "timings": timings, "peak_rss_mb": peak_rss_mb(),
        "run_wall_s": time.perf_counter() - run_started,
        "jobs": [job_record(j) for j in jobs], **detail,
        "result": {"correct": failed == 0 and not problems,
                   "attempted": len(jobs), "failed": failed,
                   "metrics": {name: {"value": metrics[name], "unit": unit}
                               for name, unit in units.items()}},
    }
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"perfbench {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{failed} failed, record {path.relative_to(ROOT)}")
    for problem in problems + [p for j in jobs for p in j.problems]:
        print(f"  problem: {problem}")
    return record["result"]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
