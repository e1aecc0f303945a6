"""Running jobs through ``specsumm.cli.main`` in-process, and checking them.

Every reference a check compares against is computed here with numpy and
scipy directly, never with specsumm: the graph as the CLI will see it, the
top-k eigenvalue energy bound F <= sum_{i<=k} lambda_i^2, and the exact
triangle count sum((A @ A) * A) / 6.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from specsumm.cli import main as cli_main
from specsumm.cli import read_summary_file

from probe import probe
from workloads import Workload

# The CLI reports the exact triangle count only up to this order.
EXACT_TRIANGLE_LIMIT = 10_000
REL_TOL = 1e-9
# A job asks its queries this many times, one round being one pass over the
# workload's query commands, so that a run has many sub-second query samples
# spread over its whole length.
QUERY_ROUNDS = 4


@dataclass(frozen=True)
class Reference:
    """The summarized graph's facts, computed independently of specsumm."""

    n: int
    m: int
    energy_bound: float
    triangles: int | None


def reference(pairs: np.ndarray, workload: Workload) -> Reference:
    nodes, dense = np.unique(pairs, return_inverse=True)
    dense = dense.reshape(pairs.shape)
    n = len(nodes)
    a = sp.coo_matrix((np.ones(len(dense)), (dense[:, 0], dense[:, 1])),
                      shape=(n, n)).tocsr()
    a = a + a.T
    if workload.lcc:
        _, labels = connected_components(a, directed=False)
        keep = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
        a = a[keep][:, keep]
        n = len(keep)
    m = a.nnz // 2
    # A seeded random start: equal SBM blocks make the all-ones vector
    # nearly orthogonal to the community eigenvectors.
    v0 = np.random.default_rng(0).standard_normal(n)
    values = eigsh(a, k=workload.k, which="LM", tol=1e-10, v0=v0,
                   return_eigenvectors=False)
    triangles = None
    if n <= EXACT_TRIANGLE_LIMIT:
        triangles = int(round((a @ a).multiply(a).sum() / 6.0))
    return Reference(n=n, m=m, energy_bound=float(np.sum(values ** 2)),
                     triangles=triangles)


@dataclass
class JobResult:
    seed: int
    summarize_s: float = 0.0
    query_rounds: list[float] = field(default_factory=list)
    # The same times as multiples of the host probe's time around each
    # command (see probe.py), and every probe time of the job in order.
    summarize_rel: float = 0.0
    query_rounds_rel: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    payloads: dict = field(default_factory=dict)
    summary_sha256: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def query_s(self) -> float:
        """Mean wall time of one round of the job's query commands."""
        return sum(self.query_rounds) / max(len(self.query_rounds), 1)

    @property
    def wall(self) -> float:
        return self.summarize_s + sum(self.query_rounds)

    @property
    def wall_rel(self) -> float:
        return self.summarize_rel + sum(self.query_rounds_rel)

    @property
    def objective(self) -> float:
        return self.payloads["summarize"]["F"]

    @property
    def loss(self) -> float:
        return self.payloads["summarize"]["L"]


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON")


def _run(argv: list[str]) -> tuple[int, str, str, float]:
    """One CLI command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    # Collect the previous command's garbage now, so that no command pays
    # for another's collection inside its timing.
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _parse_report(stdout: str) -> dict:
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one stdout line, got {len(lines)}")
    payload = json.loads(lines[0], parse_constant=_reject_constant)
    if not isinstance(payload, dict):
        raise ValueError("report is not a JSON object")
    return payload


def _command(job: JobResult, name: str, argv: list[str]
             ) -> tuple[float, float]:
    """Run one command, keep its report in ``job.payloads``, record any
    failure in ``job.problems``; returns its wall time, and that time over
    the mean of the host probes just before and just after it."""
    code, stdout, stderr, seconds = _run(argv)
    job.probes.append(probe())
    relative = seconds / (0.5 * (job.probes[-2] + job.probes[-1]))
    if code != 0:
        job.problems.append(f"{name} exited {code}: {stderr.strip()[-500:]}")
        return seconds, relative
    try:
        job.payloads[name] = _parse_report(stdout)
    except ValueError as exc:
        job.problems.append(f"{name} stdout: {exc}")
    return seconds, relative


def run_job(workload: Workload, edges: Path, out: Path, seed: int
            ) -> JobResult:
    """summarize, then QUERY_ROUNDS rounds of the workload's queries, timed
    without the checks, with a host probe before and after each command."""
    job = JobResult(seed=seed, probes=[probe()])
    job.summarize_s, job.summarize_rel = _command(job, "summarize", [
        "summarize", str(edges), *workload.summarize_args,
        "--seed", str(seed), "--out", str(out)])
    for _ in range(QUERY_ROUNDS):
        if not job.ok:
            break
        times = [_command(job, q, [q, str(edges), str(out)])
                 for q in workload.queries]
        job.query_rounds.append(sum(t for t, _ in times))
        job.query_rounds_rel.append(sum(r for _, r in times))
    return job


def check_job(job: JobResult, ref: Reference, out: Path) -> None:
    """Append every violated output property to ``job.problems``."""
    if not job.ok:
        return
    problems = job.problems
    summ = job.payloads["summarize"]
    two_m = 2.0 * ref.m
    if (summ.get("n"), summ.get("m")) != (ref.n, ref.m):
        problems.append(f"summarized n, m = {summ.get('n')}, {summ.get('m')}; "
                        f"expected {ref.n}, {ref.m}")
    f, loss = summ["F"], summ["L"]
    if abs(f + loss - two_m) > REL_TOL * two_m:
        problems.append(f"F + L = {f + loss!r}, expected 2m = {two_m!r}")
    if not 0.0 < f <= ref.energy_bound * (1.0 + REL_TOL):
        problems.append(f"F = {f!r} outside (0, {ref.energy_bound!r}]")
    data = out.read_bytes()
    job.summary_sha256 = hashlib.sha256(data).hexdigest()
    try:
        stored = read_summary_file(out)
        if stored.to_summary().membership.n != ref.n:
            problems.append("summary file covers the wrong node count")
    except ValueError as exc:  # ParseError and ParameterError
        problems.append(f"summary file does not load: {exc}")
    if "evaluate" in job.payloads:
        if job.payloads["evaluate"].get("density_drift") is not False:
            problems.append("evaluate reports density drift")
    tri = job.payloads.get("triangles")
    if tri is not None:
        exact = tri.get("exact")
        if exact is not None and exact != ref.triangles:
            problems.append(f"exact triangles {exact}, expected "
                            f"{ref.triangles}")
        if not tri.get("estimate", -1.0) >= 0.0:
            problems.append(f"triangle estimate {tri.get('estimate')!r}")
