"""Command-line interface: summarize graphs, evaluate and query summaries.

Subcommands
-----------
summarize   build a summary of an edge-list graph and write it to disk
evaluate    recompute quality metrics for a stored summary
relax       run the orthonormality-constrained ascent on its own
gen-sbm     generate a planted-partition benchmark graph
triangles   expected (and, when feasible, exact) triangle counts

All reports are single-line JSON on standard output.  Exit codes: 0 on
success, 1 for unreadable/malformed input files, 2 for invalid parameters,
3 when an iterative solver fails to converge.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import ConvergenceError, ParameterError, ParseError
from .graph import (Graph, generate_sbm, largest_connected_component,
                    load_edge_list, write_edge_list)
from .queries import exact_triangles, expected_triangles
from .spectral import lm_eigs
from .stiefel import AscentTrace, OcsaConfig, ocsa, random_orthonormal_init
from .summary import (Membership, ReassignConfig, Summary,
                      _summarize_counts, _timed, specsumm)

__all__ = ["SummaryFile", "read_summary_file", "main"]

FORMAT_VERSION = 1

# exact_triangles takes time in proportion to the oriented two-path count;
# past this order the estimate is reported alone.
_EXACT_TRIANGLE_LIMIT = 10_000


@contextmanager
def _atomic_output(path: str | Path) -> Iterator[TextIO]:
    """Text handle whose content replaces ``path`` only once fully written.

    The text goes to a temporary file beside the target, which os.replace
    then renames over it; on any failure the temporary file is removed and
    an earlier file at ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class SummaryFile:
    """On-disk form of a summary: versioned JSON, densities packed as the
    upper triangle in row-major order.

    Serialization uses Python's shortest round-trip decimal form for
    floats (at most 17 significant digits), so write -> read -> write is
    byte-identical and no precision is lost.
    """

    n: int
    k: int
    membership: list[int]
    densities: list[float]
    meta: dict

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ParseError("n and k must be positive")
        if len(self.membership) != self.n:
            raise ParseError("membership length does not match n")
        # Built-in min and max: ids beyond int64 still compare exactly.
        if not 0 <= min(self.membership) <= max(self.membership) < self.k:
            raise ParseError("membership values must lie in [0, k)")
        if len(self.densities) != self.k * (self.k + 1) // 2:
            raise ParseError("densities length must be k(k+1)/2")

    @classmethod
    def from_summary(cls, summary: Summary, meta: dict) -> "SummaryFile":
        k = summary.k
        packed = summary.density[np.triu_indices(k)]
        return cls(n=summary.membership.n, k=k,
                   membership=summary.membership.assign.tolist(),
                   densities=packed.tolist(), meta=meta)

    def density_matrix(self) -> np.ndarray:
        full = np.zeros((self.k, self.k))
        iu = np.triu_indices(self.k)
        full[iu] = self.densities
        full[(iu[1], iu[0])] = self.densities
        return full

    def to_summary(self) -> Summary:
        try:
            membership = Membership(
                np.asarray(self.membership, dtype=np.int64), self.k)
            return Summary(membership, self.density_matrix())
        except ParameterError as exc:
            raise ParseError(f"malformed summary file: {exc}") from None

    def write(self, path: str | Path) -> None:
        payload = {"format_version": FORMAT_VERSION, "n": self.n,
                   "k": self.k, "membership": self.membership,
                   "densities": self.densities, "meta": self.meta}
        with _atomic_output(path) as handle:
            handle.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")


def read_summary_file(path: str | Path) -> SummaryFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read summary file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"summary file is not UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"summary file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("summary file nests JSON too deeply") from None
    if not isinstance(payload, dict):
        raise ParseError("summary file must hold a JSON object")
    # Exact JSON types, no coercion: "000" is not a membership list, 0.9 is
    # not a supernode id, and true and 1.0 are neither a count nor format
    # version 1.  json.loads gives JSON integers the exact type int and
    # booleans bool.
    version = payload.get("format_version")
    if not (type(version) is int and version == FORMAT_VERSION):
        raise ParseError(f"unsupported format_version {version!r}")
    try:
        n, k = payload["n"], payload["k"]
        membership, densities = payload["membership"], payload["densities"]
    except KeyError as exc:
        raise ParseError(f"malformed summary file: missing {exc}") from None
    if not type(n) is type(k) is int:
        raise ParseError("n and k must be JSON integers")
    if not (isinstance(membership, list)
            and set(map(type, membership)) <= {int}):
        raise ParseError("membership must be a list of JSON integers")
    if not (isinstance(densities, list)
            and set(map(type, densities)) <= {int, float}):
        raise ParseError("densities must be a list of JSON numbers")
    try:
        return SummaryFile(n=n, k=k, membership=membership,
                           densities=list(map(float, densities)),
                           meta=payload.get("meta", {}))
    except OverflowError as exc:
        raise ParseError(f"malformed summary file: {exc}") from exc


def _write_trace(path: str | Path, trace: AscentTrace) -> None:
    """TSV trace: one row per objective value; the starting row has no
    step size."""
    lines = ["iter\tF\ttau"]
    for i, value in enumerate(trace.objectives):
        tau = "" if i == 0 else repr(float(trace.step_sizes[i - 1]))
        lines.append(f"{i}\t{float(value)!r}\t{tau}")
    with _atomic_output(path) as handle:
        handle.write("\n".join(lines) + "\n")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                     allow_nan=False))


def _load_graph(path: str | Path) -> tuple[Graph, bytes]:
    """The graph in an edge-list file and the bytes it was parsed from,
    read once."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read graph file: {exc}") from exc
    graph, _ = load_edge_list(io.BytesIO(data))
    return graph, data


def _stored_summary(graph: Graph,
                    path: str | Path) -> tuple[Graph, Summary]:
    """The summary stored at ``path`` and the graph it covers: the graph
    itself, or its largest connected component when the summary was made
    with ``--lcc`` and the node counts differ (a connected graph pays no
    extra pass)."""
    stored = read_summary_file(path)
    meta = stored.meta if isinstance(stored.meta, dict) else {}
    params = meta.get("params")
    if (stored.n != graph.node_count and isinstance(params, dict)
            and params.get("lcc") is True):
        graph, _ = largest_connected_component(graph)
    if stored.n != graph.node_count:
        raise ParameterError(f"summary is for n={stored.n}, "
                             f"graph has n={graph.node_count}")
    return graph, stored.to_summary()


def _metrics(graph: Graph, summary: Summary, objective: float,
             loss: float) -> dict:
    return {"F": objective, "L": loss,
            "sqrt_L": math.sqrt(max(loss, 0.0)),
            "triangles_estimate": expected_triangles(summary).expected,
            "n": graph.node_count, "m": graph.edge_count, "k": summary.k}


def cmd_summarize(args: argparse.Namespace) -> int:
    reassign = ReassignConfig(rounds=args.reassign_rounds,
                              samples_per_round=args.reassign_samples)
    seconds: dict[str, float] = {}
    with _timed(seconds, "load"):
        graph, data = _load_graph(args.graph)
    with _timed(seconds, "lcc"):
        if args.lcc:
            graph, _ = largest_connected_component(graph)
    source_hash = "sha256:" + hashlib.sha256(data).hexdigest()
    del data  # the hash is all that is kept of the file's bytes

    method = {"lm": "lm-eigvecs", "ocsa": "ocsa-random"}[args.method]
    summary, report = specsumm(graph, args.k, d=args.eigvecs,
                               relax_method=method, reassign=reassign,
                               seed=args.seed)
    seconds.update(report.seconds)

    with _timed(seconds, "triangles"):
        payload = _metrics(graph, summary, report.objective, report.loss)
    payload["seconds"] = seconds
    payload["reassign_moves"] = report.reassign_moves
    payload["cluster"] = report.cluster

    meta = {"source_hash": source_hash, "d": report.d,
            "relax_method": report.relax_method, "seeds": report.seeds,
            "params": {"k": args.k, "lcc": bool(args.lcc),
                       "reassign_rounds": args.reassign_rounds,
                       "reassign_samples": args.reassign_samples}}
    SummaryFile.from_summary(summary, meta).write(args.out)
    _print_json(payload)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    seconds: dict[str, float] = {}
    with _timed(seconds, "load"):
        graph, _ = _load_graph(args.graph)
    with _timed(seconds, "evaluate"):
        graph, summary = _stored_summary(graph, args.summary)
        recomputed, objective, loss = _summarize_counts(graph,
                                                        summary.membership)
        drift = float(np.max(np.abs(summary.density - recomputed.density),
                             initial=0.0))
        payload = _metrics(graph, recomputed, objective, loss)
    payload["density_drift_max"] = drift
    payload["density_drift"] = drift > 1e-9
    payload["seconds"] = seconds
    _print_json(payload)
    return 0


def cmd_relax(args: argparse.Namespace) -> int:
    config = OcsaConfig(max_iterations=args.iters, initial_step=args.tau,
                        relative_tolerance=args.tol)
    graph, _ = _load_graph(args.graph)
    n = graph.node_count
    if not 1 <= args.k <= n:
        raise ParameterError(f"k={args.k} out of range for n={n}")
    if args.init == "lm-eigvecs":
        start = lm_eigs(graph, args.k, seed=args.seed).vectors
    else:
        start = random_orthonormal_init(n, args.k, args.seed)
    seconds: dict[str, float] = {}
    with _timed(seconds, "ascent"):
        _, trace = ocsa(graph, start, config)
    if args.trace:
        _write_trace(args.trace, trace)
    _print_json({"F": float(trace.objectives[-1]),
                 "initial_F": float(trace.objectives[0]),
                 "iterations": trace.iterations, "reason": trace.reason,
                 "backtracks": trace.backtracks,
                 "n": n, "k": args.k, "init": args.init,
                 "seconds": seconds["ascent"]})
    return 0


def cmd_gen_sbm(args: argparse.Namespace) -> int:
    graph, planted = generate_sbm(args.blocks, args.size, args.p_in,
                                  args.p_out, args.seed)
    with _atomic_output(args.out) as handle:
        write_edge_list(graph, handle)
    membership_path = str(args.out) + ".membership"
    with _atomic_output(membership_path) as handle:
        handle.write("".join(f"{int(label)}\n" for label in planted.assign))
    _print_json({"n": graph.node_count, "m": graph.edge_count,
                 "edges_path": str(args.out),
                 "membership_path": membership_path})
    return 0


def cmd_triangles(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args.graph)
    graph, summary = _stored_summary(graph, args.summary)
    exact = (exact_triangles(graph)
             if graph.node_count <= _EXACT_TRIANGLE_LIMIT else None)
    _print_json({"estimate": expected_triangles(summary).expected,
                 "exact": exact})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsumm",
        description="Spectral graph summarization: group nodes into "
                    "supernodes and store pairwise edge densities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="build and store a graph summary")
    p.add_argument("graph", help="edge-list file, one 'u v' pair per line")
    p.add_argument("--k", type=int, required=True,
                   help="number of supernodes")
    p.add_argument("--eigvecs", type=int, default=None, metavar="D",
                   help="embedding dimension (default: k)")
    p.add_argument("--method", choices=["lm", "ocsa"], default="lm",
                   help="relaxation: eigenvectors (lm) or ascent from a "
                        "random start (ocsa)")
    p.add_argument("--reassign-rounds", type=int, default=0,
                   help="greedy refinement rounds (0 disables)")
    p.add_argument("--reassign-samples", type=int, default=500,
                   help="nodes sampled per refinement round")
    p.add_argument("--lcc", action="store_true",
                   help="summarize only the largest connected component")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="summary file to write")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="recompute metrics for a summary")
    p.add_argument("graph")
    p.add_argument("summary")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("relax", help="run the constrained ascent alone")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--init", choices=["lm-eigvecs", "random"],
                   default="lm-eigvecs")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--tau", type=float, default=0.001,
                   help="first trial step of the first iteration")
    p.add_argument("--tol", type=float, default=0.001,
                   help="relative-gain stopping tolerance")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", default=None, metavar="OUT.TSV",
                   help="write the objective trace as TSV")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("gen-sbm", help="generate a planted-partition graph")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--size", type=int, required=True,
                   help="nodes per block")
    p.add_argument("--p-in", type=float, required=True,
                   help="intra-block edge probability")
    p.add_argument("--p-out", type=float, default=0.0,
                   help="inter-block edge probability")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="edge-list file to write; "
                   "planted labels go to <out>.membership")
    p.set_defaults(func=cmd_gen_sbm)

    p = sub.add_parser("triangles",
                       help="triangle estimate from a stored summary")
    p.add_argument("graph")
    p.add_argument("summary")
    p.set_defaults(func=cmd_triangles)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ParameterError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
