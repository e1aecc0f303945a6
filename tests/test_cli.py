import dataclasses
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import specsumm
from specsumm import (Graph, Membership, build_summary, generate_sbm,
                      objective_integer, write_edge_list)
from specsumm import cli
from specsumm import summary as summary_module
from specsumm.cli import SummaryFile, main, read_summary_file

from conftest import fresh_env

TWO_TRIANGLES = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
K3 = "0 1\n0 2\n1 2\n"
# A key a test case leaves out of a summary file.
_MISSING = object()


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "two_triangles.txt"
    path.write_text(TWO_TRIANGLES)
    return str(path)


class TestSummarize:
    def test_two_triangles_report(self, tmp_path, graph_file, capsys):
        out = str(tmp_path / "s.json")
        code, report = _run(capsys, ["summarize", graph_file, "--k", "2",
                                     "--seed", "0", "--out", out])
        assert code == 0
        assert report["F"] == pytest.approx(8.0)
        assert report["L"] == pytest.approx(4.0)
        assert report["sqrt_L"] == pytest.approx(2.0)
        assert (report["n"], report["m"], report["k"]) == (6, 6, 2)
        assert report["F"] + report["L"] == pytest.approx(2 * report["m"],
                                                          rel=1e-6)

    def test_written_file_round_trips_byte_identically(self, tmp_path,
                                                       graph_file, capsys):
        first = tmp_path / "a.json"
        code, _ = _run(capsys, ["summarize", graph_file, "--k", "2",
                                "--seed", "3", "--out", str(first)])
        assert code == 0
        second = tmp_path / "b.json"
        read_summary_file(first).write(second)
        assert first.read_bytes() == second.read_bytes()

    def test_stored_metadata(self, tmp_path, graph_file, capsys):
        out = tmp_path / "s.json"
        _run(capsys, ["summarize", graph_file, "--k", "3", "--eigvecs", "2",
                      "--seed", "5", "--out", str(out)])
        stored = read_summary_file(out)
        assert stored.n == 6 and stored.k == 3
        assert len(stored.densities) == 6
        assert stored.meta["d"] == 2
        assert stored.meta["relax_method"] == "lm-eigvecs"
        assert stored.meta["seeds"]["master"] == 5
        assert stored.meta["source_hash"].startswith("sha256:")

    def test_source_hash_is_of_the_parsed_bytes(self, tmp_path, graph_file,
                                                 capsys, monkeypatch):
        # The file is replaced right after it is parsed; the recorded hash
        # still names the bytes that were summarized.
        parsed = Path(graph_file).read_bytes()
        load = cli.load_edge_list

        def load_then_replace(source):
            loaded = load(source)
            Path(graph_file).write_text(K3)
            return loaded

        monkeypatch.setattr(cli, "load_edge_list", load_then_replace)
        out = tmp_path / "s.json"
        code, report = _run(capsys, ["summarize", graph_file, "--k", "2",
                                     "--seed", "0", "--out", str(out)])
        assert code == 0 and report["n"] == 6
        assert read_summary_file(out).meta["source_hash"] == (
            "sha256:" + hashlib.sha256(parsed).hexdigest())

    def test_singleton_limit_is_lossless(self, tmp_path, graph_file, capsys):
        code, report = _run(capsys, ["summarize", graph_file, "--k", "6",
                                     "--seed", "0",
                                     "--out", str(tmp_path / "s.json")])
        assert code == 0
        assert report["L"] == pytest.approx(0.0, abs=1e-9)

    def test_k_zero_is_parameter_error(self, tmp_path, graph_file):
        code = main(["summarize", graph_file, "--k", "0",
                     "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_negative_reassign_rounds_is_parameter_error(self, tmp_path,
                                                         graph_file, capsys):
        out = tmp_path / "s.json"
        for flag, value, message in (
                ("--reassign-rounds", "-3", "rounds must be >= 0"),
                ("--reassign-samples", "0", "samples_per_round must be >= 1")):
            code = main(["summarize", graph_file, "--k", "2", flag, value,
                         "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("failure", ["no-convergence", "arpack-error"])
    def test_solver_failure_exits_3(self, tmp_path, graph_file, capsys,
                                    monkeypatch, failure):
        import scipy.sparse.linalg as linalg

        def failed(*args, **kwargs):
            if failure == "no-convergence":
                raise linalg.ArpackNoConvergence("ARPACK stalled",
                                                 np.empty(0), np.empty((6, 0)))
            raise linalg.ArpackError(-9999)
        # lm_eigs imports eigsh from scipy.sparse.linalg when it runs.
        monkeypatch.setattr(linalg, "eigsh", failed)
        out = tmp_path / "s.json"
        code = main(["summarize", graph_file, "--k", "2", "--seed", "0",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_missing_graph_file(self, tmp_path):
        code = main(["summarize", str(tmp_path / "no_such.txt"), "--k", "2",
                     "--out", str(tmp_path / "s.json")])
        assert code == 1

    @pytest.mark.parametrize("content", [
        b"0 1\n1 9223372036854775808\n",
        b"0 1\n1 \xff2\n",
    ], ids=["id-beyond-int64", "non-utf8"])
    def test_unparseable_edge_list_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "g.txt"
        path.write_bytes(content)
        code = main(["summarize", str(path), "--k", "1",
                     "--out", str(tmp_path / "s.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: ")

    def test_reassignment_and_lcc_flags(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(TWO_TRIANGLES + "6 7\n")  # stray 2-node component
        code, report = _run(capsys, ["summarize", str(path), "--k", "2",
                                     "--reassign-rounds", "2", "--seed", "1",
                                     "--lcc",
                                     "--out", str(tmp_path / "s.json")])
        assert code == 0
        assert report["n"] == 3  # one triangle survives the LCC cut
        assert {"load", "lcc", "reassign"} <= set(report["seconds"])

    def test_report_is_one_strict_json_line_with_the_cluster_record(
            self, tmp_path, capsys):
        graph, _ = generate_sbm(6, 25, 0.3, 0.05, seed=8)
        path = tmp_path / "sbm.txt"
        with open(path, "w") as handle:
            write_edge_list(graph, handle)

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        code = main(["summarize", str(path), "--k", "6", "--seed", "4",
                     "--out", str(tmp_path / "s.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        cluster = json.loads(out, parse_constant=reject)["cluster"]
        assert set(cluster) == {"batches", "stop", "cost", "repairs"}
        assert cluster["stop"] in ("plateau", "cap")
        assert isinstance(cluster["cost"], float) and cluster["cost"] >= 0
        assert isinstance(cluster["batches"], int)
        assert isinstance(cluster["repairs"], int)
        # The record is specsumm()'s, through a float-exact round trip.
        from specsumm import load_edge_list
        loaded, _ = load_edge_list(path)
        _, report = specsumm.specsumm(loaded, 6, seed=4)
        assert cluster == report.cluster

    def test_seed_reproducibility(self, tmp_path, graph_file, capsys):
        args = ["summarize", graph_file, "--k", "2", "--seed", "9"]
        code, a = _run(capsys, args + ["--out", str(tmp_path / "a.json")])
        assert code == 0
        code, b = _run(capsys, args + ["--out", str(tmp_path / "b.json")])
        assert code == 0
        a.pop("seconds"), b.pop("seconds")
        assert a == b
        bytes_a = (tmp_path / "a.json").read_bytes()
        assert bytes_a == (tmp_path / "b.json").read_bytes()


class TestEvaluate:
    def test_round_trip_matches_summarize(self, tmp_path, graph_file, capsys):
        graph, _ = generate_sbm(6, 25, 0.3, 0.15, seed=8)
        sbm_file = str(tmp_path / "sbm.txt")
        with open(sbm_file, "w") as handle:
            write_edge_list(graph, handle)
        for path, args in ((graph_file, ["--k", "2"]),
                           (sbm_file, ["--k", "6", "--reassign-rounds", "2"]),
                           (sbm_file, ["--k", "6", "--method", "ocsa"])):
            out = str(tmp_path / "s.json")
            _, made = _run(capsys, ["summarize", path, *args, "--seed", "0",
                                    "--out", out])
            if "--reassign-rounds" in args:
                assert made["reassign_moves"] > 0
            code, evaluated = _run(capsys, ["evaluate", path, out])
            assert code == 0
            assert evaluated["F"] == made["F"]
            assert evaluated["L"] == made["L"]
            assert evaluated["density_drift"] is False
            assert evaluated["density_drift_max"] == 0.0

    def test_edges_counted_once(self, tmp_path, capsys, monkeypatch):
        graph, _ = generate_sbm(6, 25, 0.3, 0.15, seed=8)
        graph_path = tmp_path / "sbm.txt"
        with open(graph_path, "w") as handle:
            write_edge_list(graph, handle)
        out = tmp_path / "s.json"
        _run(capsys, ["summarize", str(graph_path), "--k", "6", "--seed", "2",
                      "--out", str(out)])
        calls = []
        counter = summary_module.supernode_edge_counts

        def counted(g, membership):
            calls.append(membership.k)
            return counter(g, membership)

        monkeypatch.setattr(summary_module, "supernode_edge_counts", counted)
        code, report = _run(capsys, ["evaluate", str(graph_path), str(out)])
        monkeypatch.undo()
        assert code == 0
        assert calls == [6]
        stored = read_summary_file(out).to_summary()
        rebuilt = build_summary(graph, stored.membership)
        assert report["F"] == objective_integer(graph, stored.membership)
        assert report["triangles_estimate"] == cli.expected_triangles(
            rebuilt).expected
        assert report["density_drift_max"] == float(
            np.max(np.abs(stored.density - rebuilt.density)))

    def test_load_seconds_time_the_graph_alone(self, tmp_path, graph_file,
                                              capsys, monkeypatch):
        out = str(tmp_path / "s.json")
        _run(capsys, ["summarize", graph_file, "--k", "2", "--seed", "0",
                      "--out", out])
        reader = cli.read_summary_file

        def slow_read(path):
            time.sleep(0.3)
            return reader(path)

        monkeypatch.setattr(cli, "read_summary_file", slow_read)
        code, report = _run(capsys, ["evaluate", graph_file, out])
        assert code == 0
        assert report["seconds"]["load"] < 0.3
        assert report["seconds"]["evaluate"] >= 0.3

    def test_wrong_graph_size(self, tmp_path, graph_file, capsys):
        out = str(tmp_path / "s.json")
        _run(capsys, ["summarize", graph_file, "--k", "2", "--seed", "0",
                      "--out", out])
        other = tmp_path / "k3.txt"
        other.write_text(K3)
        assert main(["evaluate", str(other), out]) == 2

    def test_handwritten_singleton_summary(self, tmp_path, capsys):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3)
        doc = {"format_version": 1, "n": 3, "k": 3,
               "membership": [0, 1, 2],
               "densities": [0.0, 1.0, 1.0, 0.0, 1.0, 0.0],
               "meta": {}}
        summary = tmp_path / "hand.json"
        summary.write_text(json.dumps(doc))
        code, report = _run(capsys, ["evaluate", str(graph), str(summary)])
        assert code == 0
        assert report["L"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("membership, densities, message", [
        ([0, 0, 0], "[0.5, 0.0, 0.0]",
         "every supernode must contain a node"),
        ([0, 0, 1], "[0.5, 1.5, 0.0]", "density entries must lie in [0, 1]"),
        ([0, 0, 1], "[0.5, 1e400, 0.0]", "density entries must be finite"),
        ([0, 0, 1], "[0.5, NaN, 0.0]", "density entries must be finite"),
    ], ids=["empty-supernode", "density-1.5", "inf", "nan"])
    @pytest.mark.parametrize("command", ["evaluate", "triangles"])
    def test_summary_breaking_an_invariant_is_parse_error(
            self, tmp_path, capsys, command, membership, densities, message):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3)
        summary = tmp_path / "bad.json"
        summary.write_text(
            '{"format_version": 1, "n": 3, "k": 2, "membership": '
            f'{membership}, "densities": {densities}, "meta": {{}}}}')
        code = main([command, str(graph), str(summary)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: malformed summary file: {message}\n"

    @pytest.mark.parametrize("field, value", [
        (None, None),
        ("membership", "000"),
        ("membership", [0, 0.9, 0]),
        ("membership", [0, 0, False]),
        ("n", 3.7),
        ("n", 3.0),
        ("k", True),
        ("densities", ["0.5"]),
        ("densities", [False]),
        ("densities", {"0.5": 1}),
        ("k", 0),
        ("membership", [0, 0, 1]),
        ("densities", [0.5, 0.5]),
        ("densities", _MISSING),
        (None, [1, 3, 1, [0, 0, 0], [0.5]]),
        ("densities", [10 ** 400])])
    def test_summary_fields_are_not_coerced(self, tmp_path, capsys, field,
                                            value):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3)
        doc = {"format_version": 1, "n": 3, "k": 1, "membership": [0, 0, 0],
               "densities": [0.5]}
        if value is _MISSING:
            del doc[field]
        elif field is not None:
            doc[field] = value
        elif value is not None:
            doc = value
        summary = tmp_path / "typed.json"
        summary.write_text(json.dumps(doc))
        code = main(["evaluate", str(graph), str(summary)])
        captured = capsys.readouterr()
        if field is value is None:
            assert code == 0
            return
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        with pytest.raises(specsumm.ParseError):
            read_summary_file(summary)

    def test_corrupt_summary_file(self, tmp_path, graph_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evaluate", graph_file, str(bad)]) == 1

    @pytest.mark.parametrize("name", ["missing.json", "."],
                             ids=["missing", "directory"])
    def test_unreadable_summary_path_exits_1(self, tmp_path, capsys,
                                             graph_file, name):
        code = main(["evaluate", graph_file, str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read summary file")

    def test_wrong_format_version(self, tmp_path, graph_file):
        bad = tmp_path / "v9.json"
        bad.write_text(json.dumps({"format_version": 9, "n": 6, "k": 1,
                                   "membership": [0] * 6, "densities": [0.1],
                                   "meta": {}}))
        assert main(["evaluate", graph_file, str(bad)]) == 1

    @pytest.mark.parametrize("version", [True, 1.0, "1"],
                             ids=["true", "1.0", "string"])
    def test_format_version_must_be_the_integer_1(self, tmp_path, capsys,
                                                  graph_file, version):
        # true and 1.0 compare equal to 1 but are not the JSON integer 1.
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps({"format_version": version, "n": 6,
                                   "k": 1, "membership": [0] * 6,
                                   "densities": [0.1], "meta": {}}))
        code = main(["evaluate", graph_file, str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: unsupported format_version")
        with pytest.raises(specsumm.ParseError):
            read_summary_file(bad)


class TestRelax:
    def test_eigvec_init_exits_at_once(self, tmp_path, graph_file, capsys):
        trace_path = tmp_path / "trace.tsv"
        code, report = _run(capsys, ["relax", graph_file, "--k", "2",
                                     "--seed", "0",
                                     "--trace", str(trace_path)])
        assert code == 0
        assert report["reason"] == "no-ascent-step"
        assert report["iterations"] == 0
        assert report["backtracks"] == 0
        assert report["F"] == report["initial_F"]

        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iter\tF\ttau"
        assert len(lines) == 2
        row = lines[1].split("\t")
        assert row[0] == "0" and row[2] == ""
        assert float(row[1]) == pytest.approx(8.0)

    def test_zero_iterations_reports_start(self, graph_file, capsys):
        code, report = _run(capsys, ["relax", graph_file, "--k", "2",
                                     "--init", "random", "--iters", "0",
                                     "--seed", "42"])
        assert code == 0
        assert report["iterations"] == 0
        assert report["F"] == report["initial_F"]

    def test_random_init_converges_on_two_triangles(self, graph_file, capsys):
        # seed 123 starts inside the global basin (see stiefel tests)
        code, report = _run(capsys, ["relax", graph_file, "--k", "2",
                                     "--init", "random", "--iters", "500",
                                     "--tol", "0", "--seed", "123"])
        assert code == 0
        assert report["F"] >= 0.99 * 8.0

    def test_trace_rows_parse_back_losslessly(self, tmp_path, graph_file,
                                              capsys):
        trace_path = tmp_path / "t.tsv"
        code, report = _run(capsys, ["relax", graph_file, "--k", "2",
                                     "--init", "random", "--iters", "40",
                                     "--seed", "123",
                                     "--trace", str(trace_path)])
        assert code == 0
        rows = trace_path.read_text().splitlines()[1:]
        values = [float(r.split("\t")[1]) for r in rows]
        assert len(values) == report["iterations"] + 1
        assert values[-1] == report["F"]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_report_and_trace_are_the_ascents(self, tmp_path, graph_file,
                                              capsys):
        # --tau is the first iteration's first trial; later steps start from
        # the last accepted one, so a trace's tau may exceed it.
        trace_path = tmp_path / "t.tsv"
        code, report = _run(capsys, ["relax", graph_file, "--k", "2",
                                     "--init", "random", "--iters", "40",
                                     "--tol", "0", "--seed", "123",
                                     "--trace", str(trace_path)])
        assert code == 0
        graph = Graph.from_edges(6, [tuple(map(int, line.split()))
                                     for line in TWO_TRIANGLES.splitlines()])
        _, trace = specsumm.ocsa(
            graph, specsumm.random_orthonormal_init(6, 2, 123),
            specsumm.OcsaConfig(max_iterations=40, relative_tolerance=0.0))
        assert type(report["backtracks"]) is int
        assert report["backtracks"] == trace.backtracks > 0
        taus = [float(row.split("\t")[2])
                for row in trace_path.read_text().splitlines()[2:]]
        assert taus == trace.step_sizes.tolist()
        assert taus[0] == 0.001 < max(taus)

    def test_k_out_of_range(self, graph_file):
        assert main(["relax", graph_file, "--k", "7"]) == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--tau", "inf", "initial_step"), ("--tau", "nan", "initial_step"),
        ("--tol", "nan", "relative_tolerance"),
        ("--tol", "inf", "relative_tolerance"),
    ])
    def test_non_finite_step_or_tolerance_exits_2(self, tmp_path, graph_file,
                                                  capsys, flag, value, name):
        trace_path = tmp_path / "t.tsv"
        code = main(["relax", graph_file, "--k", "2", "--init", "random",
                     flag, value, "--trace", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be finite")
        assert not trace_path.exists()


class TestGenSbm:
    def test_single_block_is_complete(self, tmp_path, capsys):
        out = tmp_path / "k4.txt"
        code, report = _run(capsys, ["gen-sbm", "--blocks", "1", "--size", "4",
                                     "--p-in", "1.0", "--seed", "0",
                                     "--out", str(out)])
        assert code == 0
        assert (report["n"], report["m"]) == (4, 6)
        from specsumm import load_edge_list
        graph, _ = load_edge_list(out)
        assert (graph.node_count, graph.edge_count) == (4, 6)
        labels = (tmp_path / "k4.txt.membership").read_text().split()
        assert labels == ["0"] * 4

    def test_two_disjoint_triangles(self, tmp_path, capsys):
        out = tmp_path / "tri.txt"
        code, report = _run(capsys, ["gen-sbm", "--blocks", "2", "--size", "3",
                                     "--p-in", "1.0", "--p-out", "0.0",
                                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert (report["n"], report["m"]) == (6, 6)
        labels = (tmp_path / "tri.txt.membership").read_text().split()
        assert labels == ["0"] * 3 + ["1"] * 3

    def test_benchmark_scale_edge_band(self, tmp_path, capsys):
        out = tmp_path / "sbm.txt"
        code, report = _run(capsys, ["gen-sbm", "--blocks", "20", "--size",
                                     "50", "--p-in", "0.25", "--p-out", "0.05",
                                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert report["n"] == 1000
        assert abs(report["m"] - 29875) <= 500

    def test_invalid_probabilities(self, tmp_path):
        assert main(["gen-sbm", "--blocks", "2", "--size", "3",
                     "--p-in", "0.1", "--p-out", "0.9",
                     "--out", str(tmp_path / "x.txt")]) == 2


def _path_edges(n: int) -> str:
    """The edge list of a path on n nodes, as write_edge_list gives it."""
    return "".join(f"{u} {u + 1}\n" for u in range(n - 1))


def _source_hash(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestTriangles:
    """The estimate and, up to the limit, the exact count.  Above the limit
    triangles answers from the summary alone when the summary's
    source_hash names the graph file's bytes; every other case parses the
    file and checks it against the summary."""

    def _write_single_group_summary(self, tmp_path, text, n):
        from specsumm import load_edge_list
        graph_path = tmp_path / "g.txt"
        graph_path.write_text(text)
        graph, _ = load_edge_list(graph_path)
        summary = build_summary(graph, Membership(np.zeros(n, np.int64), 1))
        summary_path = tmp_path / "s.json"
        SummaryFile.from_summary(summary, {}).write(summary_path)
        return str(graph_path), str(summary_path)

    def test_k3_exact_and_estimate(self, tmp_path, capsys):
        paths = self._write_single_group_summary(tmp_path, K3, 3)
        code, report = _run(capsys, ["triangles", *paths])
        assert code == 0
        assert report["estimate"] == pytest.approx(1.0)
        assert report["exact"] == 1

    def test_k4_exact_and_estimate(self, tmp_path, capsys):
        k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
        paths = self._write_single_group_summary(tmp_path, k4, 4)
        code, report = _run(capsys, ["triangles", *paths])
        assert code == 0
        assert report["estimate"] == pytest.approx(4.0)
        assert report["exact"] == 4

    def test_triangle_free_graph(self, tmp_path, capsys):
        paths = self._write_single_group_summary(tmp_path, "0 1\n1 2\n", 3)
        code, report = _run(capsys, ["triangles", *paths])
        assert code == 0
        assert report["exact"] == 0
        assert report["estimate"] >= 0.0

    def test_size_mismatch(self, tmp_path, capsys):
        _, summary_path = self._write_single_group_summary(tmp_path, K3, 3)
        other = tmp_path / "bigger.txt"
        other.write_text(TWO_TRIANGLES)
        assert main(["triangles", str(other), summary_path]) == 2

    N = cli._EXACT_TRIANGLE_LIMIT + 2

    @pytest.fixture
    def files(self, tmp_path):
        """A path on N nodes, the same edges after a header line, a path
        one node longer, and a three-group summary of the path, not yet
        written."""
        text = _path_edges(self.N)
        paths = {"plain": tmp_path / "plain.txt",
                 "header": tmp_path / "header.txt",
                 "longer": tmp_path / "longer.txt",
                 "summary": tmp_path / "s.json"}
        paths["plain"].write_text(text)
        paths["header"].write_text("# header\n" + text)
        paths["longer"].write_text(_path_edges(self.N + 1))
        graph = Graph.from_edges(self.N, [(u, u + 1)
                                          for u in range(self.N - 1)])
        summary = build_summary(graph, Membership(
            np.arange(self.N, dtype=np.int64) % 3, 3))
        paths["stored"] = SummaryFile.from_summary(summary, {})
        return paths

    def _write(self, files, meta):
        dataclasses.replace(files["stored"], meta=meta).write(
            files["summary"])

    @staticmethod
    def _triangles(capsys, graph_path, summary_path):
        code = main(["triangles", str(graph_path), str(summary_path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _count_parses(monkeypatch):
        calls = []
        load = cli.load_edge_list

        def counted(source):
            calls.append(source)
            return load(source)

        monkeypatch.setattr(cli, "load_edge_list", counted)
        return calls

    def test_matching_hash_answers_without_parsing(self, files, capsys,
                                                   monkeypatch):
        self._write(files, {"source_hash": _source_hash(files["plain"])})
        parsed = self._triangles(capsys, files["header"], files["summary"])
        assert parsed[0] == 0 and json.loads(parsed[1])["exact"] is None

        def refuse(source):
            raise AssertionError("the edge list was parsed")

        monkeypatch.setattr(cli, "load_edge_list", refuse)
        assert self._triangles(capsys, files["plain"],
                               files["summary"]) == parsed

    @pytest.mark.parametrize("case", ["no-hash", "non-string-hash",
                                      "non-dict-meta", "stale-hash"])
    def test_other_summaries_take_the_parse(self, files, capsys,
                                            monkeypatch, case):
        # Each claimed hash is of the very file given, in a form that must
        # not match, or of other bytes.
        for graph_path in (files["plain"], files["longer"]):
            digest = _source_hash(graph_path)
            meta = {"no-hash": {"params": {"k": 3}},
                    "non-string-hash": {"source_hash": [digest]},
                    "non-dict-meta": [{"source_hash": digest}],
                    "stale-hash": {"source_hash": _source_hash(
                        files["header"])}}[case]
            self._write(files, meta)
            calls = self._count_parses(monkeypatch)
            code, out, err = self._triangles(capsys, graph_path,
                                             files["summary"])
            monkeypatch.undo()
            assert len(calls) == 1
            if graph_path == files["longer"]:
                assert code == 2 and out == ""
                assert (f"summary is for n={self.N}, graph has "
                        f"n={self.N + 1}") in err
            else:
                assert code == 0
                self._write(files, {"source_hash": digest})
                assert self._triangles(capsys, graph_path,
                                       files["summary"]) == (code, out, err)

    def test_small_graph_takes_the_parse_for_its_exact_count(
            self, tmp_path, capsys, monkeypatch, k3):
        graph_path, other = tmp_path / "k3.txt", tmp_path / "two.txt"
        graph_path.write_text(K3)
        other.write_text(TWO_TRIANGLES)
        summary = build_summary(k3, Membership(np.zeros(3, np.int64), 1))
        summary_path = tmp_path / "s.json"
        for path in (graph_path, other):
            SummaryFile.from_summary(
                summary, {"source_hash": _source_hash(path)}).write(
                    summary_path)
            calls = self._count_parses(monkeypatch)
            code, out, err = self._triangles(capsys, path, summary_path)
            monkeypatch.undo()
            assert len(calls) == 1
            if path == graph_path:
                assert code == 0 and json.loads(out)["exact"] == 1
            else:
                # A hash that matches does not stand in for the node
                # count below the limit.
                assert code == 2
                assert "summary is for n=3, graph has n=6" in err

    def test_unreadable_graph_is_reported_before_the_summary(self, files,
                                                             capsys):
        # Neither file exists.
        code, out, err = self._triangles(capsys, files["plain"].parent /
                                         "missing.txt", files["summary"])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read graph file")

    def test_summary_error_comes_before_the_graphs(self, files, capsys):
        files["header"].write_text("0 1\n1 x\n")
        files["summary"].write_text("{not json")
        code, out, err = self._triangles(capsys, files["header"],
                                         files["summary"])
        assert code == 1 and out == ""
        assert err.startswith("error: summary file is not valid JSON")


class TestLccSummaries:
    """A summary made with --lcc covers the graph's largest connected
    component, and evaluate and triangles measure it on that component."""

    # Two triangles joined by an edge (the component), plus a detached
    # triangle and a detached edge.
    EDGES = ("0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"
             "6 7\n6 8\n7 8\n9 10\n")

    def _summarize(self, tmp_path, capsys, *extra):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text(self.EDGES)
        out = tmp_path / "s.json"
        code, made = _run(capsys, ["summarize", str(graph_path), "--k", "2",
                                   "--seed", "1", "--lcc", *extra,
                                   "--out", str(out)])
        assert code == 0
        assert made["n"] == 6
        return str(graph_path), str(out), made

    def test_evaluate_gives_back_summarize_bits(self, tmp_path, capsys):
        for extra in ((), ("--reassign-rounds", "2")):
            graph_path, out, made = self._summarize(tmp_path, capsys, *extra)
            code, evaluated = _run(capsys, ["evaluate", graph_path, out])
            assert code == 0
            assert evaluated["F"] == made["F"]
            assert evaluated["L"] == made["L"]
            assert (evaluated["n"], evaluated["m"]) == (6, 7)
            assert evaluated["density_drift_max"] == 0.0

    def test_triangles_counts_the_component(self, tmp_path, capsys):
        graph_path, out, _ = self._summarize(tmp_path, capsys)
        code, report = _run(capsys, ["triangles", graph_path, out])
        assert code == 0
        whole = nx.parse_edgelist(self.EDGES.splitlines(), nodetype=int)
        component = whole.subgraph(max(nx.connected_components(whole),
                                       key=len))
        assert report["exact"] == sum(nx.triangles(component).values()) // 3
        assert report["exact"] == 2

    def test_other_summaries_still_need_the_graph_order(self, tmp_path,
                                                        capsys):
        graph_path, out, _ = self._summarize(tmp_path, capsys)
        stored = json.loads(Path(out).read_text())
        for meta in ({"params": {"lcc": False}}, {"params": "lcc"}, [1],
                     {}):
            stored["meta"] = meta
            Path(out).write_text(json.dumps(stored))
            for command in ("evaluate", "triangles"):
                code = main([command, graph_path, out])
                captured = capsys.readouterr()
                assert code == 2, (command, meta)
                assert "summary is for n=6, graph has n=11" in captured.err


class TestAtomicWrites:
    """Output files are written beside the target and renamed over it, so a
    failure before the rename keeps the earlier file and leaves no
    temporary file behind."""

    COMMANDS = {
        "summarize": (["summarize", "{graph}", "--k", "2", "--seed", "0",
                       "--out", "{out}"], ["out"]),
        "relax-trace": (["relax", "{graph}", "--k", "2", "--iters", "3",
                         "--trace", "{out}"], ["out"]),
        "gen-sbm": (["gen-sbm", "--blocks", "2", "--size", "3", "--p-in",
                     "1.0", "--seed", "0", "--out", "{out}"],
                    ["out", "out.membership"]),
    }

    def _argv(self, command, graph_file, tmp_path):
        argv, names = self.COMMANDS[command]
        out = tmp_path / "out"
        argv = [a.format(graph=graph_file, out=out) for a in argv]
        return argv, [tmp_path / name for name in names]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_failed_replace_keeps_earlier_file(self, tmp_path, graph_file,
                                               monkeypatch, capsys, command):
        argv, targets = self._argv(command, graph_file, tmp_path)
        for target in targets:
            target.write_text("earlier\n")
        before = sorted(tmp_path.iterdir())

        def fail(src, dst):
            raise OSError("simulated failure before rename")

        monkeypatch.setattr(cli.os, "replace", fail)
        assert main(argv) == 1
        assert "simulated failure" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        for target in targets:
            assert target.read_text() == "earlier\n"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_success_replaces_and_leaves_no_temp(self, tmp_path, graph_file,
                                                 capsys, command):
        argv, targets = self._argv(command, graph_file, tmp_path)
        for target in targets:
            target.write_text("earlier\n")
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 0
        assert sorted(tmp_path.iterdir()) == before
        for target in targets:
            assert target.read_text() != "earlier\n"

    def test_missing_directory_exits_1(self, tmp_path, graph_file):
        out = tmp_path / "absent" / "s.json"
        assert main(["summarize", graph_file, "--k", "2", "--seed", "0",
                     "--out", str(out)]) == 1
        assert not (tmp_path / "absent").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_directory_error_names_the_target(self, tmp_path,
                                                      graph_file, capsys,
                                                      command):
        # Not the temporary file beside it, which the user never named.
        argv, targets = self._argv(command, graph_file, tmp_path / "absent")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(targets[0]) in err, err
        assert ".tmp" not in err, err


@pytest.mark.parametrize("argv", [
    ["summarize", "{graph}", "--k", "2", "--out", "{out}"],
    ["gen-sbm", "--blocks", "2", "--size", "3", "--p-in", "1.0",
     "--out", "{out}"],
    ["relax", "{graph}", "--k", "2", "--init", "random", "--trace", "{out}"],
], ids=["summarize", "gen-sbm", "relax"])
def test_negative_seed_is_parameter_error(tmp_path, graph_file, capsys, argv):
    out = tmp_path / "out"
    code = main([a.format(graph=graph_file, out=out) for a in argv]
                + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"
    assert not out.exists()
    assert not (tmp_path / "out.membership").exists()


@pytest.mark.parametrize("method_args", [
    ["--method", "lm", "--reassign-rounds", "2"],
    ["--method", "ocsa"],
], ids=["lm-reassign", "ocsa"])
def test_summary_bytes_do_not_depend_on_blas_threads(tmp_path, method_args):
    graph, _ = generate_sbm(20, 50, 0.25, 0.05, seed=1)
    edges = tmp_path / "sbm.txt"
    with open(edges, "w", encoding="utf-8") as handle:
        write_edge_list(graph, handle)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = fresh_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "specsumm.cli", "summarize",
                        str(edges), "--k", "20", "--seed", "0", *method_args,
                        "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        written.append(out.read_bytes())
    assert written[0] == written[1]


# Runs the CLI on its arguments, if any, in a fresh interpreter, then prints
# the scipy modules loaded as the last line of standard output.
_SCIPY_PROBE = """
import json, sys
import specsumm, specsumm.cli
code = specsumm.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy")))
sys.exit(code)
"""


class TestScipyLoadedOnlyWhenCalled:
    """Importing scipy is most of a cold start, so only the commands that
    call it load it: the relaxation (summarize, relax) and the exact
    triangle count.  Each case runs in a fresh interpreter, because this
    one has scipy loaded already."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """Graphs and one-group summaries on either side of the exact
        triangle count's limit."""
        root = tmp_path_factory.mktemp("scipy")
        paths = {"root": root}
        large = cli._EXACT_TRIANGLE_LIMIT + 2
        for name, n in (("small", 6), ("large", large)):
            graph = Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])
            paths[name] = root / f"{name}.txt"
            with open(paths[name], "w", encoding="utf-8") as handle:
                write_edge_list(graph, handle)
            paths[f"{name}_summary"] = root / f"{name}.summary.json"
            SummaryFile.from_summary(
                build_summary(graph, Membership(np.zeros(n, np.int64), 1)),
                {}).write(paths[f"{name}_summary"])
        # The large path plus a detached edge, and an --lcc summary of the
        # path whose source_hash names this file.
        paths["detached"] = root / "detached.txt"
        paths["detached"].write_text(_path_edges(large)
                                     + f"{large} {large + 1}\n")
        SummaryFile.from_summary(
            build_summary(graph, Membership(np.zeros(large, np.int64), 1)),
            {"source_hash": _source_hash(paths["detached"]),
             "params": {"lcc": True}}).write(root / "detached.summary.json")
        paths["detached_summary"] = root / "detached.summary.json"
        return paths

    CASES = {
        "import": ([], False),
        "gen-sbm": (["gen-sbm", "--blocks", "4", "--size", "25", "--p-in",
                     "0.2", "--seed", "1", "--out", "{root}/sbm.txt"], False),
        "evaluate": (["evaluate", "{large}", "{large_summary}"], False),
        "triangles-estimate": (["triangles", "{large}", "{large_summary}"],
                               False),
        "triangles-exact": (["triangles", "{small}", "{small_summary}"], True),
        # A matching hash leaves no need to find the component.
        "triangles-lcc-hash": (["triangles", "{detached}",
                                "{detached_summary}"], False),
        "summarize": (["summarize", "{small}", "--k", "2", "--seed", "0",
                       "--out", "{root}/s.json"], True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_scipy_modules_loaded(self, files, case):
        argv, loads_scipy = self.CASES[case]
        argv = [a.format_map(files) for a in argv]
        done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv],
                              env=fresh_env(), capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        *reports, loaded = done.stdout.splitlines()
        assert bool(json.loads(loaded)) == loads_scipy, loaded
        if case in ("triangles-estimate", "triangles-lcc-hash"):
            assert json.loads(reports[0])["exact"] is None
