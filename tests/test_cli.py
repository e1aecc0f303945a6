import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specsumm
from specsumm import Membership, build_summary, generate_sbm, write_edge_list
from specsumm import cli
from specsumm.cli import SummaryFile, main, read_summary_file

TWO_TRIANGLES = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
K3 = "0 1\n0 2\n1 2\n"


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
        assert "reassign" in report["seconds"]

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
        out = str(tmp_path / "s.json")
        _, made = _run(capsys, ["summarize", graph_file, "--k", "2",
                                "--seed", "0", "--out", out])
        code, evaluated = _run(capsys, ["evaluate", graph_file, out])
        assert code == 0
        assert evaluated["F"] == made["F"]
        assert evaluated["L"] == made["L"]
        assert evaluated["density_drift"] is False
        assert evaluated["density_drift_max"] == 0.0

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

    def test_nan_density_is_parameter_error(self, tmp_path, capsys):
        graph = tmp_path / "k3.txt"
        graph.write_text(K3)
        doc = {"format_version": 1, "n": 3, "k": 2,
               "membership": [0, 0, 1],
               "densities": [0.5, float("nan"), 0.0], "meta": {}}
        summary = tmp_path / "nan.json"
        summary.write_text(json.dumps(doc))
        for command in ("evaluate", "triangles"):
            code = main([command, str(graph), str(summary)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == "error: density entries must be finite\n"

    def test_corrupt_summary_file(self, tmp_path, graph_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evaluate", graph_file, str(bad)]) == 1

    def test_wrong_format_version(self, tmp_path, graph_file):
        bad = tmp_path / "v9.json"
        bad.write_text(json.dumps({"format_version": 9, "n": 6, "k": 1,
                                   "membership": [0] * 6, "densities": [0.1],
                                   "meta": {}}))
        assert main(["evaluate", graph_file, str(bad)]) == 1


class TestRelax:
    def test_eigvec_init_exits_at_once(self, tmp_path, graph_file, capsys):
        trace_path = tmp_path / "trace.tsv"
        code, report = _run(capsys, ["relax", graph_file, "--k", "2",
                                     "--seed", "0",
                                     "--trace", str(trace_path)])
        assert code == 0
        assert report["reason"] == "no-ascent-step"
        assert report["iterations"] == 0
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

    def test_k_out_of_range(self, graph_file):
        assert main(["relax", graph_file, "--k", "7"]) == 2


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


class TestTriangles:
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


@pytest.mark.parametrize("method_args", [
    ["--method", "lm", "--reassign-rounds", "2"],
    ["--method", "ocsa"],
], ids=["lm-reassign", "ocsa"])
def test_summary_bytes_do_not_depend_on_blas_threads(tmp_path, method_args):
    graph, _ = generate_sbm(20, 50, 0.25, 0.05, seed=1)
    edges = tmp_path / "sbm.txt"
    write_edge_list(graph, edges)
    src = str(Path(specsumm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": pythonpath}
        subprocess.run([sys.executable, "-m", "specsumm.cli", "summarize",
                        str(edges), "--k", "20", "--seed", "0", *method_args,
                        "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        written.append(out.read_bytes())
    assert written[0] == written[1]
