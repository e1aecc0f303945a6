"""Fuzzing of the two file parsers and the CLI commands that read them.

Every input, however malformed, must either load or raise ``ParseError`` /
``ParameterError``; through ``specsumm.cli.main`` it must exit 0, 1 or 2,
with an ``error:`` message on a failure and never a traceback.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specsumm import ParameterError, ParseError, load_edge_list
from specsumm.cli import FORMAT_VERSION, main, read_summary_file

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_ids = st.one_of(st.integers(0, 6), st.integers(-3, 2**64),
                 st.sampled_from(["x", "1.5", "0x1", "-0", "1_0", "٣", ""]))
_edge_lines = st.one_of(
    st.builds(lambda u, v, sep: f"{u}{sep}{v}", _ids, _ids,
              st.sampled_from([" ", "\t", "  ", "   "])),
    st.sampled_from(["", "# comment", "% comment", "1", "1 2 3", "\r"]),
    st.text(max_size=12))
_valid_lines = st.builds("{} {}".format, st.integers(0, 8), st.integers(0, 8))
edge_texts = st.one_of(st.lists(_valid_lines, min_size=1, max_size=15),
                       st.lists(_edge_lines, max_size=12)).map("\n".join)
edge_bytes = st.one_of(st.binary(max_size=120),
                       edge_texts.map(lambda t: t.encode("utf-8", "replace")))

_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-2, 2**64),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.text(max_size=4))
_json_values = st.recursive(
    _json_leaf, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                        st.dictionaries(st.text(max_size=3),
                                                        inner, max_size=3)),
    max_leaves=8)
_summary_objects = st.fixed_dictionaries(
    {"format_version": st.one_of(st.just(FORMAT_VERSION), _json_leaf),
     "n": st.one_of(st.integers(-1, 7), _json_leaf),
     "k": st.one_of(st.integers(-1, 3), _json_leaf),
     "membership": st.one_of(st.lists(st.integers(-1, 3), max_size=7),
                             _json_values),
     "densities": st.one_of(
         st.lists(st.one_of(st.floats(-0.5, 1.5), _json_leaf), max_size=6),
         _json_values),
     "meta": _json_values})


@st.composite
def _six_node_summaries(draw):
    """Summary objects shaped for the six-node test graph, with at most one
    field swapped for an arbitrary JSON value."""
    k = draw(st.integers(1, 3))
    obj = {"format_version": FORMAT_VERSION, "n": 6, "k": k,
           "membership": draw(st.lists(st.integers(0, k - 1), min_size=6,
                                       max_size=6)),
           "densities": draw(st.lists(st.floats(-0.1, 1.1),
                                      min_size=k * (k + 1) // 2,
                                      max_size=k * (k + 1) // 2)),
           "meta": {}}
    field = draw(st.sampled_from([None, *obj]))
    if field is not None:
        obj[field] = draw(_json_values)
    return obj


summary_bytes = st.one_of(
    st.binary(max_size=80),
    st.text(max_size=80).map(str.encode),
    _summary_objects.map(lambda obj: json.dumps(obj).encode()),
    _summary_objects.map(lambda obj: json.dumps(obj)[:-3].encode()),
    _six_node_summaries().map(lambda obj: json.dumps(obj).encode()))


def _write(directory, name, data: bytes) -> str:
    path = directory / name
    path.write_bytes(data)
    return str(path)


def _check_cli(capsys, argv) -> int:
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        json.loads(captured.out)
    else:
        assert captured.err.startswith("error: ")
        assert captured.out == ""
    return code


@FUZZ
@given(data=edge_bytes)
def test_edge_list_bytes_load_or_raise(data):
    try:
        graph, ids = load_edge_list(io.BytesIO(data))
    except (ParseError, ParameterError):
        return
    assert graph.node_count == len(ids) >= 2
    assert graph.edge_count >= 1


@FUZZ
@given(text=edge_texts)
def test_edge_list_lines_load_or_raise(text):
    try:
        graph, ids = load_edge_list(io.StringIO(text))
    except (ParseError, ParameterError):
        return
    assert graph.node_count == len(ids) >= 2


@FUZZ
@given(data=summary_bytes)
def test_summary_file_loads_or_raises(tmp_path, data):
    path = _write(tmp_path, "summary.json", data)
    try:
        stored = read_summary_file(path)
    except (ParseError, ParameterError):
        return
    try:
        stored.to_summary()
    except (ParseError, ParameterError):
        pass


@FUZZ
@given(data=edge_bytes)
def test_summarize_exits_cleanly(tmp_path, capsys, data):
    graph = _write(tmp_path, "graph.txt", data)
    _check_cli(capsys, ["summarize", graph, "--k", "2", "--seed", "1",
                        "--out", str(tmp_path / "s.json")])


@FUZZ
@given(data=summary_bytes)
def test_summary_queries_exit_cleanly(tmp_path, capsys, data):
    graph = _write(tmp_path, "graph.txt", b"0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
    summary = _write(tmp_path, "summary.json", data)
    for command in ("triangles", "evaluate"):
        _check_cli(capsys, [command, graph, summary])


@pytest.mark.parametrize("data", [
    b"[" * 100_000,
    b'{"format_version": 1, "n": 1e400, "k": 1, "membership": [0], '
    b'"densities": [0]}',
    b"\xff\xfe{}"])
def test_hostile_summary_files_are_parse_errors(tmp_path, capsys, data):
    path = _write(tmp_path, "summary.json", data)
    with pytest.raises(ParseError):
        read_summary_file(path)
    graph = _write(tmp_path, "graph.txt", b"0 1\n")
    assert _check_cli(capsys, ["triangles", graph, path]) == 1
