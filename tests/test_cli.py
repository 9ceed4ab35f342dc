import json
from pathlib import Path

import pytest

from planecolor import codec
from planecolor import generators as G
from planecolor.cli import main
from planecolor.reductions import color_by_reduction
from planecolor.squares import Coloring


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.pc"
    path.write_bytes(codec.write_planar_code([G.tri_grid(3, 3)]))
    return str(path)


def test_gen_and_color(tmp_path, capsys):
    out = tmp_path / "grid.pc"
    assert main(["gen", "--kind", "tri_grid", "--params", "rows=4", "cols=4",
                 "--out", str(out)]) == 0
    trace = tmp_path / "trace.json"
    assert main(["color", "--in", str(out), "--trace", str(trace)]) == 0
    text = capsys.readouterr().out
    assert "valid" in text
    doc = json.loads(trace.read_text())
    assert doc["schema"] == "reduction-trace/1"
    assert not doc["fallback"]


def test_gen_random_seeded(tmp_path):
    out = tmp_path / "r.pc"
    assert main(["gen", "--kind", "random_planar", "--params", "n=20",
                 "--seed", "5", "--out", str(out)]) == 0
    g = codec.read_planar_code(out.read_bytes())[0]
    assert g.vertex_count == 20


def test_verify_valid_and_invalid(tmp_path, graph_file, capsys):
    g = codec.read_planar_code(Path(graph_file).read_bytes())[0]
    result = color_by_reduction(g)
    good = tmp_path / "good.json"
    good.write_text(codec.write_json(result.coloring))
    assert main(["verify", "--graph", graph_file, "--coloring", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(codec.write_json(Coloring({v: 1 for v in g.vertices()}, 20)))
    assert main(["verify", "--graph", graph_file, "--coloring", str(bad)]) == 2
    assert "violation" in capsys.readouterr().out


def test_exact_commands(tmp_path, capsys):
    path = tmp_path / "c5.pc"
    path.write_bytes(codec.write_planar_code([G.cycle(5)]))
    assert main(["exact", "--in", str(path)]) == 0
    assert "chi2 = 5" in capsys.readouterr().out
    # Bound too low: property violated.
    octa = tmp_path / "octa.pc"
    octa.write_bytes(codec.write_planar_code([G.octahedron()]))
    assert main(["exact", "--in", str(octa), "--ub", "5"]) == 2
    # Over the vertex limit: input/limit problem.
    assert main(["exact", "--in", str(octa), "--limit", "3"]) == 1


def test_discharge_command(tmp_path, graph_file, capsys):
    report = tmp_path / "report.json"
    assert main(["discharge", "--in", graph_file, "--table",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "-8" in out and "R1" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == "discharge-report/1"
    assert doc["total_final"] == "-8"


def test_configs_command(graph_file, capsys):
    assert main(["configs", "--in", graph_file]) == 0
    first = capsys.readouterr().out
    assert "K02" in first
    assert main(["configs", "--in", graph_file, "--all"]) == 0
    assert "matches" in capsys.readouterr().out


def test_stats_command(graph_file, capsys):
    assert main(["stats", "--in", graph_file]) == 0
    out = capsys.readouterr().out
    assert "euler=2" in out and "vertex degrees" in out


def test_color_batch_of_graphs(tmp_path, capsys):
    path = tmp_path / "batch.pc"
    path.write_bytes(codec.write_planar_code(
        [G.cycle(5), G.octahedron(), G.square_grid(3, 3)]))
    trace = tmp_path / "batch_trace.json"
    assert main(["color", "--in", str(path), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.count("valid") == 3
    doc = json.loads(trace.read_text())
    assert doc["schema"] == "reduction-trace-batch/1"
    assert len(doc["traces"]) == 3


def test_gen_platonic_by_name(tmp_path):
    out = tmp_path / "ico.pc"
    assert main(["gen", "--kind", "platonic", "--params", "name=icosahedron",
                 "--out", str(out)]) == 0
    g = codec.read_planar_code(out.read_bytes())[0]
    assert g.vertex_count == 12


def test_missing_file_is_input_error(capsys):
    assert main(["color", "--in", "/nonexistent.pc"]) == 1


def test_bad_json_is_input_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["color", "--in", str(path), "--format", "json"]) == 1


def test_json_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"schema": "embedded-graph/1"}'.encode("utf-16-le"))
    assert main(["color", "--in", str(path), "--format", "json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


_TRACE = {"schema": "reduction-trace/1", "steps": [{"center": 0}]}
_GRAPH = {"schema": "embedded-graph/1", "rotation": {"0": [1], "1": [0]}}


@pytest.mark.parametrize("option, doc", [
    ("--in", _TRACE),
    ("--in", [1, 2]),
    ("--in", {**_GRAPH, "labels": {"x": "a"}}),
    ("--coloring", _TRACE),
    ("--coloring", json.loads(codec.write_json(color_by_reduction(G.cycle(4))))),
    ("--coloring", _GRAPH),
    ("--coloring", [1, 2]),
], ids=["malformed-trace-as-graph", "array-as-graph", "label-key", "malformed-trace-as-coloring",
        "trace-as-coloring", "graph-as-coloring", "array-as-coloring"])
def test_wrong_document_is_input_error(tmp_path, graph_file, capsys, option, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if option == "--in":
        argv = ["color", "--in", str(path)]
    else:
        argv = ["verify", "--graph", graph_file, "--coloring", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_fallback_exit_code(tmp_path, monkeypatch, capsys):
    # Cripple the catalog so the engine cannot reduce a cycle.
    from planecolor import reductions
    from planecolor.configurations import CATALOG

    crippled = tuple(e for e in CATALOG if e.config_id != "K02")
    original = reductions.detect_iter

    def no_k02(g, catalog=None):
        return original(g, crippled)

    monkeypatch.setattr("planecolor.reductions.detect_iter", no_k02)
    path = tmp_path / "c6.pc"
    path.write_bytes(codec.write_planar_code([G.cycle(6)]))
    assert main(["color", "--in", str(path)]) == 3
    assert "FALLBACK" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["toroidal_k7", "grid_with_reversed_rotation"])
def test_positive_genus_is_input_error(tmp_path, name):
    import test_reductions

    path = tmp_path / "g.json"
    path.write_text(codec.write_json(getattr(test_reductions, name)()))
    assert main(["color", "--in", str(path)]) == 1


def test_gen_non_integer_param_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.pc"
    assert main(["gen", "--kind", "tri_grid", "--params", "rows=abc", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "rows" in err and "abc" in err
    assert not out.exists()


def test_gen_too_large_for_planar_code_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.pc"
    assert main(["gen", "--kind", "tri_grid", "--params", "rows=16", "cols=16",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "255" in err and ".json" in err
    big = tmp_path / "x.json"
    assert main(["gen", "--kind", "tri_grid", "--params", "rows=16", "cols=16",
                 "--out", str(big)]) == 0
