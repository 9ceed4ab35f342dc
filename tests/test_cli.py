import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planecolor
from planecolor import EmbeddedGraph, codec
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


def _stats_inputs():
    """(name, file name, bytes) of each input of the `stats` pin."""
    for name, g in [("path1", G.path(1)), ("path4", G.path(4)), ("cycle5", G.cycle(5)),
                    *((n, G.platonic(n)) for n in ("tetrahedron", "cube", "octahedron",
                                                   "dodecahedron", "icosahedron")),
                    ("hex3", G.hex_grid(3)), ("tri4x4", G.tri_grid(4, 4)),
                    ("random300", G.random_planar(300, 3))]:
        yield name, f"{name}.json", codec.write_json(g).encode()
    yield "isolated", "isolated.json", json.dumps(
        {"schema": "embedded-graph/1", "rotation": {"0": [1], "1": [0], "2": []}}).encode()
    yield "empty", "empty.json", json.dumps({"schema": "embedded-graph/1", "rotation": {}}).encode()
    yield "batch", "batch.pc", codec.write_planar_code([G.cube(), G.path(3), G.dodecahedron()])


# The exact output of `planecolor stats` on each input of `_stats_inputs`.
STATS_PINNED = {
    "path1": (
        "graph 0: |V|=1 |E|=0 |F|=0 euler=1 connected=True\n"
        "  vertex degrees: {0: 1}\n"
        "  face degrees:   {}\n"
        "  degree 0 (1 vertices): avg m3=0.00 m4=0.00 m5+=0.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "path4": (
        "graph 0: |V|=4 |E|=3 |F|=1 euler=2 connected=True\n"
        "  vertex degrees: {1: 2, 2: 2}\n"
        "  face degrees:   {6: 1}\n"
        "  degree 1 (2 vertices): avg m3=0.00 m4=0.00 m5+=1.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
        "  degree 2 (2 vertices): avg m3=0.00 m4=0.00 m5+=1.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "cycle5": (
        "graph 0: |V|=5 |E|=5 |F|=2 euler=2 connected=True\n"
        "  vertex degrees: {2: 5}\n"
        "  face degrees:   {5: 2}\n"
        "  degree 2 (5 vertices): avg m3=0.00 m4=0.00 m5+=2.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "tetrahedron": (
        "graph 0: |V|=4 |E|=6 |F|=4 euler=2 connected=True\n"
        "  vertex degrees: {3: 4}\n"
        "  face degrees:   {3: 4}\n"
        "  degree 3 (4 vertices): avg m3=3.00 m4=0.00 m5+=0.00 n3=3.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "cube": (
        "graph 0: |V|=8 |E|=12 |F|=6 euler=2 connected=True\n"
        "  vertex degrees: {3: 8}\n"
        "  face degrees:   {4: 6}\n"
        "  degree 3 (8 vertices): avg m3=0.00 m4=3.00 m5+=0.00 n3=3.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "octahedron": (
        "graph 0: |V|=6 |E|=12 |F|=8 euler=2 connected=True\n"
        "  vertex degrees: {4: 6}\n"
        "  face degrees:   {3: 8}\n"
        "  degree 4 (6 vertices): avg m3=4.00 m4=0.00 m5+=0.00 n3=0.00 n4=4.00 n5=0.00 n6=0.00\n"
    ),
    "dodecahedron": (
        "graph 0: |V|=20 |E|=30 |F|=12 euler=2 connected=True\n"
        "  vertex degrees: {3: 20}\n"
        "  face degrees:   {5: 12}\n"
        "  degree 3 (20 vertices): avg m3=0.00 m4=0.00 m5+=3.00 n3=3.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "icosahedron": (
        "graph 0: |V|=12 |E|=30 |F|=20 euler=2 connected=True\n"
        "  vertex degrees: {5: 12}\n"
        "  face degrees:   {3: 20}\n"
        "  degree 5 (12 vertices): avg m3=5.00 m4=0.00 m5+=0.00 n3=0.00 n4=0.00 n5=5.00 n6=0.00\n"
    ),
    "hex3": (
        "graph 0: |V|=54 |E|=72 |F|=20 euler=2 connected=True\n"
        "  vertex degrees: {2: 18, 3: 36}\n"
        "  face degrees:   {6: 19, 30: 1}\n"
        "  degree 2 (18 vertices): avg m3=0.00 m4=0.00 m5+=2.00 n3=1.33 n4=0.00 n5=0.00 n6=0.00\n"
        "  degree 3 (36 vertices): avg m3=0.00 m4=0.00 m5+=3.00 n3=2.33 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "tri4x4": (
        "graph 0: |V|=16 |E|=33 |F|=19 euler=2 connected=True\n"
        "  vertex degrees: {2: 2, 3: 2, 4: 8, 6: 4}\n"
        "  face degrees:   {3: 18, 12: 1}\n"
        "  degree 2 (2 vertices): avg m3=1.00 m4=0.00 m5+=1.00 n3=0.00 n4=2.00 n5=0.00 n6=0.00\n"
        "  degree 3 (2 vertices): avg m3=2.00 m4=0.00 m5+=1.00 n3=0.00 n4=2.00 n5=0.00 n6=1.00\n"
        "  degree 4 (8 vertices): avg m3=3.00 m4=0.00 m5+=1.00 n3=0.50 n4=1.50 n5=0.00 n6=1.50\n"
        "  degree 6 (4 vertices): avg m3=6.00 m4=0.00 m5+=0.00 n3=0.50 n4=3.00 n5=0.00 n6=2.50\n"
    ),
    "random300": (
        "graph 0: |V|=300 |E|=598 |F|=300 euler=2 connected=True\n"
        "  vertex degrees: {1: 8, 2: 31, 3: 61, 4: 92, 5: 73, 6: 35}\n"
        "  face degrees:   {3: 231, 4: 40, 5: 7, 6: 5, 7: 5, 8: 2, 9: 4, 10: 2, 11: 1, 12: 1, 15: 1, 133: 1}\n"
        "  degree 1 (8 vertices): avg m3=0.00 m4=0.00 m5+=1.00 n3=0.12 n4=0.25 n5=0.25 n6=0.25\n"
        "  degree 2 (31 vertices): avg m3=0.32 m4=0.16 m5+=1.48 n3=0.55 n4=0.77 n5=0.29 n6=0.03\n"
        "  degree 3 (61 vertices): avg m3=1.20 m4=0.33 m5+=1.44 n3=0.52 n4=1.16 n5=0.70 n6=0.31\n"
        "  degree 4 (92 vertices): avg m3=1.96 m4=0.73 m5+=1.26 n3=0.77 n4=1.30 n5=1.05 n6=0.59\n"
        "  degree 5 (73 vertices): avg m3=3.38 m4=0.73 m5+=0.85 n3=0.59 n4=1.33 n5=1.84 n6=1.10\n"
        "  degree 6 (35 vertices): avg m3=5.23 m4=0.43 m5+=0.29 n3=0.54 n4=1.54 n5=2.29 n6=1.54\n"
    ),
    "isolated": (
        "graph 0: |V|=3 |E|=1 |F|=1 euler=3 connected=False\n"
        "  vertex degrees: {0: 1, 1: 2}\n"
        "  face degrees:   {2: 1}\n"
        "  degree 0 (1 vertices): avg m3=0.00 m4=0.00 m5+=0.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
        "  degree 1 (2 vertices): avg m3=0.00 m4=0.00 m5+=0.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
    "empty": (
        "graph 0: |V|=0 |E|=0 |F|=0 euler=0 connected=True\n"
        "  vertex degrees: {}\n"
        "  face degrees:   {}\n"
    ),
    "batch": (
        "graph 0: |V|=8 |E|=12 |F|=6 euler=2 connected=True\n"
        "  vertex degrees: {3: 8}\n"
        "  face degrees:   {4: 6}\n"
        "  degree 3 (8 vertices): avg m3=0.00 m4=3.00 m5+=0.00 n3=3.00 n4=0.00 n5=0.00 n6=0.00\n"
        "graph 1: |V|=3 |E|=2 |F|=1 euler=2 connected=True\n"
        "  vertex degrees: {1: 2, 2: 1}\n"
        "  face degrees:   {4: 1}\n"
        "  degree 1 (2 vertices): avg m3=0.00 m4=1.00 m5+=0.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
        "  degree 2 (1 vertices): avg m3=0.00 m4=1.00 m5+=0.00 n3=0.00 n4=0.00 n5=0.00 n6=0.00\n"
        "graph 2: |V|=20 |E|=30 |F|=12 euler=2 connected=True\n"
        "  vertex degrees: {3: 20}\n"
        "  face degrees:   {5: 12}\n"
        "  degree 3 (20 vertices): avg m3=0.00 m4=0.00 m5+=3.00 n3=3.00 n4=0.00 n5=0.00 n6=0.00\n"
    ),
}


def test_stats_output_is_pinned(tmp_path, capsys):
    for name, file_name, data in _stats_inputs():
        path = tmp_path / file_name
        path.write_bytes(data)
        assert main(["stats", "--in", str(path)]) == 0, name
        assert capsys.readouterr().out == STATS_PINNED[name], name


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


def test_discharge_batch_of_graphs(tmp_path, capsys):
    path = tmp_path / "batch.pc"
    path.write_bytes(codec.write_planar_code([G.cube(), G.octahedron()]))
    report = tmp_path / "rep.json"
    assert main(["discharge", "--in", str(path), "--table", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.count("conservation ok") == 2
    doc = json.loads(report.read_text())
    assert doc["schema"] == "discharge-report-batch/1"
    assert [len(r["face_walks"]) for r in doc["reports"]] == [6, 8]  # cube, octahedron
    assert [codec.report_from_doc(r).match_count for r in doc["reports"]] == [
        planecolor.audit(g).match_count for g in (G.cube(), G.octahedron())]


def test_planar_code_without_a_graph_is_input_error(tmp_path, capsys):
    # A batch document is named by its items, so an input with no graph
    # would leave --trace and --report nothing to name.
    path = tmp_path / "empty.pc"
    path.write_bytes(codec.PLANAR_CODE_HEADER)
    assert main(["color", "--in", str(path), "--trace", str(tmp_path / "t.json")]) == 1
    assert "no graph" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


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
    ("--in", {**_GRAPH, "labels": {"9": [1, 2], "0": None}}),
    ("--in", {**_GRAPH, "labels": {"0": None}}),
    ("--coloring", _TRACE),
    ("--coloring", json.loads(codec.write_json(color_by_reduction(G.cycle(4))))),
    ("--coloring", _GRAPH),
    ("--coloring", [1, 2]),
], ids=["malformed-trace-as-graph", "array-as-graph", "label-key", "label-off-the-rotation",
        "label-null", "malformed-trace-as-coloring",
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


@pytest.mark.parametrize("kind, params, key", [
    ("cycle", ["--params", "n=3", "n=4"], "n"),
    ("random_planar", ["--params", "n=20", "seed=1", "--seed", "2"], "seed"),
], ids=["twice", "seed-twice"])
def test_gen_repeated_param_is_input_error(tmp_path, capsys, kind, params, key):
    # A repeated key used to keep its last value and exit 0.
    out = tmp_path / "x.json"
    assert main(["gen", "--kind", kind, *params, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
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


def test_high_degree_star_is_input_error(tmp_path, capsys):
    # Loading checks the genus by tracing every face; with twins found by
    # hash the K1,20000 star costs its 40,000 darts, not 20,000^2 scans.
    n = 20000
    path = tmp_path / "star.json"
    path.write_text(codec.write_json(EmbeddedGraph(
        {0: list(range(1, n + 1)), **{i: [0] for i in range(1, n + 1)}})))
    assert main(["color", "--in", str(path)]) == 1
    assert f"vertex 0 has degree {n} > 6" in capsys.readouterr().err


@pytest.mark.parametrize("palette", ["0", "-3"])
def test_palette_below_one_is_input_error(tmp_path, graph_file, capsys, palette):
    trace = tmp_path / "t.json"
    assert main(["color", "--in", graph_file, "--palette", palette, "--trace", str(trace)]) == 1
    assert f"palette size must be at least 1, got {palette}" in capsys.readouterr().err
    assert not trace.exists()


def test_cli_import_loads_no_third_party_package():
    # The package has no runtime dependencies: the oracle's matrix product
    # runs on integer bit rows, so no command pays for importing numpy.
    src = str(Path(planecolor.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, planecolor.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
