import json

import pytest

from planecolor import codec
from planecolor import generators as G
from planecolor.discharging import audit
from planecolor.embedding import build_embedded
from planecolor.errors import BadHeader, IndexOutOfRange, SchemaMismatch, TruncatedRecord
from planecolor.reductions import color_by_reduction
from planecolor.squares import Coloring


def test_k2_bytes_exact():
    g = build_embedded(2, [[1], [0]])
    assert codec.write_planar_code([g]) == codec.PLANAR_CODE_HEADER + bytes([2, 2, 0, 1, 0])


def test_round_trip_byte_identical(corpus):
    graphs = [g for _, g in corpus if g.vertex_count <= 120]
    blob = codec.write_planar_code(graphs)
    back = codec.read_planar_code(blob)
    assert codec.write_planar_code(back) == blob
    assert all(a.rotation_map() == b.rotation_map() for a, b in zip(graphs, back))


def test_bad_header():
    with pytest.raises(BadHeader):
        codec.read_planar_code(b">>planar_kode<<" + bytes([2, 2, 0, 1, 0]))


def test_truncated_record():
    blob = codec.write_planar_code([G.cycle(4)])
    with pytest.raises(TruncatedRecord):
        codec.read_planar_code(blob[:-2])


def test_index_out_of_range():
    blob = codec.PLANAR_CODE_HEADER + bytes([2, 3, 0, 1, 0])
    with pytest.raises(IndexOutOfRange):
        codec.read_planar_code(blob)


def test_graph_json_round_trip(corpus):
    for name, g in corpus[:25]:
        assert codec.read_json(codec.write_json(g)) == g, name


def test_graph_json_with_labels_and_gaps():
    g = G.cycle(5)
    g2, _ = g.delete_vertex(2)  # non-contiguous ids
    doc = codec.write_json(g2)
    assert codec.read_json(doc) == g2


def test_coloring_json_round_trip():
    phi = Coloring({0: 1, 3: 7}, 20)
    back = codec.read_json(codec.write_json(phi))
    assert back.assignment == phi.assignment
    assert back.palette_size == 20


def test_report_json_round_trip_preserves_exact_charges():
    report = audit(G.platonic("dodecahedron"))
    doc = json.loads(codec.write_json(report))
    assert any(v == "-2/3" for v in doc["final"].values())
    back = codec.read_json(json.dumps(doc))
    assert back.final == report.final
    assert back.ledger == report.ledger
    assert back.total_final == report.total_final


def test_charge_strings_not_floats():
    from fractions import Fraction
    report = audit(G.tri_grid(3, 3))
    doc = json.loads(codec.write_json(report))
    for section in ("initial", "final"):
        for s in doc[section].values():
            assert isinstance(s, str)
    assert codec._charge_from("2/45", "/x") == Fraction(2, 45)


def test_trace_json_round_trip():
    g = G.tri_grid(3, 3)
    result = color_by_reduction(g)
    back = codec.read_json(codec.write_json(result))
    assert back.coloring.assignment == result.coloring.assignment
    assert back.steps == result.steps
    assert back.fallback == result.fallback


def test_unknown_schema():
    with pytest.raises(SchemaMismatch) as exc:
        codec.read_json('{"schema": "embedded-graph/99", "rotation": {}}')
    assert exc.value.pointer == "/schema"


def test_schema_pointer_on_bad_field():
    with pytest.raises(SchemaMismatch) as exc:
        codec.read_json('{"schema": "embedded-graph/1", "rotation": [1, 2]}')
    assert exc.value.pointer == "/rotation"


def test_schema_pointer_on_bad_label_key():
    with pytest.raises(SchemaMismatch) as exc:
        codec.graph_from_doc({"schema": "embedded-graph/1", "rotation": {"0": []},
                              "labels": {"x": "a"}})
    assert exc.value.pointer == "/labels"


@pytest.mark.parametrize("field", ["config", "center", "deleted"])
def test_schema_pointer_on_a_step_missing_a_field(field):
    step = {"config": "K02", "center": 0, "deleted": 0}
    del step[field]
    doc = {"schema": "reduction-trace/1", "steps": [step, step],
           "coloring": {"schema": "coloring/1", "palette_size": 20, "assignment": {}}}
    with pytest.raises(SchemaMismatch) as exc:
        codec.trace_from_doc(doc)
    assert exc.value.pointer == f"/steps/0/{field}"


def _trace_doc(**changes):
    doc = json.loads(codec.write_json(color_by_reduction(G.tri_grid(3, 3))))
    doc["steps"][0].update(changes)
    return doc


def _report_doc(**changes):
    doc = json.loads(codec.write_json(audit(G.tri_grid(3, 3))))
    doc.update(changes)
    return doc


def _no_coloring():
    doc = _trace_doc()
    del doc["coloring"]
    return doc


@pytest.mark.parametrize("doc, pointer", [
    (_no_coloring(), "/coloring"),
    (_trace_doc(center="a"), "/steps/0/center"),
    (_trace_doc(bindings=[1]), "/steps/0/bindings"),
    (_report_doc(match_count="x"), "/match_count"),
    (_report_doc(ledger=[[1]]), "/ledger"),
    (_report_doc(face_walks={"a": [1]}), "/face_walks"),
], ids=["no-coloring", "center", "bindings", "match_count", "ledger", "face_walks"])
def test_malformed_trace_and_report_fail_as_schema_mismatch(doc, pointer):
    with pytest.raises(SchemaMismatch) as exc:
        codec.read_json(json.dumps(doc))
    assert exc.value.pointer == pointer


def _graph_doc(ns):
    return {"schema": "embedded-graph/1", "rotation": {"0": ns, "1": [0]}}


def _coloring_doc(**changes):
    doc = {"schema": "coloring/1", "palette_size": 20, "assignment": {"0": 1, "1": 2}}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, pointer", [
    (_trace_doc(center=1.5), "/steps/0/center"),
    (_trace_doc(deleted=True), "/steps/0/deleted"),
    (_trace_doc(added_edges=[[1, 2, 3]]), "/steps/0/added_edges/0"),
    (_trace_doc(added_edges=[["a", "b"]]), "/steps/0/added_edges/0/0"),
    (_trace_doc(color="red"), "/steps/0/color"),
    (_trace_doc(color=2.0), "/steps/0/color"),
    (_trace_doc(forbidden_size=[2]), "/steps/0/forbidden_size"),
    (_graph_doc([1.9]), "/rotation/0/0"),
    (_graph_doc([True]), "/rotation/0/0"),
    (_coloring_doc(assignment={"0": 2.7}), "/assignment/0"),
    (_coloring_doc(palette_size=True), "/palette_size"),
], ids=["center-float", "deleted-bool", "edge-triple", "edge-strings", "color-string",
        "color-float", "forbidden-list", "neighbor-float", "neighbor-bool", "color-value-float",
        "palette-bool"])
def test_ids_colors_and_counts_must_be_integers(doc, pointer):
    # int() would truncate 1.5 to 1 and read true as 1; the readers refuse both.
    with pytest.raises(SchemaMismatch) as exc:
        codec.read_json(json.dumps(doc))
    assert exc.value.pointer == pointer


def _trace_with(key, value):
    doc = _trace_doc()
    doc[key] = value
    return doc


@pytest.mark.parametrize("doc, pointer", [
    (_trace_with("coloring", _coloring_doc(assignment={"0": 2.7})), "/coloring/assignment/0"),
    (_trace_with("coloring", _coloring_doc(assignment=[1])), "/coloring/assignment"),
    (_trace_with("coloring", _coloring_doc(palette_size=True)), "/coloring/palette_size"),
    (_trace_with("coloring", {"schema": "coloring/1", "assignment": {}}), "/coloring/palette_size"),
    (_trace_with("coloring", _coloring_doc(schema="coloring/0")), "/coloring/schema"),
    (_trace_with("coloring", [1]), "/coloring"),
    (_trace_with("fallback_witness", _graph_doc([1.9])), "/fallback_witness/rotation/0/0"),
    (_trace_with("fallback_witness", {"schema": "embedded-graph/1", "rotation": [0]}),
     "/fallback_witness/rotation"),
    (_trace_with("fallback_witness", {**_graph_doc([1]), "labels": {"x": "a"}}),
     "/fallback_witness/labels"),
], ids=["color-value-float", "assignment-list", "palette-bool", "palette-missing", "schema",
        "not-an-object", "witness-neighbor-float", "witness-rotation-list", "witness-label-key"])
def test_errors_inside_a_trace_point_into_it(doc, pointer):
    with pytest.raises(SchemaMismatch) as exc:
        codec.read_json(json.dumps(doc))
    assert exc.value.pointer == pointer
