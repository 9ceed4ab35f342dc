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
