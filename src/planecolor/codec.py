"""Bit-exact planar-code and schema-versioned JSON interchange.

Planar code is the compact binary format used by planar-graph generators: an
ASCII header, then per graph the vertex count followed by each vertex's
neighbors in rotation order (1-indexed, 0-terminated). Only the single-byte
encoding is supported, so a graph has at most 255 vertices; larger ones
(tri_grid(20, 20) has 400) raise PlanarCodeLimit and need the JSON schema.

JSON documents carry a `schema` field; charges are serialized as "num/den"
strings so exactness survives the round trip.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Union

from .discharging import DischargeReport, Transfer
from .embedding import EmbeddedGraph
from .errors import BadHeader, IndexOutOfRange, PlanarCodeLimit, SchemaMismatch, TruncatedRecord
from .reductions import ReductionResult, ReductionStep
from .squares import Coloring

PLANAR_CODE_HEADER = b">>planar_code<<"

GRAPH_SCHEMA = "embedded-graph/1"
COLORING_SCHEMA = "coloring/1"
REPORT_SCHEMA = "discharge-report/1"
TRACE_SCHEMA = "reduction-trace/1"
REPORT_BATCH_SCHEMA = "discharge-report-batch/1"  # {"reports": [report, ...]}
TRACE_BATCH_SCHEMA = "reduction-trace-batch/1"  # {"traces": [trace, ...]}


# ---------------------------------------------------------------------------
# Planar code
# ---------------------------------------------------------------------------

def write_planar_code(graphs) -> bytes:
    """Encode graphs; vertex ids are compacted to 1..n in sorted order."""
    out = bytearray(PLANAR_CODE_HEADER)
    for g in graphs:
        n = g.vertex_count
        if n < 1 or n > 255:
            raise PlanarCodeLimit(n)
        index = {v: i + 1 for i, v in enumerate(sorted(g.vertices()))}
        out.append(n)
        for v in sorted(g.vertices()):
            out.extend(index[u] for u in g.neighbors(v))
            out.append(0)
    return bytes(out)


def read_planar_code(data: bytes) -> list[EmbeddedGraph]:
    if not data.startswith(PLANAR_CODE_HEADER):
        raise BadHeader("planar code header missing")
    pos = len(PLANAR_CODE_HEADER)
    graphs = []
    while pos < len(data):
        n = data[pos]
        pos += 1
        if n == 0:
            raise TruncatedRecord("zero vertex count")
        rotations = []
        for _ in range(n):
            ns = []
            while True:
                if pos >= len(data):
                    raise TruncatedRecord("record ended mid-vertex")
                b = data[pos]
                pos += 1
                if b == 0:
                    break
                if b > n:
                    raise IndexOutOfRange(b, n)
                ns.append(b - 1)
            rotations.append(tuple(ns))
        graphs.append(EmbeddedGraph({i: rotations[i] for i in range(n)}))
    return graphs


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _charge_from(s: str, pointer: str) -> Fraction:
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError):
        raise SchemaMismatch(pointer, f"not a rational: {s!r}")


def _parsed(pointer: str, parse, value):
    """parse(value), a value of the wrong shape or type failing as SchemaMismatch."""
    try:
        return parse(value)
    except (TypeError, ValueError, AttributeError):
        raise SchemaMismatch(pointer, "malformed value") from None


def _int(value, pointer: str) -> int:
    """An id, color or count: an int that is not a bool, or an object key (a
    string) that int() parses. Anything else, a float or a bool included, is
    a SchemaMismatch at `pointer`, never truncated or passed on."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SchemaMismatch(pointer, f"not an integer: {value!r}")


def _ints(values, pointer: str, length=None) -> tuple[int, ...]:
    """A list of integers read by _int, of `length` entries when that is given."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        raise SchemaMismatch(pointer, f"expected a list of {length or 'any number of'} integers")
    if all(type(u) is int for u in values):  # the usual case, with no pointer built per entry
        return tuple(values)
    return tuple(_int(u, f"{pointer}/{i}") for i, u in enumerate(values))


def _bool(value, pointer: str, nullable: bool = False) -> Optional[bool]:
    """A flag: a JSON boolean, or null where `nullable`. A string such as
    "false", or a number, is a SchemaMismatch at `pointer`, never truthiness."""
    if isinstance(value, bool) or (nullable and value is None):
        return value
    raise SchemaMismatch(pointer, f"expected a boolean{' or null' * nullable}, got {value!r}")


def _str(value, pointer: str) -> str:
    """A name: a JSON string, never a number or a list read as one."""
    if isinstance(value, str):
        return value
    raise SchemaMismatch(pointer, f"expected a string, got {value!r}")


def _required(doc, pointer: str, field: str):
    if not isinstance(doc, dict) or field not in doc:
        raise SchemaMismatch(f"{pointer}/{field}", "missing")
    return doc[field]


def graph_to_doc(g: EmbeddedGraph) -> dict:
    doc = {
        "schema": GRAPH_SCHEMA,
        "rotation": {str(v): list(g.neighbors(v)) for v in g.vertices()},
    }
    labels = g.labels()
    if labels:
        doc["labels"] = {str(v): s for v, s in labels.items()}
    return doc


def graph_from_doc(doc: dict) -> EmbeddedGraph:
    _expect_schema(doc, GRAPH_SCHEMA)
    rotation = doc.get("rotation")
    if not isinstance(rotation, dict):
        raise SchemaMismatch("/rotation", "expected an object")
    rot = {_int(v, "/rotation"): _ints(ns, f"/rotation/{v}") for v, ns in rotation.items()}
    labels = None
    if "labels" in doc:
        if not isinstance(doc["labels"], dict):
            raise SchemaMismatch("/labels", "expected an object")
        labels = {}
        for key, name in doc["labels"].items():
            v = _int(key, "/labels")
            if v not in rot:
                raise SchemaMismatch(f"/labels/{key}", f"no vertex {v} in the rotation")
            labels[v] = _str(name, f"/labels/{key}")
    return EmbeddedGraph(rot, labels)


def coloring_to_doc(phi: Coloring) -> dict:
    return {
        "schema": COLORING_SCHEMA,
        "palette_size": phi.palette_size,
        "assignment": {str(v): c for v, c in sorted(phi.assignment.items())},
    }


def coloring_from_doc(doc: dict) -> Coloring:
    _expect_schema(doc, COLORING_SCHEMA)
    palette_size = _int(_required(doc, "", "palette_size"), "/palette_size")
    if palette_size < 1:
        raise SchemaMismatch("/palette_size", f"expected at least 1, got {palette_size}")
    assignment = doc.get("assignment")
    if not isinstance(assignment, dict):
        raise SchemaMismatch("/assignment", "expected an object")
    return Coloring({_int(v, "/assignment"): _int(c, f"/assignment/{v}")
                     for v, c in assignment.items()}, palette_size)


def report_to_doc(report: DischargeReport) -> dict:
    def charge_map(d):
        return {f"{el[0]}{el[1]}": str(q)
                for el, q in sorted(d.items(), key=lambda kv: kv[0])}

    return {
        "schema": REPORT_SCHEMA,
        "initial": charge_map(report.initial),
        "final": charge_map(report.final),
        "ledger": [[t.rule, f"{t.source[0]}{t.source[1]}",
                    f"{t.target[0]}{t.target[1]}", str(t.amount)]
                   for t in report.ledger],
        "negative_elements": [[f"{el[0]}{el[1]}", str(q)]
                              for el, q in report.negative_elements],
        "conservation_ok": report.conservation_ok,
        "total_initial": str(report.total_initial),
        "total_final": str(report.total_final),
        "component_totals": [str(q) for q in report.component_totals],
        "match_count": report.match_count,
        "proof_shadow_ok": report.proof_shadow_ok,
        "face_walks": {str(fid): list(walk)
                       for fid, walk in sorted(report.face_walks.items())},
    }


def _element_from(name: str, pointer: str) -> tuple[str, int]:
    if not isinstance(name, str) or not name or name[0] not in "vf":
        raise SchemaMismatch(pointer, f"bad element name {name!r}")
    return (name[0], _int(name[1:], pointer))


def report_from_doc(doc: dict) -> DischargeReport:
    _expect_schema(doc, REPORT_SCHEMA)

    def charge_map(key):
        raw = doc.get(key)
        if not isinstance(raw, dict):
            raise SchemaMismatch(f"/{key}", "expected an object")
        return {_element_from(name, f"/{key}/{name}"): _charge_from(s, f"/{key}/{name}")
                for name, s in raw.items()}

    ledger = _parsed("/ledger", lambda rows: tuple(
        Transfer(rule, _element_from(src, "/ledger"), _element_from(dst, "/ledger"),
                 _charge_from(amt, "/ledger"))
        for rule, src, dst, amt in rows), doc.get("ledger", ()))
    return DischargeReport(
        initial=charge_map("initial"),
        final=charge_map("final"),
        ledger=ledger,
        negative_elements=_parsed("/negative_elements", lambda rows: tuple(
            (_element_from(name, "/negative_elements"), _charge_from(s, "/negative_elements"))
            for name, s in rows), doc.get("negative_elements", ())),
        conservation_ok=_bool(doc.get("conservation_ok"), "/conservation_ok"),
        total_initial=_charge_from(doc.get("total_initial", "0"), "/total_initial"),
        total_final=_charge_from(doc.get("total_final", "0"), "/total_final"),
        component_totals=_parsed("/component_totals", lambda ts: tuple(
            _charge_from(s, "/component_totals") for s in ts), doc.get("component_totals", ())),
        match_count=_int(doc.get("match_count", 0), "/match_count"),
        proof_shadow_ok=_bool(doc.get("proof_shadow_ok"), "/proof_shadow_ok", nullable=True),
        face_walks=_parsed("/face_walks", lambda ws: {
            _int(k, "/face_walks"): _ints(v, f"/face_walks/{k}") for k, v in ws.items()},
            doc.get("face_walks", {})),
    )


def trace_to_doc(result: ReductionResult) -> dict:
    doc = {
        "schema": TRACE_SCHEMA,
        "palette_size": result.coloring.palette_size,
        "fallback": result.fallback,
        "max_forbidden": result.max_forbidden,
        "steps": [{
            "config": s.config_id,
            "variant": s.variant,
            "center": s.center,
            "bindings": dict(s.bindings),
            "deleted": s.deleted,
            "added_edges": [list(e) for e in s.added_edges],
            "color": s.color,
            "forbidden_size": s.forbidden_size,
        } for s in result.steps],
        "coloring": coloring_to_doc(result.coloring),
    }
    if result.fallback_witness is not None:
        doc["fallback_witness"] = graph_to_doc(result.fallback_witness)
    return doc


def trace_from_doc(doc: dict) -> ReductionResult:
    _expect_schema(doc, TRACE_SCHEMA)
    steps = []
    for i, raw in enumerate(_parsed("/steps", list, doc.get("steps", ()))):
        at = f"/steps/{i}"
        steps.append(ReductionStep(
            config_id=_str(_required(raw, at, "config"), f"{at}/config"),
            variant=_str(raw.get("variant", ""), f"{at}/variant"),
            center=_int(_required(raw, at, "center"), f"{at}/center"),
            bindings=_parsed(f"{at}/bindings", lambda b: tuple(sorted(
                (k, _int(v, f"{at}/bindings/{k}")) for k, v in b.items())),
                raw.get("bindings", {})),
            deleted=_int(_required(raw, at, "deleted"), f"{at}/deleted"),
            added_edges=_parsed(f"{at}/added_edges", lambda es: tuple(
                _ints(e, f"{at}/added_edges/{j}", 2) for j, e in enumerate(es)),
                raw.get("added_edges", ())),
            color=_int(_required(raw, at, "color"), f"{at}/color"),
            forbidden_size=_int(_required(raw, at, "forbidden_size"), f"{at}/forbidden_size"),
        ))
    witness = None
    if "fallback_witness" in doc:
        witness = _within("/fallback_witness", graph_from_doc, doc["fallback_witness"])
    return ReductionResult(
        coloring=_within("/coloring", coloring_from_doc, _required(doc, "", "coloring")),
        steps=tuple(steps),
        fallback=_bool(doc.get("fallback", False), "/fallback"),
        fallback_witness=witness,
        max_forbidden=_int(doc.get("max_forbidden", 0), "/max_forbidden"),
    )


def _within(at: str, read, doc):
    """read(doc) for a document nested at JSON pointer `at`, which its errors name."""
    try:
        return read(doc)
    except SchemaMismatch as exc:
        raise SchemaMismatch(f"{at}{exc.pointer}", exc.detail) from None


def _batch_reader(key: str, read):
    """Reader of a batch document: what `read` makes of each element of doc[key]."""
    def read_batch(doc: dict) -> list:
        items = _required(doc, "", key)
        if not isinstance(items, list):
            raise SchemaMismatch(f"/{key}", "expected a list")
        return [_within(f"/{key}/{i}", read, item) for i, item in enumerate(items)]
    return read_batch


_READERS = {
    GRAPH_SCHEMA: graph_from_doc,
    COLORING_SCHEMA: coloring_from_doc,
    REPORT_SCHEMA: report_from_doc,
    TRACE_SCHEMA: trace_from_doc,
    REPORT_BATCH_SCHEMA: _batch_reader("reports", report_from_doc),
    TRACE_BATCH_SCHEMA: _batch_reader("traces", trace_from_doc),
}

_WRITERS = [
    (EmbeddedGraph, graph_to_doc),
    (Coloring, coloring_to_doc),
    (DischargeReport, report_to_doc),
    (ReductionResult, trace_to_doc),
]

_BATCH_WRITERS = [
    (DischargeReport, REPORT_BATCH_SCHEMA, "reports", report_to_doc),
    (ReductionResult, TRACE_BATCH_SCHEMA, "traces", trace_to_doc),
]


def write_json(obj, indent=None) -> str:
    """Serialize a graph, coloring, discharge report, or reduction trace; a
    non-empty list of reports or of traces is written as the batch document
    that `read_json` reads back as that list."""
    if isinstance(obj, list):
        for kind, schema, key, writer in _BATCH_WRITERS:
            if obj and all(isinstance(item, kind) for item in obj):
                doc = {"schema": schema, key: [writer(item) for item in obj]}
                return json.dumps(doc, indent=indent, sort_keys=True)
        raise TypeError("a JSON batch holds one or more reports, or one or more traces")
    for kind, writer in _WRITERS:
        if isinstance(obj, kind):
            return json.dumps(writer(obj), indent=indent, sort_keys=True)
    raise TypeError(f"no JSON schema for {type(obj).__name__}")


def read_json(text: Union[str, bytes, dict]):
    """Parse any schema-versioned document into its object; a batch the CLI
    writes reads as a list of reports or of traces."""
    doc = json.loads(text) if isinstance(text, (str, bytes)) else text
    schema = doc.get("schema") if isinstance(doc, dict) else None
    reader = _READERS.get(schema)
    if reader is None:
        raise SchemaMismatch("/schema", f"unknown schema {schema!r}")
    return reader(doc)


def _expect_schema(doc, schema: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaMismatch("", "expected a JSON object")
    if doc.get("schema") != schema:
        raise SchemaMismatch("/schema", f"expected {schema!r}, got {doc.get('schema')!r}")
