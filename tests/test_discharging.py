from fractions import Fraction

import pytest

from planecolor import discharging
from planecolor import generators as G
from planecolor.discharging import (
    Transfer,
    apply_rules,
    audit,
    initial_charges,
    replay_ledger,
    report_table,
)
from planecolor.embedding import EmbeddedGraph, build_embedded
from planecolor.errors import DegreeTooHigh


def test_initial_charges_platonic():
    g = G.icosahedron()
    charges = initial_charges(g)
    assert all(charges[("v", v)] == 1 for v in g.vertices())
    assert all(charges[("f", f.id)] == -1 for f in g.faces())
    assert sum(charges.values()) == -8

    cube = G.cube()
    charges = initial_charges(cube)
    assert all(charges[("v", v)] == -1 for v in cube.vertices())
    assert all(charges[("f", f.id)] == 0 for f in cube.faces())
    assert sum(charges.values()) == -8

    octa = G.octahedron()
    charges = initial_charges(octa)
    assert all(charges[("v", v)] == 0 for v in octa.vertices())
    assert sum(charges.values()) == -8


def test_icosahedron_only_triangle_rule_fires():
    g = G.icosahedron()
    final, ledger = apply_rules(g)
    assert {t.rule for t in ledger} == {"R1"}
    assert all(final[("f", f.id)] == 0 for f in g.faces())
    assert all(final[("v", v)] == Fraction(-2, 3) for v in g.vertices())
    assert sum(final.values()) == -8


def test_cube_no_rule_fires():
    g = G.cube()
    final, ledger = apply_rules(g)
    assert ledger == ()
    assert final == initial_charges(g)


def test_octahedron_vertices_pay_for_triangles():
    g = G.octahedron()
    final, _ = apply_rules(g)
    assert all(final[("v", v)] == Fraction(-4, 3) for v in g.vertices())
    assert all(final[("f", f.id)] == 0 for f in g.faces())


def test_triangle_faces_end_at_zero_in_triangulations():
    for g in (G.icosahedron(), G.octahedron(), G.tri_grid(4, 4)):
        final, _ = apply_rules(g)
        for f in g.faces():
            if f.degree == 3:
                assert final[("f", f.id)] == 0


def test_four_faces_never_transfer():
    g = G.square_grid(4, 4)
    _, ledger = apply_rules(g)
    quad_ids = {f.id for f in g.faces() if f.degree == 4}
    for t in ledger:
        for el in (t.source, t.target):
            assert not (el[0] == "f" and el[1] in quad_ids)


def test_dodecahedron_faces_go_negative():
    g = G.platonic("dodecahedron")
    final, ledger = apply_rules(g)
    assert {t.rule for t in ledger} == {"R3"}
    assert all(final[("v", v)] == 0 for v in g.vertices())
    assert all(final[("f", f.id)] == Fraction(-2, 3) for f in g.faces())


def _pentagon_charge_fixture() -> tuple[EmbeddedGraph, int]:
    """5-face with one 3-vertex: its flanks are 6-vertices, the rest 5-vertices.

    Returns the graph and the id of the pentagon face.
    """
    rot = {i: [(i - 1) % 5, (i + 1) % 5] for i in range(5)}
    nxt = 5
    rot[0].append(nxt)  # third neighbor of the 3-vertex
    rot[nxt] = [0]
    nxt += 1
    for v, target in ((1, 6), (4, 6), (2, 5), (3, 5)):
        while len(rot[v]) < target:
            rot[v].append(nxt)
            rot[nxt] = [v]
            nxt += 1
    g = EmbeddedGraph(rot)
    degs = [g.degree(i) for i in range(5)]
    assert degs == [3, 6, 5, 5, 6]
    pentagon = next(f for f in g.faces()
                    if f.degree == 5 and f.vertices() == {0, 1, 2, 3, 4})
    return g, pentagon.id


def test_pentagon_with_one_three_vertex_keeps_two_forty_fifths():
    g, fid = _pentagon_charge_fixture()
    final, ledger = apply_rules(g)
    assert final[("f", fid)] == Fraction(2, 45)
    outgoing = sorted((t.rule, t.target) for t in ledger if t.source == ("f", fid))
    assert outgoing == [("R3", ("v", 0)), ("R6", ("v", 2)), ("R6", ("v", 3)),
                        ("R9", ("v", 1)), ("R9", ("v", 4))]


def test_charge_denominators_divide_45(corpus):
    for name, g in corpus[:50]:
        final, _ = apply_rules(g)
        for q in final.values():
            assert 45 % q.denominator == 0, (name, q)


def test_conservation_exact_on_corpus(corpus):
    for name, g in corpus:
        report = audit(g)
        assert report.conservation_ok, name
        assert report.total_initial == -8, name
        assert report.total_final == -8, name
        assert replay_ledger(report.initial, report.ledger) == report.final, name


def test_negative_element_and_match_on_corpus(corpus):
    for name, g in corpus:
        report = audit(g)
        assert report.negative_elements, name
        assert report.match_count > 0, name
        assert report.proof_shadow_ok is True, name


def test_negative_elements_sit_near_matches(corpus):
    # Negative final charge marks trouble; a reducible structure is always
    # within incidence-distance two of it.
    from collections import deque
    from planecolor.reductions import detect_all

    for name, g in corpus:
        report = audit(g)
        matched = {v for m in detect_all(g) for _, v in m.bindings}
        dist = {v: 0 for v in matched}
        queue = deque(matched)
        while queue:
            u = queue.popleft()
            if dist[u] >= 2:
                continue
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        faces = {f.id: f for f in g.faces()}
        for el, _ in report.negative_elements:
            if el[0] == "v":
                assert el[1] in dist, (name, el)
            else:
                assert faces[el[1]].vertices() & set(dist), (name, el)


def test_audit_cube_and_icosahedron_examples():
    report = audit(G.cube())
    assert len(report.negative_elements) == 8
    assert all(el[0] == "v" and q == -1 for el, q in report.negative_elements)
    from planecolor.reductions import detect_all
    assert any(m.config_id == "K03" for m in detect_all(G.cube()))

    report = audit(G.icosahedron())
    assert len(report.negative_elements) == 12
    assert all(q == Fraction(-2, 3) for _, q in report.negative_elements)
    assert any(m.config_id == "K13" for m in detect_all(G.icosahedron()))


def test_rules_reject_high_degree():
    star = build_embedded(8, [[1, 2, 3, 4, 5, 6, 7]] + [[0]] * 7)
    with pytest.raises(DegreeTooHigh):
        apply_rules(star)


def test_component_totals_multi_component():
    rot = {0: [1], 1: [0], 2: [3], 3: [2, 4], 4: [3]}
    g = EmbeddedGraph(rot)
    report = audit(g)
    assert sorted(report.component_totals) == [-8, -8]
    assert report.proof_shadow_ok is None  # disconnected: shadow not asserted


def test_conservation_fails_on_a_transfer_between_components(monkeypatch):
    # Totals still agree, but each component must keep its own.
    rules = discharging.apply_rules

    def leaky(g):
        final, ledger = rules(g)
        leak = Transfer("R1", ("v", 0), ("v", 2), Fraction(1, 3))
        final = dict(final)
        final[leak.source] -= leak.amount
        final[leak.target] += leak.amount
        return final, ledger + (leak,)

    g = EmbeddedGraph({0: [1], 1: [0], 2: [3], 3: [2, 4], 4: [3]})
    assert audit(g).conservation_ok
    monkeypatch.setattr(discharging, "apply_rules", leaky)
    report = audit(g)
    assert report.total_initial == report.total_final
    assert not report.conservation_ok


def _count_transfers(monkeypatch) -> list:
    """Record every Transfer the ledger builds from here on."""
    built = []

    def counted(*args):
        built.append(args)
        return Transfer(*args)

    monkeypatch.setattr(discharging, "Transfer", counted)
    return built


def test_ledger_is_built_once_on_first_read(monkeypatch):
    built = _count_transfers(monkeypatch)
    report = audit(G.tri_grid(12, 12))
    assert built == []
    n = len(report.ledger)
    assert n > 0 and built == []
    first = list(report.ledger)
    assert len(built) == n == len(first)
    assert first == sorted(first, key=lambda t: (t.rule, t.source, t.target))
    second = tuple(report.ledger)
    assert len(built) == n
    assert second == tuple(first) and report.ledger == second
    assert len(report.ledger) == n


def test_ledger_reads_as_its_tuple():
    _, ledger = apply_rules(G.tri_grid(4, 4))
    transfers = tuple(ledger)
    assert ledger == transfers and transfers == ledger
    assert ledger[0] == transfers[0] and ledger[-2:] == transfers[-2:]
    assert ledger + () == transfers
    _, empty = apply_rules(G.cube())
    assert len(empty) == 0 and empty == () and not empty


# The octahedron's table and the SHA-256 of its report document (sorted keys)
# as they read when the ledger was a tuple of Transfers built by apply_rules.
OCTAHEDRON_TABLE = "\n".join(
    ["element  initial      R1      R2      R3      R4      R5      R6      R7      R8      R9"
     "   final"]
    + [f"f{f}            -1       1       .       .       .       .       .       .       ."
       "       .        0" for f in range(8)]
    + [f"v{v}             0    -4/3       .       .       .       .       .       .       ."
       "       .     -4/3" for v in range(6)]
    + ["total: -8 -> -8; conservation=ok; negative elements=6; configuration matches=48"])
OCTAHEDRON_DOC = "0f4a412dcb9028c3f36a0347f2de7c53bbfb7e24972e0e5de683a1b17fa8789b"


def test_report_table_renders():
    text = report_table(audit(G.octahedron()))
    assert "R1" in text and "total: -8 -> -8" in text
    assert text == OCTAHEDRON_TABLE


def test_report_document_reads_the_ledger_as_before():
    import hashlib
    import json
    from planecolor import codec

    doc = json.dumps(codec.report_to_doc(audit(G.octahedron())), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == OCTAHEDRON_DOC
