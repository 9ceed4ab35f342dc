"""Exact-rational charge assignment, redistribution rules, and the audit.

Vertices start at degree-4 and faces at degree-4 below their size; over any
connected component with at least one edge the total is exactly -8. Nine local
rules move charge between elements; the ledger records every transfer so the
final map can be replayed bit-exactly. All arithmetic is fractions.Fraction:
a comparison against zero is meaningful, never a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import configurations as cfg
from .embedding import EmbeddedGraph

Element = tuple[str, int]  # ("v", vertex_id) or ("f", face_id)

RULE_IDS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9")


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: Element
    target: Element
    amount: Fraction


@dataclass
class DischargeReport:
    initial: dict[Element, Fraction]
    final: dict[Element, Fraction]
    ledger: tuple[Transfer, ...]
    negative_elements: tuple[tuple[Element, Fraction], ...]
    conservation_ok: bool
    total_initial: Fraction
    total_final: Fraction
    component_totals: tuple[Fraction, ...]
    match_count: int
    proof_shadow_ok: Optional[bool]
    face_walks: dict[int, tuple[int, ...]]


def element_key(el: Element):
    return (el[0], el[1])


def initial_charges(g: EmbeddedGraph) -> dict[Element, Fraction]:
    """Degree-minus-4 on every vertex and every face."""
    charges: dict[Element, Fraction] = {}
    for v in g.vertices():
        charges[("v", v)] = Fraction(g.degree(v) - 4)
    for f in g.faces():
        charges[("f", f.id)] = Fraction(f.degree - 4)
    return charges


def apply_rules(g: EmbeddedGraph) -> tuple[dict[Element, Fraction], tuple[Transfer, ...]]:
    """Run all nine rules simultaneously from the initial state.

    Amounts are fixed per qualifying incidence, so the outcome does not depend
    on any ordering; the ledger is sorted by rule then element ids.
    """
    cfg.check_degree(g)
    faces = g.faces()
    deg = {v: g.degree(v) for v in g.vertices()}
    incident_faces = {v: sorted({f.id for f in g.corner_faces(v)}) for v in g.vertices()}
    by_id = {f.id: f for f in faces}
    m3 = {v: sum(1 for fid in incident_faces[v] if by_id[fid].degree == 3)
          for v in g.vertices()}

    ledger: list[Transfer] = []

    def heavy_senders(v):
        """Adjacent 6-vertices still below a full triangle fan."""
        return [w for w in sorted(g.neighbor_set(v)) if deg[w] == 6 and m3[w] <= 5]

    def big_faces(v):
        return [fid for fid in incident_faces[v] if by_id[fid].degree >= 5]

    # R1: triangles collect 1/3 from each incident vertex.
    for f in faces:
        if f.degree == 3:
            for v in sorted(f.vertices()):
                ledger.append(Transfer("R1", ("v", v), ("f", f.id), Fraction(1, 3)))

    for v in sorted(g.vertices()):
        if deg[v] == 3:
            for w in heavy_senders(v):
                ledger.append(Transfer("R2", ("v", w), ("v", v), Fraction(1, 9)))
            for fid in big_faces(v):
                ledger.append(Transfer("R3", ("f", fid), ("v", v), Fraction(1, 3)))
        elif deg[v] == 4:
            for fid in big_faces(v):
                ledger.append(Transfer("R4", ("f", fid), ("v", v), Fraction(1, 5)))
            for w in heavy_senders(v):
                ledger.append(Transfer("R5", ("v", w), ("v", v), Fraction(1, 15)))
        elif deg[v] == 5:
            for fid in big_faces(v):
                ledger.append(Transfer("R6", ("f", fid), ("v", v), Fraction(1, 5)))
            if m3[v] >= 4:
                for w in heavy_senders(v):
                    ledger.append(Transfer("R7", ("v", w), ("v", v), Fraction(2, 15)))
        elif deg[v] == 6:
            for fid in big_faces(v):
                face_verts = by_id[fid].vertices()
                has_close_3 = any(deg[u] == 3 and g.has_edge(u, v) for u in face_verts)
                rule, amount = ("R9", Fraction(1, 9)) if has_close_3 else ("R8", Fraction(1, 5))
                ledger.append(Transfer(rule, ("f", fid), ("v", v), amount))

    ordered = tuple(sorted(ledger, key=lambda t: (RULE_IDS.index(t.rule), element_key(t.source),
                                                  element_key(t.target))))
    return replay_ledger(initial_charges(g), ordered), ordered


def replay_ledger(initial: dict[Element, Fraction],
                  ledger: tuple[Transfer, ...]) -> dict[Element, Fraction]:
    """Recompute final charges from initial plus the ledger."""
    out = dict(initial)
    for t in ledger:
        out[t.source] -= t.amount
        out[t.target] += t.amount
    return out


def audit(g: EmbeddedGraph) -> DischargeReport:
    """Full run with conservation check, negatives, and the reduction cross-check.

    For a connected input with maximum degree 6 and at least two vertices the
    report also records the instance-level shadow of the global argument: a
    negative element must exist (the total is below zero) and the catalog must
    find at least one configuration.
    """
    initial = initial_charges(g)
    final, ledger = apply_rules(g)
    replayed = replay_ledger(initial, ledger)
    total_i = sum(initial.values(), Fraction(0))
    total_f = sum(final.values(), Fraction(0))
    conservation_ok = (replayed == final) and (total_i == total_f)

    negatives = tuple(sorted(
        ((el, q) for el, q in final.items() if q < 0),
        key=lambda item: element_key(item[0]),
    ))

    comps = g.connected_components()
    face_owner = {}
    for f in g.faces():
        anchor = f.boundary[0][0] if f.boundary else None
        face_owner[f.id] = anchor
    comp_totals = []
    for comp in comps:
        t = sum((q for el, q in final.items()
                 if (el[0] == "v" and el[1] in comp)
                 or (el[0] == "f" and face_owner[el[1]] in comp)), Fraction(0))
        comp_totals.append(t)

    matches = cfg.detect_all(g) if g.max_degree() <= 6 else []
    shadow: Optional[bool] = None
    if g.is_connected() and g.vertex_count >= 2 and g.max_degree() <= 6:
        shadow = bool(negatives) and bool(matches)

    return DischargeReport(
        initial=initial,
        final=final,
        ledger=ledger,
        negative_elements=negatives,
        conservation_ok=conservation_ok,
        total_initial=total_i,
        total_final=total_f,
        component_totals=tuple(comp_totals),
        match_count=len(matches),
        proof_shadow_ok=shadow,
        face_walks={f.id: f.vertex_walk() for f in g.faces()},
    )


def report_table(report: DischargeReport) -> str:
    """Human-readable per-element table: initial, per-rule deltas, final."""
    deltas: dict[Element, dict[str, Fraction]] = {}
    for t in report.ledger:
        deltas.setdefault(t.source, {}).setdefault(t.rule, Fraction(0))
        deltas[t.source][t.rule] -= t.amount
        deltas.setdefault(t.target, {}).setdefault(t.rule, Fraction(0))
        deltas[t.target][t.rule] += t.amount

    lines = ["element  initial  " + "  ".join(f"{r:>6}" for r in RULE_IDS) + "   final"]
    for el in sorted(report.initial, key=element_key):
        name = f"{el[0]}{el[1]}"
        row = [f"{name:<7}", f"{str(report.initial[el]):>7}"]
        for r in RULE_IDS:
            d = deltas.get(el, {}).get(r, Fraction(0))
            row.append(f"{str(d) if d else '.':>6}")
        row.append(f"{str(report.final[el]):>7}")
        lines.append("  ".join(row))
    lines.append(f"total: {report.total_initial} -> {report.total_final}; "
                 f"conservation={'ok' if report.conservation_ok else 'BROKEN'}; "
                 f"negative elements={len(report.negative_elements)}; "
                 f"configuration matches={report.match_count}")
    return "\n".join(lines)
