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


def initial_charges(g) -> dict[Element, Fraction]:
    """Degree-minus-4 on every vertex and every face; `g` as for apply_rules."""
    ctx = cfg._Ctx.of(g)
    charges = {("v", v): Fraction(d - 4) for v, d in ctx.deg.items()}
    charges.update((("f", f.id), Fraction(f.degree - 4)) for f in ctx.faces.values())
    return charges


def apply_rules(g) -> tuple[dict[Element, Fraction], tuple[Transfer, ...]]:
    """Run all nine rules simultaneously from the initial state.

    `g` is an EmbeddedGraph or a context built from one by
    `configurations._Ctx`, whose degrees, corner faces and triangle counts
    the rules read. Amounts are fixed per qualifying incidence, so the
    outcome does not depend on any ordering; the ledger is sorted by rule
    then element ids.
    """
    ctx = cfg._Ctx.of(g)
    cfg.check_degree(ctx)
    deg, rot = ctx.deg, ctx.rot
    ledger: list[Transfer] = []

    def heavy_senders(v):
        """Adjacent 6-vertices still below a full triangle fan."""
        return [w for w in rot[v] if deg[w] == 6 and ctx.m3[w] <= 5]

    def big_faces(v):
        return {f.id: f for f in ctx.corner[v] if f.degree >= 5}.values()

    # R1: triangles collect 1/3 from each incident vertex.
    for f in ctx.faces.values():
        if f.degree == 3:
            for v in f.vertices():
                ledger.append(Transfer("R1", ("v", v), ("f", f.id), Fraction(1, 3)))

    for v, d in deg.items():
        if d == 3:
            for w in heavy_senders(v):
                ledger.append(Transfer("R2", ("v", w), ("v", v), Fraction(1, 9)))
            for f in big_faces(v):
                ledger.append(Transfer("R3", ("f", f.id), ("v", v), Fraction(1, 3)))
        elif d == 4:
            for f in big_faces(v):
                ledger.append(Transfer("R4", ("f", f.id), ("v", v), Fraction(1, 5)))
            for w in heavy_senders(v):
                ledger.append(Transfer("R5", ("v", w), ("v", v), Fraction(1, 15)))
        elif d == 5:
            for f in big_faces(v):
                ledger.append(Transfer("R6", ("f", f.id), ("v", v), Fraction(1, 5)))
            if ctx.m3[v] >= 4:
                for w in heavy_senders(v):
                    ledger.append(Transfer("R7", ("v", w), ("v", v), Fraction(2, 15)))
        elif d == 6:
            for f in big_faces(v):
                has_close_3 = any(deg[u] == 3 and u in rot[v] for u in f.vertices())
                rule, amount = ("R9", Fraction(1, 9)) if has_close_3 else ("R8", Fraction(1, 5))
                ledger.append(Transfer(rule, ("f", f.id), ("v", v), amount))

    ordered = tuple(sorted(ledger, key=lambda t: (RULE_IDS.index(t.rule), t.source, t.target)))
    return replay_ledger(initial_charges(ctx), ordered), ordered


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
    ctx = cfg._Ctx(g)
    final, ledger = apply_rules(ctx)
    initial = initial_charges(ctx)

    # Charge moves only inside a component, so each component must end
    # with the total it started with.
    comps = g.connected_components()
    owner = {("v", v): i for i, comp in enumerate(comps) for v in comp}
    owner.update((("f", f.id), owner[("v", f.boundary[0][0])]) for f in ctx.faces.values())
    start_totals = [Fraction(0)] * len(comps)
    comp_totals = [Fraction(0)] * len(comps)
    for el, q in initial.items():
        start_totals[owner[el]] += q
    for el, q in final.items():
        comp_totals[owner[el]] += q

    negatives = tuple(sorted(((el, q) for el, q in final.items() if q < 0),
                             key=lambda item: item[0]))
    matches = cfg.detect_all(ctx)
    shadow: Optional[bool] = None
    if len(comps) == 1 and g.vertex_count >= 2:
        shadow = bool(negatives) and bool(matches)

    return DischargeReport(
        initial=initial,
        final=final,
        ledger=ledger,
        negative_elements=negatives,
        conservation_ok=start_totals == comp_totals,
        total_initial=sum(start_totals, Fraction(0)),
        total_final=sum(comp_totals, Fraction(0)),
        component_totals=tuple(comp_totals),
        match_count=len(matches),
        proof_shadow_ok=shadow,
        face_walks={f.id: f.vertex_walk() for f in ctx.faces.values()},
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
    for el in sorted(report.initial):
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
