"""Exact-rational charge assignment, redistribution rules, and the audit.

Vertices start at degree-4 and faces at degree-4 below their size; over any
connected component with at least one edge the total is exactly -8. Nine local
rules move charge between elements, each always by its one amount (R1 and R3
move 1/3; R4, R6 and R8 move 1/5; R2 and R9 move 1/9; R5 moves 1/15; R7 moves
2/15); the ledger records every transfer so the final map can be replayed
bit-exactly. The arithmetic is exact: charges are counted in integers of 1/45
(every amount is a whole number of them), and the maps and totals a caller
sees are fractions.Fraction. A comparison against zero is meaningful, never a
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import configurations as cfg
from .embedding import EmbeddedGraph

Element = tuple[str, int]  # ("v", vertex_id) or ("f", face_id)

# The unit 1/UNIT that every amount is a whole multiple of, and each rule's
# amount: the Fraction shared by all its transfers and its count of units.
UNIT = 45
AMOUNTS = {rule: (q, q.numerator * UNIT // q.denominator) for rule, q in (
    ("R1", Fraction(1, 3)), ("R2", Fraction(1, 9)), ("R3", Fraction(1, 3)),
    ("R4", Fraction(1, 5)), ("R5", Fraction(1, 15)), ("R6", Fraction(1, 5)),
    ("R7", Fraction(2, 15)), ("R8", Fraction(1, 5)), ("R9", Fraction(1, 9)))}
RULE_IDS = tuple(AMOUNTS)


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


def _degree_charges(ctx) -> dict[Element, int]:
    """Degree minus 4 on every element, kept on the context for its next reader."""
    if ctx.charges is None:
        charges = {("v", v): d - 4 for v, d in ctx.deg.items()}
        charges.update((("f", f.id), f.degree - 4) for f in ctx.faces.values())
        ctx.charges = charges
    return ctx.charges


def _fractions(counts: dict[Element, int], unit: int) -> dict[Element, Fraction]:
    """counts / unit per element, one Fraction per distinct value."""
    shared = {c: Fraction(c, unit) for c in set(counts.values())}
    return {el: shared[c] for el, c in counts.items()}


def initial_charges(g) -> dict[Element, Fraction]:
    """Degree-minus-4 on every vertex and every face; `g` as for apply_rules."""
    return _fractions(_degree_charges(cfg._Ctx.of(g)), 1)


def apply_rules(g) -> tuple[dict[Element, Fraction], tuple[Transfer, ...]]:
    """Run all nine rules simultaneously from the initial state.

    `g` is an EmbeddedGraph or a context built from one by
    `configurations._Ctx`, whose degrees, corner faces and triangle counts
    the rules read; building that context is what rejects a vertex of
    degree above 6 (DegreeTooHigh), so the rules check nothing themselves.
    Amounts are fixed per qualifying incidence, so the outcome does not
    depend on any ordering; the ledger is sorted by rule then element ids.
    """
    ctx = cfg._Ctx.of(g)
    deg, rot = ctx.deg, ctx.rot
    moves: list[tuple[str, Element, Element]] = []  # (rule, source, target)
    move = moves.append

    def heavy_senders(v):
        """Adjacent 6-vertices still below a full triangle fan."""
        return [w for w in rot[v] if deg[w] == 6 and ctx.m3[w] <= 5]

    def big_faces(v):
        return {f.id: f for f in ctx.corner[v] if f.degree >= 5}.values()

    # R1: triangles collect 1/3 from each incident vertex.
    for f in ctx.faces.values():
        if f.degree == 3:
            for v in f.vertices():
                move(("R1", ("v", v), ("f", f.id)))

    for v, d in deg.items():
        if d == 3:
            for w in heavy_senders(v):
                move(("R2", ("v", w), ("v", v)))
            for f in big_faces(v):
                move(("R3", ("f", f.id), ("v", v)))
        elif d == 4:
            for f in big_faces(v):
                move(("R4", ("f", f.id), ("v", v)))
            for w in heavy_senders(v):
                move(("R5", ("v", w), ("v", v)))
        elif d == 5:
            for f in big_faces(v):
                move(("R6", ("f", f.id), ("v", v)))
            if ctx.m3[v] >= 4:
                for w in heavy_senders(v):
                    move(("R7", ("v", w), ("v", v)))
        elif d == 6:
            for f in big_faces(v):
                if any(deg[u] == 3 and u in rot[v] for u in f.vertices()):
                    move(("R9", ("f", f.id), ("v", v)))
                else:
                    move(("R8", ("f", f.id), ("v", v)))

    # Rule ids sort as their numbers do, so the moves sort as they are.
    moves.sort()
    units = {el: q * UNIT for el, q in _degree_charges(ctx).items()}
    for rule, source, target in moves:
        n = AMOUNTS[rule][1]
        units[source] -= n
        units[target] += n
    ledger = tuple(Transfer(rule, source, target, AMOUNTS[rule][0])
                   for rule, source, target in moves)
    return _fractions(units, UNIT), ledger


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
    charges = _degree_charges(ctx)

    # Charge moves only inside a component, so each component must end
    # with the total it started with. Both are summed in integers of 1/UNIT,
    # of which every final charge is a whole number.
    comps = ctx.parts
    owner = {("v", v): i for i, comp in enumerate(comps) for v in comp}
    owner.update((("f", f.id), owner[("v", f.boundary[0][0])]) for f in ctx.faces.values())
    start_totals = [0] * len(comps)
    comp_totals = [0] * len(comps)
    for el, c in charges.items():
        start_totals[owner[el]] += c * UNIT
    for el, q in final.items():
        comp_totals[owner[el]] += q.numerator * (UNIT // q.denominator)

    negatives = tuple(sorted(((el, q) for el, q in final.items() if q.numerator < 0),
                             key=lambda item: item[0]))
    matches = cfg.match_count(ctx)
    shadow: Optional[bool] = None
    if len(comps) == 1 and g.vertex_count >= 2:
        shadow = bool(negatives) and matches > 0

    return DischargeReport(
        initial=_fractions(charges, 1),
        final=final,
        ledger=ledger,
        negative_elements=negatives,
        conservation_ok=start_totals == comp_totals,
        total_initial=Fraction(sum(start_totals), UNIT),
        total_final=Fraction(sum(comp_totals), UNIT),
        component_totals=tuple(Fraction(t, UNIT) for t in comp_totals),
        match_count=matches,
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
