"""Exact-rational charge assignment, redistribution rules, and the audit.

Vertices start at degree-4 and faces at degree-4 below their size; over any
connected component with at least one edge the total is exactly -8. Nine local
rules move charge between elements, each always by its one amount (R1 and R3
move 1/3; R4, R6 and R8 move 1/5; R2 and R9 move 1/9; R5 moves 1/15; R7 moves
2/15); the ledger records every transfer so the final map can be replayed
bit-exactly. It keeps the raw moves and builds its Transfer records only when
first read, so a caller that only counts them never pays for them. The
arithmetic is exact: charges are counted in integers of 1/45 (every amount is
a whole number of them), and the maps and totals a caller sees are
fractions.Fraction. A comparison against zero is meaningful, never a
tolerance.
"""

from __future__ import annotations

from collections.abc import Sequence
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

# What a vertex of degree 3, 4 or 5 collects by: the rule each of its
# distinct faces of size >= 5 pays, and the rule each adjacent 6-vertex below
# a full triangle fan pays (R7 only to a 5-vertex with m3 >= 4).
_COLLECTS = {3: ("R3", "R2"), 4: ("R4", "R5"), 5: ("R6", "R7")}


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: Element
    target: Element
    amount: Fraction


# (rule, source kind, source id, target kind, target id): a transfer before
# it is built, ordered as the Transfer it becomes.
Move = tuple[str, str, int, str, int]


class Ledger(Sequence):
    """The transfers of one `apply_rules` run, sorted by rule then element ids.

    It holds the run's moves and nothing else (not the context they were
    read from). `len` counts them. The first read that needs the transfers
    (iteration, indexing, comparison) sorts the moves, builds each Transfer
    once and drops the moves. A ledger equals the tuple of its transfers.
    """

    __slots__ = ("_moves", "_transfers")

    def __init__(self, moves: list[Move]):
        self._moves: Optional[list[Move]] = moves
        self._transfers: Optional[tuple[Transfer, ...]] = None

    def _built(self) -> tuple[Transfer, ...]:
        if self._transfers is None:
            moves = self._moves
            moves.sort()  # rule ids sort as their numbers do
            self._transfers = tuple(Transfer(rule, (sk, s), (tk, t), AMOUNTS[rule][0])
                                    for rule, sk, s, tk, t in moves)
            self._moves = None
        return self._transfers

    def __len__(self) -> int:
        return len(self._moves) if self._transfers is None else len(self._transfers)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, Ledger):
            other = other._built()
        return self._built() == other if isinstance(other, tuple) else NotImplemented

    def __add__(self, other: tuple) -> tuple:
        return self._built() + other

    def __repr__(self) -> str:
        return f"Ledger({self._built()!r})"


@dataclass
class DischargeReport:
    initial: dict[Element, Fraction]
    final: dict[Element, Fraction]
    ledger: Sequence[Transfer]
    negative_elements: tuple[tuple[Element, Fraction], ...]
    conservation_ok: bool
    total_initial: Fraction
    total_final: Fraction
    component_totals: tuple[Fraction, ...]
    match_count: int
    proof_shadow_ok: Optional[bool]
    face_walks: dict[int, tuple[int, ...]]


def _charge_map(vertex: dict[int, int], face: list[int], faces: dict[int, tuple[int, ...]],
                unit: int) -> dict[Element, Fraction]:
    """vertex[v] / unit and face[f] / unit keyed by element: vertices in
    `vertex` order, then the faces in `faces` order; one Fraction per
    distinct value."""
    shared = {c: Fraction(c, unit) for c in {*vertex.values(), *map(face.__getitem__, faces)}}
    out = {("v", v): shared[c] for v, c in vertex.items()}
    out.update((("f", f), shared[face[f]]) for f in faces)
    return out


def initial_charges(g) -> dict[Element, Fraction]:
    """Degree-minus-4 on every vertex and every face; `g` as for apply_rules."""
    ctx = cfg._Ctx.of(g)
    return _charge_map({v: d - 4 for v, d in ctx.deg.items()}, [n - 4 for n in ctx.fdeg],
                       ctx.faces, 1)


def apply_rules(g) -> tuple[dict[Element, Fraction], Ledger]:
    """Run all nine rules simultaneously from the initial state.

    `g` is an EmbeddedGraph or a context built from one by
    `_live._Ctx`, whose degrees, corner face ids, face walks and
    triangle counts the rules read; building that context is what rejects
    a vertex of degree above 6 (DegreeTooHigh), so the rules check nothing
    themselves.
    Each rule adds its amount, in units of 1/UNIT, to integer charges per
    vertex and per face as it fires, and records the move. Amounts are
    fixed per qualifying incidence, so the outcome does not depend on any
    ordering; the ledger sorts the moves by rule then element ids when it
    is first read.
    """
    ctx = cfg._Ctx.of(g)
    deg, rot, faces, fdeg, face, off, m3 = (
        ctx.deg, ctx.rot, ctx.faces, ctx.fdeg, ctx.face, ctx.off, ctx.m3)
    vu = {v: (d - 4) * UNIT for v, d in deg.items()}
    fu = [(n - 4) * UNIT for n in fdeg]
    moves: list[Move] = []
    move = moves.append

    # R1: triangles collect 1/3 from each incident vertex.
    n = AMOUNTS["R1"][1]
    for f, walk in faces.items():
        if len(walk) == 3:
            fu[f] += 3 * n
            for v in walk:
                vu[v] -= n
                move(("R1", "v", v, "f", f))

    for v, d in deg.items():
        if d < 3:
            continue
        o = off[v]
        big = {f for f in face[o:o + d] if fdeg[f] >= 5}
        if d == 6:
            # R8, or R9 from a face through a 3-vertex adjacent to v.
            near3 = [u for u in rot[v] if deg[u] == 3]
            for f in big:
                rule = "R9" if any(u in faces[f] for u in near3) else "R8"
                n = AMOUNTS[rule][1]
                fu[f] -= n
                vu[v] += n
                move((rule, "f", f, "v", v))
            continue
        rule, sender = _COLLECTS[d]
        n = AMOUNTS[rule][1]
        for f in big:
            fu[f] -= n
            move((rule, "f", f, "v", v))
        vu[v] += n * len(big)
        if d < 5 or m3[v] >= 4:
            n = AMOUNTS[sender][1]
            for w in rot[v]:
                if deg[w] == 6 and m3[w] <= 5:
                    vu[w] -= n
                    vu[v] += n
                    move((sender, "v", w, "v", v))

    return _charge_map(vu, fu, faces, UNIT), Ledger(moves)


def replay_ledger(initial: dict[Element, Fraction],
                  ledger: Sequence[Transfer]) -> dict[Element, Fraction]:
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
    # with the total it started with. Both are summed in integers of 1/UNIT,
    # of which every final charge is a whole number.
    comps, faces = ctx.parts, ctx.faces
    part = {v: i for i, comp in enumerate(comps) for v in comp}
    fpart = {f: part[walk[0]] for f, walk in faces.items()}
    start_totals = [0] * len(comps)
    comp_totals = [0] * len(comps)
    for v, d in ctx.deg.items():
        start_totals[part[v]] += (d - 4) * UNIT
    for f, walk in faces.items():
        start_totals[fpart[f]] += (len(walk) - 4) * UNIT
    negatives = []
    for el, q in final.items():
        n = q.numerator
        comp_totals[part[el[1]] if el[0] == "v" else fpart[el[1]]] += n * (UNIT // q.denominator)
        if n < 0:
            negatives.append((el, q))
    negatives.sort(key=lambda item: item[0])

    matches = cfg.match_count(ctx)
    shadow: Optional[bool] = None
    if len(comps) == 1 and g.vertex_count >= 2:
        shadow = bool(negatives) and matches > 0

    return DischargeReport(
        initial=initial,
        final=final,
        ledger=ledger,
        negative_elements=tuple(negatives),
        conservation_ok=start_totals == comp_totals,
        total_initial=Fraction(sum(start_totals), UNIT),
        total_final=Fraction(sum(comp_totals), UNIT),
        component_totals=tuple(Fraction(t, UNIT) for t in comp_totals),
        match_count=matches,
        proof_shadow_ok=shadow,
        face_walks=dict(ctx.faces),
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
