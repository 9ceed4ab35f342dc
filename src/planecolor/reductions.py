"""Reduction plans, their application, and the recursive coloring pipeline.

The pipeline peels one vertex per step: find a cataloged configuration, delete
its designated vertex while adding the configuration's chords, color the
smaller graph, then give the deleted vertex the least color absent from its
distance-two neighborhood. Every step's chord set keeps surviving distance-2
pairs at distance 2, which is what makes the extension safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import configurations as cfg
from .configurations import ConfigurationMatch, ReductionPlan, detect, detect_all, detect_iter
from .embedding import EmbeddedGraph, euler_defect_of
from .errors import (
    ChordError,
    CrossingChords,
    ForbiddenBoundExceeded,
    NoSafeColor,
    PlanInvalid,
    PositiveGenus,
)
from .squares import Coloring, _min_free, greedy_square_color

__all__ = [
    "ReductionPlan", "ReductionStep", "ReductionResult",
    "detect", "detect_all", "detect_iter",
    "plan", "apply_plan", "extend", "color_by_reduction",
]


@dataclass
class ReductionStep:
    """One pipeline step, recorded in reduction order; `color` filled on extension."""

    config_id: str
    variant: str
    center: int
    bindings: tuple[tuple[str, int], ...]
    deleted: int
    added_edges: tuple[tuple[int, int], ...]
    color: Optional[int] = None
    forbidden_size: Optional[int] = None


@dataclass
class ReductionResult:
    coloring: Coloring
    steps: tuple[ReductionStep, ...]
    fallback: bool
    fallback_witness: Optional[EmbeddedGraph]
    max_forbidden: int


def plan(g, match: ConfigurationMatch) -> ReductionPlan:
    """Validated plan for a match, or PlanInvalid when it cannot be executed.

    Chords already present in the graph are dropped: a distance-1 pair needs
    no help staying within distance 2. Rejection reasons are DegreeOverflow,
    NotOnMergedFace, and ChordCrossing; the caller is expected to try the next
    match rather than abort. `g` is an EmbeddedGraph or the engine's live
    context, which keeps the validated surgery for `apply_plan`.
    """
    ctx = cfg._Ctx.of(g)
    raw = cfg.build_plan_spec(ctx, match)
    delete = raw.delete
    chords = []
    seen = set()
    for a, b in raw.add_edges:
        if a == b:
            continue  # coincident role bindings: the pair constraint is vacuous
        if a == delete or b == delete or a not in ctx.rot or b not in ctx.rot:
            raise PlanInvalid("NotOnMergedFace", (a, b))
        key = (min(a, b), max(a, b))
        if key in seen or ctx.has_edge(a, b):
            continue
        seen.add(key)
        chords.append(key)
    chords.sort()

    gains: dict[int, int] = {}
    for a, b in chords:
        gains[a] = gains.get(a, 0) + 1
        gains[b] = gains.get(b, 0) + 1
    for w, inc in gains.items():
        after = ctx.deg[w] - (1 if ctx.has_edge(w, delete) else 0) + inc
        if after > 6:
            raise PlanInvalid("DegreeOverflow", (w, after))

    try:
        surgery = ctx.surgery(delete, chords)
    except CrossingChords as exc:
        raise PlanInvalid("ChordCrossing", exc.chords) from None
    except ChordError as exc:
        raise PlanInvalid("NotOnMergedFace", getattr(exc, "chord", None)) from None

    p = ReductionPlan(delete, tuple(chords), raw.source, raw.forbidden_bound, raw.variant)
    ctx.pending = (p, surgery)
    return p


def apply_plan(g, p: ReductionPlan):
    """Execute a validated plan: delete, then draw its chords into the hole.

    On an EmbeddedGraph this returns the reduced graph; the engine's live
    context is reduced in place and returned.
    """
    ctx = cfg._Ctx.of(g)
    if ctx.pending is not None and ctx.pending[0] is p:
        surgery = ctx.pending[1]
    else:
        surgery = ctx.surgery(p.delete, list(p.add_edges))
    ctx.commit(surgery)
    return ctx if ctx is g else ctx.to_graph()


def extend(g: EmbeddedGraph, phi: Coloring, v: int, *,
           bound: Optional[int] = None, source: str = "") -> int:
    """Least color in 1..palette absent from v's distance-two neighborhood.

    When `bound` is given (the matched configuration's ceiling), the size of
    the forbidden set is asserted against it; exceeding it means the detector
    matched a structure whose guarantees do not hold, which is a bug worth a
    loud failure.
    """
    return _extension(v, g.distance2_neighborhood(v), phi.assignment, phi.palette_size,
                      bound, source, lambda: g)[0]


def _extension(v: int, near, assignment: Mapping[int, int], palette_size: int,
               bound: Optional[int], source: str, graph_at) -> tuple[int, int]:
    """Color v from the colors of its distance-two neighborhood `near`.

    Returns (color, number of forbidden colors). Raises ForbiddenBoundExceeded
    when more than `bound` colors are forbidden, and NoSafeColor when none is
    free; only then is `graph_at()` called, for the witness's rotations.
    """
    forbidden = {assignment[u] for u in near if u in assignment}
    if bound is not None and len(forbidden) > bound:
        raise ForbiddenBoundExceeded(v, len(forbidden), bound, source)
    c = _min_free(forbidden, palette_size)
    if c is None:
        g = graph_at()
        raise NoSafeColor(v, forbidden, witness={
            "vertex": v,
            "rotation": {str(u): list(g.neighbors(u)) for u in g.vertices()},
            "partial_coloring": {str(u): k for u, k in sorted(assignment.items())},
        })
    return c, len(forbidden)


def _peel(ctx, catalog):
    """Reduce the live context in place, one step per item yielded.

    Each step takes the first match in detection order whose plan
    validates; it yields (match, plan, distance-2 neighborhood of the
    deleted vertex just before deletion). Stops at one vertex left, or
    earlier when no match can be planned.
    """
    while ctx.vertex_count > 1:
        for m in detect_iter(ctx, catalog):
            try:
                p = plan(ctx, m)
            except PlanInvalid:
                continue
            break
        else:
            return
        near = ctx.distance2_neighborhood(p.delete)
        apply_plan(ctx, p)
        yield m, p, near


def _level_graph(g: EmbeddedGraph, plans) -> EmbeddedGraph:
    """g after the given steps, rebuilt for an error report."""
    ctx = cfg._Ctx(g)
    for p in plans:
        ctx.commit(ctx.surgery(p.delete, list(p.add_edges)))
    return ctx.to_graph()


def color_by_reduction(g: EmbeddedGraph, palette_size: int = 20,
                       catalog=None) -> ReductionResult:
    """Color g with at most `palette_size` colors by configuration reductions.

    Reduces to a single vertex (or, if no configuration matches a graph with
    two or more vertices, falls back to the greedy colorer and flags the
    result), then extends backwards, asserting each step's forbidden-set
    ceiling. The returned coloring always satisfies the distance-2 constraint
    or an error is raised. Rotation systems of genus above 0 are refused
    with PositiveGenus.
    """
    ctx = cfg._Ctx(g)  # checks degrees, then traces g's faces once for the count and the steps
    defect = euler_defect_of(ctx.rot, g.edge_count, len(ctx.faces))
    if defect:
        raise PositiveGenus(defect)

    levels = list(_peel(ctx, catalog))
    fallback = ctx.vertex_count > 1
    if fallback:
        witness = ctx.to_graph()
        assignment = dict(greedy_square_color(witness, palette_size=palette_size).assignment)
    else:
        witness = None
        assignment = {v: 1 for v in ctx.rot}

    steps: list[ReductionStep] = []
    max_forbidden = 0
    for i in range(len(levels) - 1, -1, -1):
        match, p, near = levels[i]
        c, size = _extension(p.delete, near, assignment, palette_size,
                             p.forbidden_bound, p.source,
                             lambda: _level_graph(g, [q for _, q, _ in levels[:i]]))
        max_forbidden = max(max_forbidden, size)
        assignment[p.delete] = c
        steps.append(ReductionStep(
            config_id=match.config_id,
            variant=match.variant,
            center=match.center,
            bindings=match.bindings,
            deleted=p.delete,
            added_edges=p.add_edges,
            color=c,
            forbidden_size=size,
        ))

    steps.reverse()  # reduction order: first deletion first
    return ReductionResult(
        coloring=Coloring(assignment, palette_size),
        steps=tuple(steps),
        fallback=fallback,
        fallback_witness=witness,
        max_forbidden=max_forbidden,
    )
