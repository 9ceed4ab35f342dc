"""Square-graph adjacency, 2-distance coloring validity, and a greedy fallback.

A coloring is 2-distance-valid when vertices at graph distance 1 or 2 never
share a color; equivalently, when it properly colors the square graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .embedding import EmbeddedGraph
from .errors import ColorOutOfPalette, PaletteExhausted


@dataclass(frozen=True)
class Coloring:
    """Partial or total assignment vertex -> color in 1..palette_size."""

    assignment: dict[int, int]
    palette_size: int

    def __post_init__(self):
        for v, c in self.assignment.items():
            if not isinstance(c, int) or c < 1:
                raise ColorOutOfPalette(v, c, self.palette_size)

    def get(self, v: int) -> Optional[int]:
        return self.assignment.get(v)

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


@dataclass(frozen=True)
class ValidityReport:
    """Verdict of a validity check, with every violating pair as a witness."""

    valid: bool
    violations: tuple[tuple[int, int, int, int], ...]  # (u, w, distance, color)
    colors_used: int


def square(g: EmbeddedGraph) -> dict[int, frozenset[int]]:
    """Adjacency of the square graph: u ~ w iff their distance in g is 1 or 2."""
    return {v: g.distance2_neighborhood(v) for v in g.vertices()}


def square_pairs(g: EmbeddedGraph) -> list[tuple[int, int]]:
    """Sorted unordered pairs at distance 1 or 2."""
    adj = square(g)
    return sorted((v, u) for v, ns in adj.items() for u in ns if v < u)


def verify_coloring(g: EmbeddedGraph, phi: Coloring) -> ValidityReport:
    """Check phi against every distance-<=2 pair of g.

    Partial colorings are allowed; only pairs with both ends assigned are
    checked. Violations come out in lexicographic vertex order. Two vertices
    at distance 2 share a neighbor, so phi is valid exactly when no rotation
    holds a color twice or holds its own vertex's color: one pass over the
    rotations, O(E). Only when that pass finds a clash are the pairs at
    distance 1 or 2 listed (`square_pairs`) to report each one.
    """
    for v in g.vertices():
        c = phi.get(v)
        if c is not None and c > phi.palette_size:
            raise ColorOutOfPalette(v, c, phi.palette_size)
    violations = []
    if not _clean(g, phi.assignment.get):
        for u, w in square_pairs(g):
            cu, cw = phi.get(u), phi.get(w)
            if cu is not None and cu == cw:
                dist = 1 if g.has_edge(u, w) else 2
                violations.append((u, w, dist, cu))
    return ValidityReport(
        valid=not violations,
        violations=tuple(violations),
        colors_used=len({phi.assignment[v] for v in g.vertices() if v in phi.assignment}),
    )


def _clean(g: EmbeddedGraph, color) -> bool:
    """No rotation of g holds an assigned color twice, or its vertex's own."""
    for v, ns in g.rotation_map().items():
        cs = list(map(color, ns))
        seen = set(cs)
        unassigned = cs.count(None)
        if unassigned:
            seen.discard(None)
        if len(seen) < len(cs) - unassigned or color(v) in seen:
            return False
    return True


def default_order(g: EmbeddedGraph) -> list[int]:
    """Descending degree, ties by vertex id."""
    return sorted(g.vertices(), key=lambda v: (-g.degree(v), v))


def greedy_square_color(g: EmbeddedGraph, order: Optional[Sequence[int]] = None,
                        palette_size: int = 20) -> Coloring:
    """Color vertices in the given order with the least free color.

    A color is free for v when no already-colored vertex within distance two
    holds it. Raises PaletteExhausted when a vertex has no free color.
    """
    if order is None:
        order = default_order(g)
    else:
        order = list(order)
        if sorted(order) != sorted(g.vertices()):
            raise ValueError("order must be a permutation of the vertex set")
    assignment: dict[int, int] = {}
    for v in order:
        forbidden = {assignment[u] for u in g.distance2_neighborhood(v) if u in assignment}
        c = _min_free(forbidden, palette_size)
        if c is None:
            raise PaletteExhausted(v, len(forbidden))
        assignment[v] = c
    return Coloring(assignment, palette_size)


def _min_free(forbidden, palette_size: int) -> Optional[int]:
    for c in range(1, palette_size + 1):
        if c not in forbidden:
            return c
    return None
