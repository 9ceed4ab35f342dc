"""Independent ground truth: exact chromatic search and matrix-based distances.

Everything here deliberately avoids the BFS and rotation-system code paths of
the rest of the package, so it can serve as a cross-check. Distances come from
a boolean adjacency-matrix product over integer bit rows; the exact chromatic
number comes from a branch-and-bound search over the square graph that either
proves its answer or raises, never approximates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import Infeasible, TooLarge, VertexSetMismatch
from .squares import Coloring


@dataclass(frozen=True)
class ExactResult:
    chi2: int
    witness: Coloring
    nodes_explored: int


def distances_le2(g: EmbeddedGraph) -> frozenset[frozenset[int]]:
    """Unordered pairs of distinct vertices at distance 1 or 2.

    Computed as A | A^2 over the 0/1 adjacency matrix, one integer bit row
    per vertex (row i of A^2 is the OR of the rows of i's neighbors),
    independently of the breadth-first neighborhood code.
    """
    verts = list(g.vertices())
    idx = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in g.neighbors(v):
            rows[i] |= 1 << idx[u]
    pairs = set()
    for i, v in enumerate(verts):
        reach = rows[i]
        for u in g.neighbors(v):
            reach |= rows[idx[u]]
        reach >>= i + 1  # bit j now stands for vertex i + 1 + j: pairs i < j only
        while reach:
            j = reach.bit_length() - 1
            reach ^= 1 << j
            pairs.add(frozenset((v, verts[i + 1 + j])))
    return frozenset(pairs)


def is_proper_wrt(g: EmbeddedGraph, g_reduced: EmbeddedGraph):
    """Check that g_reduced preserves distance <= 2 between surviving pairs.

    Returns (True, None) or (False, (u, w)) with a violating pair: u, w present
    in both graphs, within distance two in g but not in g_reduced.
    """
    orig = set(g.vertices())
    extra = set(g_reduced.vertices()) - orig
    if extra:
        raise VertexSetMismatch(sorted(extra))
    shared = orig & set(g_reduced.vertices())
    close_orig = distances_le2(g)
    close_red = distances_le2(g_reduced)
    for pair in sorted(close_orig, key=sorted):
        u, w = sorted(pair)
        if u in shared and w in shared and pair not in close_red:
            return False, (u, w)
    return True, None


_DEFAULT_NODE_CAP = 20_000_000


def chi2_exact(g: EmbeddedGraph, upper_bound: int = 20, vertex_limit: int = 16,
               node_cap: int = _DEFAULT_NODE_CAP) -> ExactResult:
    """Exact 2-distance chromatic number by branch and bound.

    Proper coloring of the square graph with a greedy-clique lower bound,
    saturation-first branching, and symmetry breaking (the seed clique is
    pre-colored and each vertex may open at most one new color). Raises
    TooLarge past the vertex limit or node budget, and Infeasible when the
    proven optimum exceeds upper_bound.
    """
    verts = sorted(g.vertices())
    n = len(verts)
    if n > vertex_limit:
        raise TooLarge(f"{n} vertices > limit {vertex_limit}")
    if n == 0:
        return ExactResult(0, Coloring({}, max(upper_bound, 1)), 0)

    idx = {v: i for i, v in enumerate(verts)}
    adj = [set() for _ in range(n)]
    for pair in distances_le2(g):
        u, w = tuple(pair)
        adj[idx[u]].add(idx[w])
        adj[idx[w]].add(idx[u])

    clique = _greedy_clique(adj)
    lower = len(clique)

    best_colors, best_count = _dsatur(adj)
    nodes = 0

    color = [0] * n
    for c, v in enumerate(clique, start=1):
        color[v] = c

    def solve(colored: int, used: int) -> None:
        nonlocal nodes, best_colors, best_count
        nodes += 1
        if nodes > node_cap:
            raise TooLarge(f"node budget {node_cap} exhausted")
        if used >= best_count:
            return
        if colored == n:
            best_count = used
            best_colors = color[:]
            return
        v = _most_saturated(adj, color)
        neighbor_colors = {color[u] for u in adj[v] if color[u]}
        cap = min(used + 1, best_count - 1)
        for c in range(1, cap + 1):
            if c in neighbor_colors:
                continue
            color[v] = c
            solve(colored + 1, max(used, c))
            color[v] = 0

    if lower < best_count:
        solve(len(clique), lower)
    chi2 = best_count
    if chi2 > upper_bound:
        raise Infeasible(upper_bound, chi2)
    witness = Coloring({verts[i]: best_colors[i] for i in range(n)},
                       max(upper_bound, chi2))
    return ExactResult(chi2=chi2, witness=witness, nodes_explored=nodes)


def _greedy_clique(adj) -> list[int]:
    n = len(adj)
    candidates = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    allowed = set(range(n))
    for v in candidates:
        if v in allowed:
            clique.append(v)
            allowed &= adj[v]
    return clique


def _most_saturated(adj, color) -> int:
    best, key = -1, None
    for v in range(len(adj)):
        if color[v]:
            continue
        sat = len({color[u] for u in adj[v] if color[u]})
        k = (sat, len(adj[v]), -v)
        if key is None or k > key:
            best, key = v, k
    return best


def _dsatur(adj) -> tuple[list[int], int]:
    n = len(adj)
    color = [0] * n
    for _ in range(n):
        v = _most_saturated(adj, color)
        neighbor_colors = {color[u] for u in adj[v] if color[u]}
        c = 1
        while c in neighbor_colors:
            c += 1
        color[v] = c
    return color, max(color, default=0)
