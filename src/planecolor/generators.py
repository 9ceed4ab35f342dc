"""Embedded-graph generators for the test corpus and the CLI.

Every generator is deterministic for fixed parameters. random_planar uses a
self-contained splitmix64 PRNG with fixed constants so that identical seeds
reproduce identical graphs on every platform.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .embedding import EmbeddedGraph, build_embedded
from .errors import BadParams


@dataclass(frozen=True)
class GeneratorSpec:
    """A named generator plus its parameters, e.g. GeneratorSpec("tri_grid", {"rows": 4, "cols": 4})."""

    kind: str
    params: dict = field(default_factory=dict)


def generate(spec: GeneratorSpec) -> EmbeddedGraph:
    try:
        builder = _KINDS[spec.kind]
    except KeyError:
        raise BadParams(f"unknown generator kind {spec.kind!r}; known: {sorted(_KINDS)}")
    try:
        return builder(**spec.params)
    except TypeError as exc:
        raise BadParams(f"bad parameters for {spec.kind}: {exc}") from None


# ---------------------------------------------------------------------------
# Platonic solids
# ---------------------------------------------------------------------------

def tetrahedron() -> EmbeddedGraph:
    return build_embedded(4, [
        (1, 2, 3),
        (0, 3, 2),
        (0, 1, 3),
        (0, 2, 1),
    ])


def cube() -> EmbeddedGraph:
    rot = []
    for i in range(4):
        rot.append(((i - 1) % 4, i + 4, (i + 1) % 4))
    for i in range(4):
        rot.append((i, (i - 1) % 4 + 4, (i + 1) % 4 + 4))
    return build_embedded(8, rot)


def octahedron() -> EmbeddedGraph:
    rot = [(4, 3, 2, 1)]
    for i in range(1, 5):
        nxt = i % 4 + 1
        prv = (i + 2) % 4 + 1
        rot.append((0, nxt, 5, prv))
    rot.append((1, 2, 3, 4))
    return build_embedded(6, rot)


def icosahedron() -> EmbeddedGraph:
    # Top pole 0, upper ring 1..5, lower ring 6..10 (6+i-1 below edge i,i+1), bottom pole 11.
    def u(i):
        return (i - 1) % 5 + 1

    def low(i):
        return (i - 1) % 5 + 6

    rot: dict[int, tuple[int, ...]] = {0: (5, 4, 3, 2, 1), 11: (6, 7, 8, 9, 10)}
    for i in range(1, 6):
        rot[u(i)] = (0, u(i + 1), low(i), low(i - 1), u(i - 1))
        rot[low(i)] = (u(i), u(i + 1), low(i + 1), 11, low(i - 1))
    return EmbeddedGraph(rot)


def dodecahedron() -> EmbeddedGraph:
    return dual_graph(icosahedron())


def dual_graph(g: EmbeddedGraph) -> EmbeddedGraph:
    """Planar dual: one vertex per face, rotation = neighboring faces in walk order.

    Valid for inputs whose distinct faces share at most one edge (true for the
    solids this package builds duals of).
    """
    faces = g.faces()
    rot = {}
    for f in faces:
        rot[f.id] = tuple(g.face_of_dart((b, a)).id for a, b in f.boundary)
    return EmbeddedGraph(rot)


_PLATONIC = {
    "tetrahedron": tetrahedron,
    "cube": cube,
    "octahedron": octahedron,
    "dodecahedron": dodecahedron,
    "icosahedron": icosahedron,
}


def platonic(name: str) -> EmbeddedGraph:
    try:
        return _PLATONIC[name]()
    except KeyError:
        raise BadParams(f"unknown platonic solid {name!r}; known: {sorted(_PLATONIC)}")


# ---------------------------------------------------------------------------
# Lattice patches
# ---------------------------------------------------------------------------

def square_grid(rows: int, cols: int) -> EmbeddedGraph:
    """rows x cols orthogonal lattice patch."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise BadParams("square_grid needs rows, cols >= 1 and at least two vertices")
    return _lattice(rows, cols, diagonals=False)


def tri_grid(rows: int, cols: int) -> EmbeddedGraph:
    """Square lattice patch plus one down-right diagonal per cell.

    Interior vertices have degree 6 with six incident triangles.
    """
    if rows < 2 or cols < 2:
        raise BadParams("tri_grid needs rows, cols >= 2")
    return _lattice(rows, cols, diagonals=True)


# Screen coordinates, y growing downward; clockwise order of the six
# lattice directions used by square/triangular patches.
_LATTICE_DIRS = ((0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0))


def _lattice(rows: int, cols: int, diagonals: bool) -> EmbeddedGraph:
    return build_embedded(rows * cols, _lattice_rotations(rows, cols, diagonals))


def _lattice_rotations(rows: int, cols: int, diagonals: bool) -> list[tuple[int, ...]]:
    """The rotation of each vertex r * cols + c of the patch, in id order."""
    dirs = [(dr, dc) for dr, dc in _LATTICE_DIRS if diagonals or not (dr and dc)]
    rot = []
    for r in range(rows):
        steps = [(dc, dr * cols + dc) for dr, dc in dirs if 0 <= r + dr < rows]  # (dc, id step)
        for c in range(cols):
            rot.append(tuple([r * cols + c + step for dc, step in steps if 0 <= c + dc < cols]))
    return rot


# Corner coordinates are exact pairs (a, b) meaning the point (a/2, b*sqrt(3)/2);
# the six unit directions between corners, in clockwise order.
_HEX_DIRS = ((2, 0), (1, -1), (-1, -1), (-2, 0), (-1, 1), (1, 1))
_HEX_CORNERS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


def hex_grid(rings: int) -> EmbeddedGraph:
    """Honeycomb patch: all hexagonal cells within the given ring count (rings=1 is one hexagon)."""
    if rings < 1:
        raise BadParams("hex_grid needs rings >= 1")
    centers = []
    rr = rings - 1
    for q in range(-rr, rr + 1):
        for r in range(-rr, rr + 1):
            if (abs(q) + abs(r) + abs(q + r)) // 2 <= rr:
                centers.append((q, r))
    corners: set[tuple[int, int]] = set()
    edges: set[frozenset[tuple[int, int]]] = set()
    for q, r in centers:
        base = (3 * q, 2 * r + q)
        ring = [(base[0] + oa, base[1] + ob) for oa, ob in _HEX_CORNERS]
        corners.update(ring)
        for i in range(6):
            edges.add(frozenset((ring[i], ring[(i + 1) % 6])))
    ids = {p: i for i, p in enumerate(sorted(corners))}
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in ids.values()}
    for e in edges:
        p, s = tuple(e)
        adj[ids[p]].append(s)
        adj[ids[s]].append(p)
    order = {d: i for i, d in enumerate(_HEX_DIRS)}
    rot = {}
    for p, i in ids.items():
        ns = sorted(adj[i], key=lambda s: order[(s[0] - p[0], s[1] - p[1])])
        rot[i] = tuple(ids[s] for s in ns)
    return EmbeddedGraph(rot)


def cycle(n: int) -> EmbeddedGraph:
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    return build_embedded(n, [((i - 1) % n, (i + 1) % n) for i in range(n)])


def path(n: int) -> EmbeddedGraph:
    if n < 1:
        raise BadParams("path needs n >= 1")
    if n == 1:
        return build_embedded(1, [()])
    rot = [(1,)]
    for i in range(1, n - 1):
        rot.append((i - 1, i + 1))
    rot.append((n - 2,))
    return build_embedded(n, rot)


# ---------------------------------------------------------------------------
# Seeded random planar graphs
# ---------------------------------------------------------------------------

class SplitMix64:
    """splitmix64 with the standard constants; stable across platforms."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant here."""
        return self.next64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]


def random_planar(n: int, seed: int) -> EmbeddedGraph:
    """Connected random planar graph on exactly n vertices with Delta <= 6.

    Grows a triangular-lattice patch of at least n vertices, then removes
    random vertices and a random fraction of edges, keeping the graph
    connected at every step. Vertex removal and edge removal only lower
    degrees, so the degree bound of the patch is preserved, and they keep
    its embedding, so only the rotation map is edited until the end.

    Each removal is made in place and undone if `_joined` finds that the
    cut ends (a deleted vertex's neighbors, a deleted edge's two ends) no
    longer meet. Its searches stop at about the smaller side of the cut, so
    generation is near-linear in n. The draws index sorted lists of the
    vertices and edges, edited in place, so a seed gives the same graph as
    when every attempt sorted and searched the whole graph.
    """
    if n < 2:
        raise BadParams("random_planar needs n >= 2")
    rng = SplitMix64((seed << 1) ^ 0xA5A5A5A5A5A5A5A5)
    side = max(2, math.isqrt(n - 1) + 2)
    rot = dict(enumerate(_lattice_rotations(side, side, diagonals=True)))
    verts = list(rot)

    while len(verts) > n:
        for _ in range(8 * len(verts)):
            v = rng.choice(verts)
            ns = rot[v]
            undo = _cut(rot, v, ns)
            if _joined(rot, ns):
                del rot[v]
                del verts[bisect_left(verts, v)]
                break
            rot.update(undo)
        else:
            raise BadParams("could not shrink patch while staying connected")

    edges = sorted((v, u) for v, ns in rot.items() for u in ns if v < u)
    surplus = len(edges) - (len(verts) - 1)
    target_removals = (rng.below(30) * surplus) // 100  # thin 0..29% of the slack
    removed = 0
    attempts = 0
    while removed < target_removals and attempts < 20 * target_removals + 20:
        attempts += 1
        u, w = rng.choice(edges)
        undo = _cut(rot, u, (w,))
        if _joined(rot, (u, w)):
            del edges[bisect_left(edges, (u, w))]
            removed += 1
        else:
            rot.update(undo)

    relabel = {old: new for new, old in enumerate(verts)}
    return EmbeddedGraph({relabel[v]: tuple(relabel[u] for u in ns) for v, ns in rot.items()})


def _cut(rot: dict[int, tuple[int, ...]], v: int, drop: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Remove the edges from v to the vertices in `drop` from `rot` in place;
    return the rotations replaced, so that `rot.update` undoes the cut."""
    undo = {u: rot[u] for u in drop}
    undo[v] = rot[v]
    rot[v] = tuple(x for x in rot[v] if x not in drop)
    for u in drop:
        rot[u] = tuple(x for x in rot[u] if x != v)
    return undo


def _joined(rot: Mapping[int, Sequence[int]], starts: Sequence[int]) -> bool:
    """Whether the vertices in `starts` all lie in one component of `rot`.

    One depth-first search per start runs in lockstep, a vertex at a time,
    and searches that reach each other's vertices merge. The answer is yes
    once all have merged and no once one runs dry. If a cut splits a
    connected graph, every side holds a start, so the searches stop within
    the number of starts times the smaller side (Even and Shiloach, 1981);
    if it does not, they stop where they meet, on a lattice patch a face or
    so away.
    """
    owner = {s: i for i, s in enumerate(starts)}  # vertex -> search that reached it
    into = list(range(len(starts)))  # search -> the search it merged into
    stacks = [[s] for s in starts]
    live = len(starts)
    while live > 1:
        for i, stack in enumerate(stacks):
            if into[i] != i:
                continue
            if not stack:
                return False
            for y in rot[stack.pop()]:
                j = owner.get(y)
                if j is None:
                    owner[y] = i
                    stack.append(y)
                    continue
                while into[j] != j:
                    j = into[j]
                if j != i:
                    into[j] = i
                    stack += stacks[j]
                    live -= 1
                    if live == 1:
                        return True
    return True


_KINDS = {
    "platonic": platonic,
    "square_grid": square_grid,
    "hex_grid": hex_grid,
    "tri_grid": tri_grid,
    "cycle": cycle,
    "path": path,
    "random_planar": random_planar,
}
