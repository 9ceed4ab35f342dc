"""Embedded planar simple graphs.

A graph is given by its rotation system: for every vertex, the cyclic sequence
of its neighbors in clockwise order. The face set is not part of the input; it
is traced from the rotations on demand by the integer dart kernel `Darts`.
Only the face accessors (`faces`, `face_of_dart` and the methods built on
them) cache faces on the graph, as `Face` objects; the reduction engine and
the audit keep a kernel of their own (`_live._Ctx`, which also edits the
faces at a hole) and leave the graph as it was built. Two surgery
primitives return new graphs: vertex deletion (the faces around the hole
merge into one returned face) and chord insertion inside a face.

Vertex ids are stable across surgery: deleting vertex 5 from a graph on
{0..9} yields a graph on {0..4, 6..9}. This is what lets reduced graphs be
compared vertex-by-vertex with their originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    AsymmetricAdjacency,
    BadLabel,
    ChordAlreadyEdge,
    CrossingChords,
    DanglingVertexId,
    EndpointNotOnFace,
    LoopEdge,
    ParallelEdge,
)

Dart = tuple[int, int]
_tail = itemgetter(0)  # a dart's first vertex


@dataclass(frozen=True, slots=True)
class Face:
    """One traced face: a closed walk of darts, exported by `Darts.export`.

    Walks of length < 3 can occur on degenerate inputs (a single edge traces
    a walk of length 2); they are reported as-is via `anomalous`, never
    silently repaired.
    """

    id: int
    boundary: tuple[Dart, ...]

    @property
    def degree(self) -> int:
        return len(self.boundary)

    @property
    def anomalous(self) -> bool:
        return self.degree < 3

    def vertex_walk(self) -> tuple[int, ...]:
        """Vertices along the boundary, one per dart (repeats possible)."""
        return tuple(map(_tail, self.boundary))

    def vertices(self) -> frozenset[int]:
        return frozenset(map(_tail, self.boundary))


@dataclass(frozen=True)
class VertexStats:
    """Local profile of one vertex: degree, incident face sizes, neighbor degrees."""

    vertex: int
    degree: int
    m3: int
    m4: int
    m5plus: int
    n3: int
    n4: int
    n5: int
    n6: int
    incident_faces: tuple[int, ...]


class EmbeddedGraph:
    """Immutable planar-embedded simple graph.

    It keeps only its rotations, labels and edge count, plus the face cache
    once a face accessor has been called. Construction validates local
    consistency only (symmetry, no loops, no parallel edges, no dangling
    ids, each label a string on a vertex of the rotation); whether the
    rotation system has genus 0 is the caller's concern and is observable
    through the Euler count.
    """

    __slots__ = ("_rot", "_labels", "_faces", "_darts", "_edge_count")

    def __init__(self, rotations: Mapping[int, Sequence[int]],
                 labels: Optional[Mapping[int, str]] = None):
        rot: dict[int, tuple[int, ...]] = {}
        for v in sorted(rotations):
            rot[int(v)] = tuple(map(int, rotations[v]))
        nbr_sets: dict[int, frozenset[int]] = {}  # for the symmetry check only
        dart_count = 0
        for v, ns in rot.items():
            for u in ns:
                if u == v:
                    raise LoopEdge((v, u))
                if u not in rot:
                    raise DanglingVertexId((v, u))
            s = frozenset(ns)
            if len(s) != len(ns):
                dup = next(u for u in ns if ns.count(u) > 1)
                raise ParallelEdge((v, dup))
            nbr_sets[v] = s
            dart_count += len(ns)
        for v, ns in rot.items():
            for u in ns:
                if v not in nbr_sets[u]:
                    raise AsymmetricAdjacency((v, u))
        self._labels = dict(labels) if labels else {}
        for v, name in self._labels.items():
            if v not in rot or not isinstance(name, str):
                raise BadLabel(v, name)
        self._rot = rot
        self._edge_count = dart_count // 2
        self._faces: Optional[tuple[Face, ...]] = None
        self._darts: Optional[Darts] = None

    # -- basic accessors ----------------------------------------------------

    def vertices(self) -> tuple[int, ...]:
        return tuple(self._rot)

    @property
    def vertex_count(self) -> int:
        return len(self._rot)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def rotation(self, v: int) -> tuple[int, ...]:
        return self._rot[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._rot[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return frozenset(self._rot[v])

    def degree(self, v: int) -> int:
        return len(self._rot[v])

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._rot.values()), default=0)

    def has_edge(self, u: int, w: int) -> bool:
        return w in self._rot.get(u, ())

    def edges(self) -> Iterable[tuple[int, int]]:
        for v, ns in self._rot.items():
            for u in ns:
                if v < u:
                    yield (v, u)

    def labels(self) -> dict[int, str]:
        return dict(self._labels)

    def rotation_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self._rot)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return self._rot == other._rot and self._labels == other._labels

    def __hash__(self):
        return hash(tuple(sorted((v, ns) for v, ns in self._rot.items())))

    def __repr__(self):
        return f"EmbeddedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"

    # -- faces ---------------------------------------------------------------

    def _trace(self) -> None:
        self._darts = Darts(self._rot)
        self._faces = self._darts.export()

    def faces(self) -> tuple[Face, ...]:
        if self._faces is None:
            self._trace()
        return self._faces

    def face_of_dart(self, dart: Dart) -> Face:
        faces = self.faces()
        a, b = dart
        return faces[self._darts.face[self._darts.off[a] + self._rot[a].index(b)]]

    def face_count(self) -> int:
        return len(self.faces())

    def corner_faces(self, v: int) -> tuple[Face, ...]:
        """Face at each rotation corner of v.

        Entry j is the face in the corner between neighbors rotation[j] and
        rotation[j+1]; it contains the dart (v, rotation[j+1]).
        """
        faces = self.faces()
        o = self._darts.off[v]
        ids = self._darts.face[o:o + len(self._rot[v])]
        return tuple(faces[f] for f in ids[1:] + ids[:1])

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count()

    def euler_defect(self) -> int:
        """V - E + F + I - 2C, with I the isolated vertices (they trace no face).

        Zero exactly when every component is embedded in the sphere; each
        handle of a component's surface lowers it by two. The faces are
        traced for the count and not kept.
        """
        return euler_defect_of(self._rot, self._edge_count, len(Darts(self._rot).trace()),
                               len(components(self._rot)))

    # -- local statistics ----------------------------------------------------

    def vertex_stats(self, v: int) -> VertexStats:
        ns = self._rot[v]
        incident = self.corner_faces(v)
        distinct = {}
        for f in incident:
            distinct[f.id] = f
        m3 = sum(1 for f in distinct.values() if f.degree == 3)
        m4 = sum(1 for f in distinct.values() if f.degree == 4)
        m5p = sum(1 for f in distinct.values() if f.degree >= 5)
        degs = [len(self._rot[u]) for u in ns]
        return VertexStats(
            vertex=v,
            degree=len(ns),
            m3=m3,
            m4=m4,
            m5plus=m5p,
            n3=sum(1 for d in degs if d == 3),
            n4=sum(1 for d in degs if d == 4),
            n5=sum(1 for d in degs if d == 5),
            n6=sum(1 for d in degs if d == 6),
            incident_faces=tuple(f.id for f in incident),
        )

    def distance2_neighborhood(self, v: int) -> frozenset[int]:
        return within_distance2(self._rot, v)

    # -- connectivity ----------------------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        return components(self._rot)

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    # -- surgery ---------------------------------------------------------------

    def delete_vertex(self, v: int) -> tuple["EmbeddedGraph", Optional[Face]]:
        """Remove v and its darts; return the new graph and the merged face.

        The faces incident to v merge into the face of the new graph that
        borders the hole. Returns None for the face when no dart survives
        next to the hole (v was isolated, or all its neighbors were pendant).
        """
        old_rot = self._rot
        new_rot = {u: tuple(x for x in ns if x != v)
                   for u, ns in old_rot.items() if u != v}
        labels = {u: s for u, s in self._labels.items() if u != v}
        g2 = EmbeddedGraph(new_rot, labels)
        merged = None
        for u in old_rot[v]:
            if len(new_rot[u]) == 0:
                continue
            ns = old_rot[u]
            q = ns[(ns.index(v) + 1) % len(ns)]
            merged = g2.face_of_dart((u, q))
            break
        return g2, merged

    def add_chords(self, face: Face, chords: Sequence[tuple[int, int]]) -> "EmbeddedGraph":
        """Insert pairwise non-crossing chords inside one face of this graph.

        Each new dart is placed in the rotation immediately next to the
        face-boundary dart at its endpoint, so the chords are drawn inside the
        face. Every accepted chord raises the face count by exactly one; chords
        that cross, or any other placement that would not, are rejected with
        CrossingChords. That count is this path's Euler test.
        """
        if not chords:
            return self
        new_rot = dict(self._rot)
        new_rot.update(place_chords(face.vertex_walk(), chords, self.rotation, self.has_edge))
        g2 = EmbeddedGraph(new_rot, self._labels)
        if g2.face_count() != self.face_count() + len(chords):
            raise CrossingChords(tuple(chords))
        return g2


class Darts:
    """Integer darts of a rotation system, the half-edge record of plantri
    (Brinkmann and McKay 2007) and of the DCEL (Muller and Preparata 1978).

    Vertex v owns the ids off[v] .. off[v] + max(deg v, 6) - 1, in `rot`'s
    vertex order, and its dart to rot[v][j] is off[v] + j. The numbering
    needs `rot` in sorted vertex order, as EmbeddedGraph keeps it: then ids
    follow (vertex, rotation position), a walk starts at its smallest dart
    and `trace` numbers faces by smallest (tail, head) pair. Six slots let
    the engine grow a vertex to degree 6 in place; no array is sized by the
    maximum degree. `twin[d]` is d reversed, `nxt[d]` the next dart around
    its tail `tail[d]`, `face[d]` its face id (-1 before `trace`); a face
    walk goes from d to nxt[twin[d]].
    """

    __slots__ = ("rot", "off", "tail", "twin", "nxt", "face")

    def __init__(self, rot: Mapping[int, Sequence[int]]):
        self.rot = rot
        slots = [max(len(ns), 6) for ns in rot.values()]
        off = self.off = dict(zip(rot, accumulate(slots, initial=0)))
        self.tail = list(chain.from_iterable(map(repeat, rot, slots)))
        nxt = self.nxt = list(range(1, len(self.tail) + 1))
        twin = self.twin = [-1] * len(self.tail)
        self.face = [-1] * len(self.tail)
        # w's slot of each neighbor: a scan of at most six, else one hash.
        slot = {w: ns.index if len(ns) <= 6 else dict(zip(ns, range(len(ns)))).__getitem__
                for w, ns in rot.items()}
        for v, ns in rot.items():
            if ns:
                o = off[v]
                nxt[o + len(ns) - 1] = o
                twin[o:o + len(ns)] = [off[w] + slot[w](v) for w in ns]

    def trace(self) -> list[list[int]]:
        """Every face walk as its darts, from its smallest one, and set `face`.

        With `rot` sorted, faces are numbered in order of their smallest
        (tail, head) pair of vertex ids: each vertex seeds its untraced darts
        by head, so a walk is found at that pair.
        """
        twin, nxt, face = self.twin, self.nxt, self.face
        walks = []
        for v, ns in self.rot.items():
            o = self.off[v]
            for j in sorted(range(len(ns)), key=ns.__getitem__):
                d = o + j
                if face[d] < 0:
                    f = len(walks)
                    walk = []
                    while face[d] < 0:
                        face[d] = f
                        walk.append(d)
                        d = nxt[twin[d]]
                    i = walk.index(min(walk))
                    walks.append(walk[i:] + walk[:i] if i else walk)
        return walks

    def export(self) -> tuple[Face, ...]:
        """Every face as a `Face`, numbered and started as `trace` does."""
        walks = [list(map(self.tail.__getitem__, w)) for w in self.trace()]
        return tuple(Face(i, tuple(zip(vs, vs[1:] + vs[:1]))) for i, vs in enumerate(walks))


def euler_defect_of(rot: Mapping[int, Sequence[int]], edge_count: int, face_count: int,
                    component_count: int) -> int:
    """V - E + F + I - 2C of rotation system `rot` (see EmbeddedGraph.euler_defect)."""
    isolated = sum(1 for ns in rot.values() if not ns)
    return len(rot) - edge_count + face_count + isolated - 2 * component_count


def components(rot: Mapping[int, Sequence[int]]) -> list[frozenset[int]]:
    """Vertex sets of the connected components under `rot`, by smallest vertex."""
    seen: set[int] = set()
    comps = []
    for start in sorted(rot):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            for u in rot[frontier.pop()]:
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def within_distance2(rot: Mapping[int, Sequence[int]], v: int) -> frozenset[int]:
    """All vertices at distance 1 or 2 from v under rotations `rot`."""
    out = set(rot[v])
    for u in rot[v]:
        out.update(rot[u])
    out.discard(v)
    return frozenset(out)


def place_chords(walk: Sequence[int], chords: Sequence[tuple[int, int]],
                 rotation, has_edge) -> dict[int, list[int]]:
    """New rotations of the endpoints after drawing `chords` inside one face.

    `walk` is the face's vertex walk from its traced start; an endpoint that
    repeats on it is placed at its first occurrence. `rotation(v)` and
    `has_edge(a, b)` describe the graph before insertion. Each new dart goes
    into the corner after the walk's incoming neighbor, farthest target
    first, so the chords are drawn inside the face. Raises EndpointNotOnFace
    or ChordAlreadyEdge. Crossing chords are not detected here: whether the
    placement splits the face once per chord, and so keeps the graph plane,
    is left to the caller's face count. Only `add_chords` draws chords with
    it; the tests hold the engine's surgery, which places each end at one
    corner without a walk, to it where no end repeats on the face.
    """
    length = len(walk)
    seen: set[tuple[int, int]] = set()
    # Group new darts by boundary corner, then insert each group right
    # after the corner's incoming neighbor, farthest target first.
    by_corner: dict[int, list[tuple[int, int]]] = {}
    for a, b in chords:
        if a == b or a not in walk or b not in walk:
            raise EndpointNotOnFace((a, b))
        key = (a, b) if a < b else (b, a)
        if key in seen or has_edge(a, b):
            raise ChordAlreadyEdge((a, b))
        seen.add(key)
        pa, pb = walk.index(a), walk.index(b)
        by_corner.setdefault(pa, []).append(((pb - pa) % length, b))
        by_corner.setdefault(pb, []).append(((pa - pb) % length, a))

    out: dict[int, list[int]] = {}
    for pos, targets in by_corner.items():
        a = walk[pos]
        ns = list(rotation(a))
        targets.sort(reverse=True)
        at = ns.index(walk[(pos - 1) % length]) + 1
        ns[at:at] = [b for _, b in targets]
        out[a] = ns
    return out


def build_embedded(vertex_count: int, rotations: Sequence[Sequence[int]],
                   labels: Optional[Mapping[int, str]] = None) -> EmbeddedGraph:
    """Build a validated graph on vertex ids 0..vertex_count-1."""
    if len(rotations) != vertex_count:
        raise DanglingVertexId((len(rotations), vertex_count))
    return EmbeddedGraph({i: rotations[i] for i in range(vertex_count)}, labels)
