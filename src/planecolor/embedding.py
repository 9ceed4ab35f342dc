"""Embedded planar simple graphs.

A graph is given by its rotation system: for every vertex, the cyclic sequence
of its neighbors in clockwise order. The face set is not part of the input; it
is traced from the rotations on demand with the standard next-dart rule
(`trace_faces`). Only the face accessors (`faces`, `face_of_dart` and the
methods built on them) cache it on the graph; the reduction engine and the
audit trace into their own contexts and leave the graph as it was built. Two
surgery primitives return new graphs: vertex deletion (the faces around the
hole merge into one returned face) and chord insertion inside a face.

Vertex ids are stable across surgery: deleting vertex 5 from a graph on
{0..9} yields a graph on {0..4, 6..9}. This is what lets reduced graphs be
compared vertex-by-vertex with their originals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    AsymmetricAdjacency,
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
    """One traced face: a closed walk of darts.

    `degree` is the walk length, stored at construction because the scanners
    read it far more often than faces are made; it takes no part in equality,
    hashing or repr. Walks of length < 3 can occur on degenerate inputs (a
    single edge traces a walk of length 2); they are reported as-is via
    `anomalous`, never silently repaired.
    """

    id: int
    boundary: tuple[Dart, ...]
    degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "degree", len(self.boundary))

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
    ids); whether the rotation system has genus 0 is the caller's concern
    and is observable through the Euler count.
    """

    __slots__ = ("_rot", "_labels", "_faces", "_dart_face", "_edge_count")

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
        self._rot = rot
        self._edge_count = dart_count // 2
        self._labels = dict(labels) if labels else {}
        self._faces: Optional[tuple[Face, ...]] = None
        self._dart_face: Optional[dict[Dart, Face]] = None

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
        faces = trace_faces(self._rot)
        dart_face = {}
        for f in faces:
            for d in f.boundary:
                dart_face[d] = f
        self._faces = faces
        self._dart_face = dart_face

    def faces(self) -> tuple[Face, ...]:
        if self._faces is None:
            self._trace()
        return self._faces

    def face_of_dart(self, dart: Dart) -> Face:
        if self._dart_face is None:
            self._trace()
        return self._dart_face[dart]

    def face_count(self) -> int:
        return len(self.faces())

    def corner_faces(self, v: int) -> tuple[Face, ...]:
        """Face at each rotation corner of v.

        Entry j is the face in the corner between neighbors rotation[j] and
        rotation[j+1]; it contains the dart (v, rotation[j+1]).
        """
        ns = self._rot[v]
        d = len(ns)
        return tuple(self.face_of_dart((v, ns[(j + 1) % d])) for j in range(d))

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count()

    def euler_defect(self) -> int:
        """V - E + F + I - 2C, with I the isolated vertices (they trace no face).

        Zero exactly when every component is embedded in the sphere; each
        handle of a component's surface lowers it by two. The faces are
        traced for the count and not kept.
        """
        return euler_defect_of(self._rot, self._edge_count, len(trace_faces(self._rot)),
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


def trace_faces(rot: Mapping[int, Sequence[int]]) -> tuple[Face, ...]:
    """Every face of rotation system `rot`, numbered in order of smallest dart.

    Each walk starts at the first of its darts in `rot`'s vertex order and
    rotation order, so an EmbeddedGraph's walks start at their smallest
    vertex.
    """
    walks = trace_walks([(v, u) for v, ns in rot.items() for u in ns], rot.__getitem__, set())
    walks.sort(key=min)
    return tuple(Face(i, tuple(w)) for i, w in enumerate(walks))


def euler_defect_of(rot: Mapping[int, Sequence[int]], edge_count: int, face_count: int,
                    component_count: int) -> int:
    """V - E + F + I - 2C of rotation system `rot` (see EmbeddedGraph.euler_defect)."""
    isolated = sum(1 for ns in rot.values() if not ns)
    return len(rot) - edge_count + face_count + isolated - 2 * component_count


def trace_walks(seeds, rotation, seen: set) -> list[list[Dart]]:
    """Face walks through the seed darts not yet in `seen`, under `rotation(v)`.

    The walk from dart (a, b) continues with (b, c), c the neighbor after a
    in b's rotation. Every dart walked is added to `seen`.
    """
    walks = []
    for d in seeds:
        if d in seen:
            continue
        walk = []
        while d not in seen:
            seen.add(d)
            walk.append(d)
            a, b = d
            ns = rotation(b)
            d = (b, ns[(ns.index(a) + 1) % len(ns)])
        walks.append(walk)
    return walks


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
    is left to the caller's face count or Euler count.
    """
    length = len(walk)
    first_pos: dict[int, int] = {}
    for i, x in enumerate(walk):
        first_pos.setdefault(x, i)

    seen_pairs: set[frozenset[int]] = set()
    placed: list[tuple[int, int, int, int]] = []  # (pos_a, a, pos_b, b)
    for a, b in chords:
        if a == b:
            raise EndpointNotOnFace((a, b))
        if a not in first_pos or b not in first_pos:
            raise EndpointNotOnFace((a, b))
        if has_edge(a, b):
            raise ChordAlreadyEdge((a, b))
        key = frozenset((a, b))
        if key in seen_pairs:
            raise ChordAlreadyEdge((a, b))
        seen_pairs.add(key)
        placed.append((first_pos[a], a, first_pos[b], b))

    # Group new darts by boundary corner, then insert each group right
    # after the corner's incoming neighbor, farthest target first.
    by_corner: dict[int, list[tuple[int, int]]] = {}
    for pa, a, pb, b in placed:
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
