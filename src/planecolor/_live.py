"""Mutable plane embedding for the reduction engine.

A reduction step deletes one vertex and draws chords into the hole it
leaves. Rebuilding an EmbeddedGraph for that retraces every face; this
structure keeps rotation lists, a dart -> face map and the face walks, and
rewrites only the faces around the hole, so a step costs the size of the
faces it touches.

The bookkeeping agrees with EmbeddedGraph wherever a caller could tell:
rotation lists keep the element order that EmbeddedGraph.delete_vertex and
place_chords produce, and each face walk starts where EmbeddedGraph's trace
starts it (at its smallest vertex, on that vertex's first dart in rotation
order), because positions read from a walk pick a repeated vertex's first
occurrence. Face ids are only distinct: a fresh state traces its faces with
`trace_faces`, which numbers them as `g.faces()` does, and keeps them to
itself, so g caches no faces; later faces count on from there.

Validation is local and assumes each component is embedded in the sphere
(see EmbeddedGraph.euler_defect): then the faces that border the hole give
one walk per fragment the deletion leaves, so a step changes the components
by what it sees around the hole, and chords keep the graph plane exactly
when the step leaves V - E + F + I - 2C unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import (
    Dart, EmbeddedGraph, Face, place_chords, trace_faces, trace_walks, within_distance2,
)
from .errors import CrossingChords, EndpointNotOnFace


@dataclass
class Surgery:
    """A validated step not yet applied: new rotations and the faces it swaps."""

    delete: int
    rot: dict[int, list[int]]  # rotation after the step of every vertex it changes
    destroyed: list[Face]  # the faces that contain the deleted vertex
    created: list[tuple[Dart, ...]]  # dart walks of the faces that replace them


class LiveEmbedding:
    """Rotation lists, dart -> face map and face walks, edited in place."""

    def __init__(self, g: EmbeddedGraph):
        self.rot = {v: list(g.rotation(v)) for v in g.vertices()}
        faces = trace_faces(self.rot)
        self.faces = {f.id: f for f in faces}
        self.dart_face = {d: f for f in faces for d in f.boundary}
        self.labels = g.labels()
        self._next_face = len(faces)

    # -- queries ---------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.rot)

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.rot.get(a, ())

    def distance2_neighborhood(self, v: int) -> frozenset[int]:
        return within_distance2(self.rot, v)

    def to_graph(self) -> EmbeddedGraph:
        return EmbeddedGraph(self.rot, self.labels)

    # -- surgery ---------------------------------------------------------------

    def surgery(self, x: int, chords: list[tuple[int, int]]) -> Surgery:
        """Validate deleting x and drawing `chords` (sorted, new pairs) into the hole.

        Chords whose ends lie in different fragments of the remainder are
        drawn first, each dart where the hole meets its endpoint; the rest go
        through place_chords on the hole face of x's first neighbor of degree
        two or more. Raises EndpointNotOnFace when an endpoint is off the
        hole, CrossingChords when the chords do not split the hole into
        plane faces. Nothing changes until `commit`.
        """
        rot = self.rot
        around = rot[x]
        destroyed = {}
        for u in around:
            f = self.dart_face[(x, u)]
            destroyed[f.id] = f
        new_rot = {u: [w for w in rot[u] if w != x] for u in around}

        def look(v):
            r = new_rot.get(v)
            return rot[v] if r is None else r

        seeds = [d for f in destroyed.values() for d in f.boundary
                 if d[0] != x and d[1] != x]
        holes = trace_walks(seeds, look, set())
        isolated = [u for u in around if not new_rot[u]]
        fragments = len(holes) + len(isolated)
        if not chords:
            created = holes
        else:
            frag = {u: i for i, walk in enumerate(holes) for u, _ in walk}
            frag.update((u, len(holes) + i) for i, u in enumerate(isolated))
            for c in chords:
                if c[0] not in frag or c[1] not in frag:
                    raise EndpointNotOnFace(c)
            bridging = [c for c in chords if frag[c[0]] != frag[c[1]]]
            same = [c for c in chords if frag[c[0]] == frag[c[1]]]
            parent = list(range(fragments))
            for a, b in bridging:
                for w, t in ((a, b), (b, a)):
                    cur = new_rot.setdefault(w, list(rot[w]))
                    cur.insert(self._hole_slot(x, w, cur, destroyed), t)
                ra, rb = _root(parent, frag[a]), _root(parent, frag[b])
                if ra != rb:
                    parent[ra] = rb
                    fragments -= 1
            seen: set[Dart] = set()
            created = []
            if same:
                u = next(u for u in around if len(rot[u]) >= 2)
                ns = rot[u]
                dart = (u, ns[(ns.index(x) + 1) % len(ns)])
                if bridging:  # their darts changed the rotations on the hole
                    merged = trace_walks([dart], look, set())[0]
                else:
                    merged = next(w for w in holes if dart in w)
                merged = _canonical(merged, look)
                new_rot.update(place_chords([a for a, _ in merged], same, look,
                                            lambda a, b: b in look(a)))
                split = [d for a, b in same for d in ((a, b), (b, a))]
                created = trace_walks(list(merged) + split, look, seen)
                if len(created) != len(same) + 1:
                    raise CrossingChords(tuple(same))
            created += trace_walks(seeds + [d for a, b in bridging for d in ((a, b), (b, a))],
                                   look, seen)
            # One vertex and its edges go, the chords come, the faces around
            # x are replaced, neighbors no chord reached are left isolated,
            # and x's component becomes `fragments` components: V - E + F +
            # I - 2C must not change.
            left = sum(1 for u in isolated if not new_rot[u])
            if (len(around) - len(chords) + len(created) - len(destroyed) + left
                    - 2 * fragments + 1):
                raise CrossingChords(tuple(chords))
        return Surgery(x, new_rot, list(destroyed.values()),
                       [_canonical(w, look) for w in created])

    def _hole_slot(self, x: int, w: int, current: list[int], destroyed) -> int:
        """Rotation slot at w for a dart drawn into the hole left by x.

        A former neighbor takes the slot where its dart to x sat; any other
        endpoint uses its first corner whose face touched x.
        """
        ns = self.rot[w]
        if x in ns:
            if len(ns) == 1:
                return 0
            return current.index(ns[ns.index(x) - 1]) + 1
        d = len(ns)
        j = next(j for j in range(d)
                 if self.dart_face[(w, ns[(j + 1) % d])].id in destroyed)
        return current.index(ns[j]) + 1

    def commit(self, s: Surgery) -> list[Face]:
        """Apply a validated surgery; returns the new faces.

        Every dart of a destroyed face that does not touch the deleted
        vertex lies on a created face, so only the deleted vertex's darts
        leave the dart map; the others are overwritten. (A plain loop
        writes them: `update(dict.fromkeys(walk, f))` hashes each dart
        twice and measured slower.)
        """
        x = s.delete
        dart_face = self.dart_face
        for u in self.rot.pop(x):
            del dart_face[(x, u)], dart_face[(u, x)]
        self.labels.pop(x, None)
        self.rot.update(s.rot)
        for f in s.destroyed:
            del self.faces[f.id]
        created = []
        for walk in s.created:
            f = Face(self._next_face, walk)
            self._next_face += 1
            self.faces[f.id] = f
            for d in walk:
                dart_face[d] = f
            created.append(f)
        return created


def _canonical(walk: list[Dart], look) -> tuple[Dart, ...]:
    """The walk started where EmbeddedGraph's trace starts it."""
    low = min(u for u, _ in walk)
    ns = look(low)
    start = min((ns.index(w), i) for i, (u, w) in enumerate(walk) if u == low)[1]
    return tuple(walk[start:] + walk[:start])


def _root(parent: list[int], i: int) -> int:
    while parent[i] != i:
        i = parent[i]
    return i
