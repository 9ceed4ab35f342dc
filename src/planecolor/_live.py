"""Mutable plane embedding for the reduction engine.

A reduction step deletes one vertex and draws chords into the hole it
leaves. This structure keeps rotation lists, the dart kernel `Darts` and
each face's vertex walk, and rewrites only the darts and faces at the hole.
It agrees with EmbeddedGraph wherever a caller could tell: rotations keep
the order EmbeddedGraph.delete_vertex and place_chords give them, and each
walk starts at its smallest dart, where EmbeddedGraph's trace starts it
(positions read from a walk pick a repeated vertex's first occurrence). A
fresh state numbers its faces as `g.faces()` does; later ids count on.

Validation assumes each component is embedded in the sphere, which the
engine's context (configurations._Ctx) checks when it is built: then x's
faces leave one hole walk per fragment, and a step keeps the graph plane
exactly when V - E + F + I - 2C stays zero. The step counts it over the
faces it swaps: those of x go, and in come the hole walks no chord
touches and the faces traced in the new rotations from each chord's
darts. That count is the step's only plane test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .embedding import Darts, EmbeddedGraph, place_chords, within_distance2
from .errors import CrossingChords, EndpointNotOnFace, PlanInvalid


@dataclass
class Surgery:
    """A validated step not yet applied: new rotations and the faces it swaps."""

    delete: int
    rot: dict[int, list[int]]  # rotation after the step of every vertex it changes
    chords: list[tuple[int, int]]
    destroyed: list[int]  # ids of the faces that contain the deleted vertex
    created: list[list[int]]  # vertex walks of the faces that replace them


class LiveEmbedding(Darts):
    """Rotation lists, dart kernel and face walks, edited in place.

    `faces` maps each face id to its vertex walk and `fdeg[f]` is the
    length of face f's walk, kept for every id handed out.
    """

    def __init__(self, g: EmbeddedGraph):
        super().__init__({v: list(g.rotation(v)) for v in g.vertices()})
        walks = self.trace()
        tail = self.tail
        self.faces = {f: tuple(map(tail.__getitem__, w)) for f, w in enumerate(walks)}
        self.fdeg = list(map(len, walks))
        self.labels = g.labels()

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

        The hole walks are walked through the darts, past x. Chords between
        fragments are drawn first, where the hole meets their ends; the rest
        go through place_chords on the hole walk of x's first neighbor of
        degree two or more. The faces with a chord dart are then traced in
        the new rotations (`_walk`), and the step is plane exactly when the
        faces created less those destroyed cancel the change in
        V - E + I - 2C: x and its deg(x) edges go, and in come the k chords,
        the neighbors left isolated and the fragments no chord joins.
        Raises PlanInvalid (DegreeOverflow) when an end would pass degree 6,
        EndpointNotOnFace when one is off the hole, and CrossingChords,
        naming all chords, when the graph would not stay plane. Nothing
        changes until `commit`.
        """
        rot, tail, twin, nxt = self.rot, self.tail, self.twin, self.nxt
        around, o = rot[x], self.off[x]
        destroyed = list(dict.fromkeys(self.face[o:o + len(around)]))
        new_rot = {u: rot[u].copy() for u in around}
        for ns in new_rot.values():
            ns.remove(x)
        # One hole walk per fragment, and `frag` maps each vertex on one to it;
        # fragments share no vertex, so u is walked exactly when it is mapped.
        walks, frag = [], {}
        for d in (nxt[twin[o + j]] for j in range(len(around))):  # (u, c): c after x at u
            if tail[d] in frag or tail[twin[d]] == x:  # walked, or u is left isolated
                continue
            i, walk, e = len(walks), [], d
            while True:
                walk.append(v := tail[e])
                frag[v] = i
                e = nxt[twin[e]]
                if tail[twin[e]] == x:  # (u, x): go on past x
                    e = nxt[e]
                if e == d:
                    break
            walks.append(walk)
        if not chords:
            return Surgery(x, new_rot, chords, destroyed, walks)

        def look(v):
            r = new_rot.get(v)
            return rot[v] if r is None else r

        ends = list(chain.from_iterable(chords))
        for w in dict.fromkeys(ends):
            if (n := len(new_rot[w] if w in new_rot else rot.get(w, ())) + ends.count(w)) > 6:
                raise PlanInvalid("DegreeOverflow", (w, n))
        for u in around:
            if not new_rot[u]:  # one vertex: no dart
                frag[u] = len(walks)
                walks.append([u])
        for c in chords:
            if c[0] not in frag or c[1] not in frag:
                raise EndpointNotOnFace(c)
        bridging = [c for c in chords if frag[c[0]] != frag[c[1]]]
        same = [c for c in chords if frag[c[0]] == frag[c[1]]]
        joined: dict[int, int] = {}  # fragment -> the one it was joined to; one per merge
        for a, b in bridging:
            for w, t in ((a, b), (b, a)):
                cur = new_rot.setdefault(w, list(rot[w]))
                z = self._hole_corner(x, w, destroyed)
                cur.insert(0 if z is None else cur.index(z) + 1, t)
            if (ca := _root(joined, frag[a])) != (cb := _root(joined, frag[b])):
                joined[ca] = cb
        if same:  # on the hole walk of x's first neighbor of degree two or more
            merged = _walk(new_rot, rot, *walks[0][:2]) if bridging else walks[0]
            new_rot.update(place_chords(_start(merged, look), same, look,
                                        lambda a, b: b in look(a)))
        touched = {frag[v] for c in chords for v in c}
        created = [w for i, w in enumerate(walks) if i not in touched and len(w) > 1]
        traced: set[tuple[int, int]] = set()
        for d in chain.from_iterable(((a, b), (b, a)) for a, b in chords):
            if d not in traced:
                created.append(walk := _walk(new_rot, rot, *d))
                traced.update(zip(walk, walk[1:] + walk[:1]))
        isolated = sum(1 for u in around if not new_rot[u])
        if len(created) - len(destroyed) != (len(chords) - len(around) + 1 - isolated
                                             + 2 * (len(walks) - len(joined) - 1)):
            raise CrossingChords(tuple(chords))
        return Surgery(x, new_rot, chords, destroyed, created)

    def _hole_corner(self, x: int, w: int, destroyed) -> Optional[int]:
        """The neighbor of w after which a dart into the hole left by x goes,
        or None when w is left isolated: for a former neighbor the one before
        x, else the first whose next corner's face touched x."""
        ns = self.rot[w]
        if x in ns:
            return None if len(ns) == 1 else ns[ns.index(x) - 1]
        d, o = len(ns), self.off[w]
        return ns[next(j for j in range(d) if self.face[o + (j + 1) % d] in destroyed)]

    def commit(self, s: Surgery) -> None:
        """Apply a validated surgery; new faces take the next ids.

        A changed vertex renumbers its darts in rotation order, each moved
        dart taking its twin and face along; then each created face is
        walked once, its darts pointed at it, and stored from its smallest
        dart (`_start`).
        """
        x = s.delete
        rot, off, twin, nxt, face = self.rot, self.off, self.twin, self.nxt, self.face
        for u, ns in s.rot.items():
            o, old = off[u], rot[u]
            tw, fs = twin[o:o + len(old)], face[o:o + len(old)]
            for j, w in enumerate(ns):
                if w in old and (i := old.index(w)) != j:
                    twin[o + j] = t = tw[i]
                    twin[t] = o + j
                    face[o + j] = fs[i]
            if len(ns) != len(old):  # the last dart wraps to the first
                nxt[o + len(old) - 1] = o + len(old)
                if ns:
                    nxt[o + len(ns) - 1] = o
        del rot[x]
        rot.update(s.rot)
        self.labels.pop(x, None)
        for a, b in s.chords:
            da, db = off[a] + rot[a].index(b), off[b] + rot[b].index(a)
            twin[da], twin[db] = db, da
        faces, fdeg = self.faces, self.fdeg
        for f in s.destroyed:
            del faces[f]
        for walk in s.created:
            f = len(fdeg)
            d = off[walk[0]] + rot[walk[0]].index(walk[1])
            for _ in walk:
                face[d] = f
                d = nxt[twin[d]]
            faces[f] = tuple(_start(walk, rot.__getitem__))
            fdeg.append(len(walk))


def _walk(new_rot: dict[int, list[int]], rot: dict[int, list[int]], a: int, b: int) -> list[int]:
    """The vertex walk of the face of dart (a, b) under the rotations
    `new_rot`, else `rot`: the next dart of (a, b) is (b, the neighbor
    after a at b), nxt[twin[d]] in the kernel."""
    walk, v, w = [], a, b
    while True:
        walk.append(v)
        ns = new_rot[w] if w in new_rot else rot[w]
        v, w = w, ns[(ns.index(v) + 1) % len(ns)]
        if v == a and w == b:
            return walk


def _start(walk: list[int], rotation) -> list[int]:
    """The vertex walk from its smallest dart: its smallest vertex, on that
    vertex's first dart in rotation order."""
    low = min(walk)
    i = walk.index(low)
    if walk.count(low) > 1:
        ns, n = rotation(low), len(walk)
        i = min((ns.index(walk[(p + 1) % n]), p) for p in range(n) if walk[p] == low)[1]
    return walk[i:] + walk[:i]


def _root(joined: dict[int, int], i: int) -> int:
    while i in joined:
        i = joined[i]
    return i
