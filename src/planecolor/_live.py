"""The reduction engine's state: one plane embedding edited in place.

A reduction step deletes one vertex and draws chords into the hole it
leaves. `_Ctx` keeps rotation lists, the dart kernel `Darts`, each face's
vertex walk and what the catalog's scanners read, and rewrites only the
darts and faces at the hole. It agrees with EmbeddedGraph wherever a caller
could tell: rotations keep the order EmbeddedGraph.delete_vertex and
place_chords give them, and each walk starts at its smallest dart, where
EmbeddedGraph's trace starts it (positions read from a walk pick a repeated
vertex's first occurrence). A fresh context numbers its faces as
`g.faces()` does; later ids count on.

Validation assumes each component is embedded in the sphere, which a
context checks when it is built: then x's faces leave one hole walk per
fragment, and a step keeps the graph plane exactly when V - E + F + I - 2C
stays zero. The step counts it over the faces it swaps: those of x go, and
in come the hole walks no chord touches and the faces traced in the new
rotations from each chord's darts. That count is the step's only plane test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Optional

from .embedding import (Darts, EmbeddedGraph, components, euler_defect_of, place_chords,
                        within_distance2)
from .errors import CrossingChords, DegreeTooHigh, EndpointNotOnFace, PlanInvalid, PositiveGenus


class _Cached(dict):
    """vertex -> value, computed on the first read after the entry is dropped."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, v):
        value = self[v] = self.compute(v)
        return value


# Per degree d in 2..6, (labels, corner faces) getters for the 2d labelings of
# `_Ctx.labelings`, applied to v's rotation and to the faces of v's darts in
# rotation order, fs, where corner j is fs[j + 1]: rotations from k (labels[i] =
# rot[k + i], faces[i] = fs[k + i + 1]), then reflections (labels[i] = rot[k - i],
# faces[i] = fs[k - i]), mod d.
_LABELINGS = {d: [(itemgetter(*[(k + s * i) % d for i in range(d)]),
                   itemgetter(*[(k + s * i + max(s, 0)) % d for i in range(d)]))
                  for s in (1, -1) for k in range(d)]
              for d in range(2, 7)}


def _count_faces(ids, fdeg, size: int) -> int:
    """Distinct faces of the given size among the face ids `ids`."""
    return sum(1 for f in set(ids) if fdeg[f] == size)


@dataclass
class Surgery:
    """A validated step not yet applied: new rotations and the faces it swaps."""

    delete: int
    rot: dict[int, list[int]]  # rotation after the step of every vertex it changes
    chords: list[tuple[int, int]]
    destroyed: list[int]  # ids of the faces that contain the deleted vertex
    created: list[list[int]]  # vertex walks of the faces that replace them


class _Ctx(Darts):
    """Rotation lists, dart kernel and face walks, edited in place, plus
    what the scanners read and one anchor index per catalog entry.

    `faces` maps each face id to its vertex walk and `fdeg[f]` is the
    length of face f's walk, kept for every id handed out. Scanners read
    faces as ids: `dart_faces(v)`, `fdeg[f]` and `faces[f]`. Built from an
    EmbeddedGraph for a one-off public call, or kept by the reduction
    engine across its steps: `commit` then drops the face counts of the
    vertices it touches and marks the vertices whose scans may now differ
    in every index built so far.

    Building one is the engine's only gate on its input, and it checks the
    paper's two hypotheses: it raises DegreeTooHigh for the first vertex of
    degree above 6 in `g.vertices()` order before any face is traced, since
    every catalog bound assumes maximum degree 6, and then PositiveGenus
    when the traced faces do not embed every component in the sphere, which
    the surgery's local Euler count assumes.
    """

    def __init__(self, g: EmbeddedGraph):
        self.deg = {v: g.degree(v) for v in g.vertices()}
        for v, d in self.deg.items():
            if d > 6:
                raise DegreeTooHigh(v, d)
        super().__init__({v: list(g.rotation(v)) for v in g.vertices()})
        walks = self.trace()
        self.faces = {f: tuple(map(self.tail.__getitem__, w)) for f, w in enumerate(walks)}
        self.fdeg = list(map(len, walks))
        self.labels = g.labels()
        self.parts = components(self.rot)  # until the first commit; the audit reads them
        defect = euler_defect_of(self.rot, g.edge_count, len(self.faces), len(self.parts))
        if defect:
            raise PositiveGenus(defect)
        # The tables close over the lists they read, not over the context, so
        # a context is freed when its last reference goes instead of waiting,
        # caches and all, for the cycle collector.
        off, deg, face, fdeg = self.off, self.deg, self.face, self.fdeg
        self.m3 = _Cached(lambda v: _count_faces(face[off[v]:off[v] + deg[v]], fdeg, 3))
        self.m4 = _Cached(lambda v: _count_faces(face[off[v]:off[v] + deg[v]], fdeg, 4))
        self.index: dict = {}  # catalog entry -> its configurations._EntryIndex
        self.routes = None  # see `_routes`
        self.pending = None  # (plan, Surgery) validated by the last `plan` call
        self.labeled = self.table = None  # see `labelings`

    @classmethod
    def of(cls, g) -> "_Ctx":
        return g if isinstance(g, _Ctx) else cls(g)

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

    def dart_faces(self, v: int) -> list[int]:
        """The face id of each dart of v in rotation order: entry j is the face
        of (v, rot[v][j]), in the corner between rot[v][j - 1] and rot[v][j]."""
        o = self.off[v]
        return self.face[o:o + self.deg[v]]

    def labelings(self, v: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All rotations and reflections of the neighbor sequence at v (degree 2..6).

        A list of (labels, corner face ids), the i-th id the face in the corner
        between labels[i] and labels[i+1] (cyclically): rotations, then reflections.
        One slot is kept: the table of the last vertex asked about is returned
        again while callers ask about that vertex, and is valid until the next
        `commit`. Every entry scanning a vertex shares the list, so callers
        only read it.
        """
        if v != self.labeled:
            rot, o = self.rot[v], self.off[v]
            fs = self.face[o:o + len(rot)]  # dart_faces(v)
            self.table = [(lab(rot), fac(fs)) for lab, fac in _LABELINGS[len(rot)]]
            self.labeled = v
        return self.table

    def doubled(self, a: int, b: int) -> bool:
        """Edge ab lies on two distinct triangular faces."""
        ns = self.rot[a]
        if b not in ns:
            return False
        d = self.off[a] + ns.index(b)
        f1, f2 = self.face[d], self.face[self.twin[d]]
        return self.fdeg[f1] == 3 and self.fdeg[f2] == 3 and f1 != f2

    def doubled_induced(self, v: int) -> list[tuple[int, int]]:
        """Edges between neighbors of v that lie on two triangles."""
        ns = sorted(self.rot[v])
        out = []
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                if self.doubled(a, b):
                    out.append((a, b))
        return out

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
        """Apply a validated surgery in one pass; new faces take the next ids.

        Each destroyed walk is dropped, a changed vertex renumbers its darts
        in rotation order, each moved dart taking its twin and face along,
        and each created face is walked once, its darts pointed at it, and
        stored from its smallest dart (`_start`). A vertex scan reads its
        anchor's rotation and corner faces and, for most entries, its
        neighbors' degrees, rotations, corner triangles and triangle counts.
        A vertex is touched when its rotation changed or when it lies on a
        replaced face of size <= 4 (the sizes the triggers tell apart),
        marked as the walk is dropped or gets its id. K21/K22 also read
        where a vertex first occurs on a big face, which can move with the
        face's start, but that moves only their `y`/`z` bindings, not whether
        they match, and an index keeps anchors only: detection rebuilds the
        bindings. Touched vertices are dirty for every entry; for entries
        that read neighbors, so are their neighbors and the vertices on
        5-faces at a vertex whose rotation changed (K23/K24 read their
        anchor's 5-faces), read once every created face has its id. That
        covers every replaced 5-face too: a destroyed face's vertices are
        neighbors of neighbors of the deleted vertex, and every created face
        passes a changed rotation. Each dirty vertex goes through the
        `_routes` table of its degree to the indexes whose entry that degree
        fits. A vertex that is gone or no longer fits is told to no index:
        detection drops it from a list when it reaches it. Face counts
        change only at touched vertices.
        """
        x = s.delete
        rot, off, twin, nxt, face = self.rot, self.off, self.twin, self.nxt, self.face
        deg, faces, fdeg, m3, m4 = self.deg, self.faces, self.fdeg, self.m3, self.m4
        near = {x, *s.rot}
        for f in s.destroyed:
            if len(walk := faces.pop(f)) <= 4:
                near.update(walk)
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
            deg[u] = len(ns)
        del rot[x], deg[x]
        rot.update(s.rot)
        self.labels.pop(x, None)
        for a, b in s.chords:
            da, db = off[a] + rot[a].index(b), off[b] + rot[b].index(a)
            twin[da], twin[db] = db, da
        for walk in s.created:
            f = len(fdeg)
            d = off[walk[0]] + rot[walk[0]].index(walk[1])
            for _ in walk:
                face[d] = f
                d = nxt[twin[d]]
            faces[f] = tuple(_start(walk, rot.__getitem__))
            fdeg.append(len(walk))
            if len(walk) <= 4:
                near.update(walk)
        wide = set()
        for v in s.rot:
            for f in self.dart_faces(v):
                if fdeg[f] == 5:
                    wide.update(faces[f])
        for v in near:
            m3.pop(v, None)
            m4.pop(v, None)
        near.discard(x)
        if len(rot) < 2:  # K01 reads the vertex count
            near.update(rot)
        narrow, broad = self.routes = self.routes or self._routes()
        for v in near:
            wide.update(rot[v])
            for add in narrow[deg[v]]:
                add(v)
        for v in wide | near:
            for add in broad[deg[v]]:
                add(v)
        self.pending = self.parts = self.labeled = self.table = None

    def _routes(self) -> list[list[list[Callable[[int], None]]]]:
        """Per degree 0..6, the `dirty.add` of each index told of a near
        vertex of that degree and of a wide one; rebuilt after `index` gains
        an entry."""
        idxs = self.index.values()
        return [[[i.dirty.add for i in idxs if d in i.fit and wanted(i.entry)] for d in range(7)]
                for wanted in (lambda e: not e.reads_neighbors, lambda e: e.reads_neighbors)]


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
