"""The reduction engine's state: one plane embedding edited in place.

A reduction step deletes one vertex x and draws chords into the hole it
leaves. `_Ctx` keeps rotation lists, the dart kernel `Darts`, face ids and
sizes, the vertex walks the catalog's scanners read, and one anchor index per
catalog entry, and edits only the darts at the hole. A step pays for the
smaller pieces of the faces it merges, not for whole faces, as in the face
upkeep of dynamic plane embeddings (Italiano, La Poutre and Rauch 1993): in
the common step each face left at the hole is made of segments of x's faces
and chord darts, and keeps the id of its largest segment's face, so a chord
relabels nothing, and `fdeg` is kept by arithmetic. Walks are kept for the
faces of at most five darts, the only ones the scanners read in full, and
for the faces no step has touched; `walk` traces any other on demand.

The context agrees with EmbeddedGraph wherever a caller could tell: each
walk starts at its smallest dart, where EmbeddedGraph's trace starts it
(positions read from a walk pick a repeated vertex's first occurrence), and
a fresh context numbers its faces as `g.faces()` does; later ids count on.

Validation assumes each component is embedded in the sphere, which a context
checks when it is built. Then one local rule validates every step: each
chord end gets one corner on the hole (a neighbor of x the corner x leaves),
the ends sit on a ring around x in rotation order, and the chords keep the
graph plane when no two interleave there, since each is drawn through x's
place and along one face x was on (`surgery`). Where an end occurs once on
the hole, this is where place_chords draws it on the merged face.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .embedding import Darts, EmbeddedGraph, components, euler_defect_of, within_distance2
from .errors import (ChordAlreadyEdge, CrossingChords, DegreeTooHigh, EndpointNotOnFace,
                     PlanInvalid, PositiveGenus)


class _Cached(dict):
    """vertex -> value, computed on the first read after the entry is dropped."""

    def __init__(self, compute, values=()):
        super().__init__(values)
        self.compute = compute

    def __missing__(self, v):
        value = self[v] = self.compute(v)
        return value


def _count_faces(ids, fdeg, size: int) -> int:
    """Distinct faces of the given size among the face ids `ids`."""
    return sum(1 for f in set(ids) if fdeg[f] == size)


@dataclass
class Surgery:
    """A validated step not yet applied: the new rotations, and how to make it."""

    delete: int
    rot: dict[int, list[int]]  # rotation after the step of every vertex it changes
    chords: list[tuple[int, int]]
    pos: Optional[dict[int, int]]  # on the fast path, each neighbor's place around x

    @property
    def fast(self) -> bool:
        """Whether `commit` may take the fast path."""
        return self.pos is not None


class _Ctx(Darts):
    """Rotation lists, dart kernel and face walks, edited in place, plus
    what the scanners read and one anchor index per catalog entry.

    `faces` maps face ids to vertex walks: every face of a fresh context;
    after steps, each face of at most five darts and each face no step
    touched. `fdeg[f]` is the length of face f's walk, kept for every id
    handed out. Scanners read faces as ids: `dart_faces(v)`, `fdeg[f]` and
    `faces[f]` for the small faces (`walk` traces any face). A scanner
    builds the labelings it needs from `rot[v]` and `dart_faces(v)`; the
    context keeps none, so a step has none to drop. Built from an
    EmbeddedGraph for a one-off public call, or kept by the reduction
    engine across its steps: `commit` then drops the face counts of the
    vertices it touches and marks the vertices whose scans may now differ
    in every index built so far.

    Building one is the engine's only gate on its input, and it checks the
    paper's two hypotheses: it raises DegreeTooHigh for the first vertex of
    degree above 6 in `g.vertices()` order before any face is traced, since
    every catalog bound assumes maximum degree 6, and then PositiveGenus
    when the traced faces do not embed every component in the sphere, which
    the surgery's plane test assumes.
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
        # Every vertex's triangle count in one pass: a 3-dart face has three
        # distinct vertices, so each face it is on counts once.
        m3 = dict.fromkeys(deg, 0)
        for walk in self.faces.values():
            if len(walk) == 3:
                for v in walk:
                    m3[v] += 1
        self.m3 = _Cached(lambda v: _count_faces(face[off[v]:off[v] + deg[v]], fdeg, 3), m3)
        self.m4 = _Cached(lambda v: _count_faces(face[off[v]:off[v] + deg[v]], fdeg, 4))
        self.index: dict = {}  # catalog entry -> its configurations._EntryIndex
        self.routes = None  # see `_routes`
        self.pending = None  # (plan, Surgery) validated by the last `plan` call

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

        Raises PlanInvalid (DegreeOverflow), naming the first end that would
        pass degree 6; then, chord by chord as place_chords does,
        EndpointNotOnFace for a loop or an end off the hole and
        ChordAlreadyEdge for a pair given twice or already an edge. Each end
        gets one corner on the hole: a neighbor of x the corner x leaves, any
        other vertex its first corner whose face x was on (`_hole_dart`).
        The ends sit on a ring around x in rotation order, a non-neighbor in
        the gap of the corner of x whose stretch of face holds its corner
        (`_places`). Each chord is drawn through x's place and along one face
        x was on, so the graph stays plane when no two chords with four
        distinct ends interleave on the ring; chords that do are refused
        (CrossingChords names them all), even at a cut vertex where other
        corners would draw them plane. Each end takes its chords after the
        neighbor before its corner, farthest along the ring first. Nothing
        changes until `commit`.

        A step pays only for the checks its chords need: with no chord it
        returns once the new rotations are built, only ends that are not
        neighbors of x are searched for a corner, and the interleave test
        runs only for two or more chords.
        """
        rot, off, face = self.rot, self.off, self.face
        around, d = rot[x], len(rot[x])
        new_rot = {u: rot[u].copy() for u in around}
        for ns in new_rot.values():
            ns.remove(x)
        fs = face[off[x]:off[x] + d]
        at = set(fs)
        pos = {u: i for i, u in enumerate(around)}
        if not chords:
            return Surgery(x, new_rot, chords, pos if len(at) == d else None)
        ends = list(chain.from_iterable(chords))
        for w in ends:
            if (n := len(rot.get(w, ())) - (w in new_rot) + ends.count(w)) > 6:
                raise PlanInvalid("DegreeOverflow", (w, n))
        corner = {w: self._hole_dart(x, w, at) for w in set(ends) - new_rot.keys()}
        off_hole = {w for w, c in corner.items() if c is None}
        seen = set()
        for a, b in chords:
            if a == b or a in off_hole or b in off_hole:
                raise EndpointNotOnFace((a, b))
            if (key := (min(a, b), max(a, b))) in seen or b in rot[a]:
                raise ChordAlreadyEdge((a, b))
            seen.add(key)
        if corner:
            places = self._places(x, fs, corner)
            pos = {w: i for i, w in enumerate(sorted(places, key=places.__getitem__))}
        if len(chords) > 1:
            for i, (a, b) in enumerate(chords):
                lo, hi = sorted((pos[a], pos[b]))
                for c, e in chords[i + 1:]:
                    if len({a, b, c, e}) == 4 and (lo < pos[c] < hi) != (lo < pos[e] < hi):
                        raise CrossingChords(tuple(chords))
        targets: dict[int, list[int]] = {}
        for a, b in chords:
            targets.setdefault(a, []).append(b)
            targets.setdefault(b, []).append(a)
        size = len(pos)
        for u, ts in targets.items():  # the hole walk leaves u toward the ring's lower places
            if len(ts) > 1:
                ts.sort(key=lambda v: (pos[u] - pos[v]) % size, reverse=True)
            if u in new_rot:
                ns, i = new_rot[u], rot[u].index(x)
            else:
                ns = new_rot[u] = rot[u].copy()
                i = corner[u] - off[u]
            i = i or len(ns)  # after the neighbor before the corner
            ns[i:i] = ts
        fast = not corner and (len(at) == d or d == 2 and len(chords) == 1)
        return Surgery(x, new_rot, chords, pos if fast else None)

    def _hole_dart(self, x: int, w: int, at) -> Optional[int]:
        """The dart of w, not a neighbor of x, that leaves its first corner
        (between rot[w][k] and rot[w][k + 1], k from 0) on a face in `at`, the
        faces x was on; None when w is x, gone or off the hole."""
        if w == x or w not in self.rot:
            return None
        d, o, face = self.deg[w], self.off[w], self.face
        return next((o + j % d for j in range(1, d + 1) if face[o + j % d] in at), None)

    def _places(self, x: int, fs: list[int], corner: dict[int, int]) -> dict[int, tuple[int, int]]:
        """Each end's place on the ring around x, as a sortable pair.

        Neighbor rot[x][j] is at (j, 0). The segment S_j of the face of dart
        (x, rot[x][j]) runs from rot[x][j] until the face next returns to x,
        and an end whose corner dart lies on S_j sits in gap j, between
        rot[x][j - 1] and rot[x][j], at (j, -t) for its corner dart the t-th
        along S_j. A segment is walked only to order two ends in one gap, or
        to find the segment that holds an end when its face meets x more than
        once; a lone end in a gap is at (j, -1).
        """
        nxt, twin, tail, o = self.nxt, self.twin, self.tail, self.off[x]
        places = {u: (j, 0) for j, u in enumerate(self.rot[x])}
        wanted: dict[int, dict[int, int]] = {}  # face -> corner dart -> its end
        for w, c in corner.items():
            wanted.setdefault(self.face[c], {})[c] = w
        for f, darts in wanted.items():
            gaps = [j for j in range(len(fs)) if fs[j] == f]
            if len(gaps) == 1 and len(darts) == 1:
                places[darts.popitem()[1]] = (gaps[0], -1)
                continue
            for j in gaps:
                e, t = nxt[twin[o + j]], 1
                while darts and tail[twin[e]] != x:
                    if e in darts:
                        places[darts.pop(e)] = (j, -t)
                    e, t = nxt[twin[e]], t + 1
        return places

    def commit(self, s: Surgery) -> None:
        """Apply a validated surgery; new faces take the next ids.

        A step where x lies on deg(x) distinct faces and every chord end is
        a neighbor, or x is a cut vertex of degree 2 whose one chord joins
        its neighbors, sets its faces' ids and sizes by `_pieces` while x's
        darts still stand; any other step traces every face at a changed
        vertex anew (`retrace`). Then `rotate` renumbers the darts of each
        changed vertex. Each face the step leaves at the hole with at most
        five darts is walked once; the other faces it touched lose their
        walks.

        A vertex scan reads its anchor's rotation and corner faces and, for
        most entries, its neighbors' degrees, rotations, corner triangles and
        triangle counts. A vertex is touched when its rotation changed or
        when it lies on a face of size <= 4 (the sizes the triggers tell
        apart) that x was on or that the step left. K21/K22 also read where
        a vertex first occurs on a big face, which can move with the face's
        start, but that moves only their `y`/`z` bindings, not whether they
        match, and an index keeps anchors only: detection rebuilds the
        bindings. Touched vertices are dirty for every entry; for entries
        that read neighbors, so are their neighbors and the vertices on
        5-faces at a vertex whose rotation changed (K23/K24 read their
        anchor's 5-faces). That covers every replaced 5-face too: a face x
        was on holds only neighbors of neighbors of x, and every face the
        step leaves passes a changed rotation. The neighbors are gathered
        only when an index built so far reads neighbors, and the 5-face
        vertices only when one reads 5-faces (`reads_five_faces`), since no
        other entry reads an exact size of 5. Each dirty vertex goes
        through the `_routes` table of its degree to the indexes whose entry
        that degree fits. A vertex that is gone or no longer fits is told to
        no index: detection drops it from a list when it reaches it. Face
        counts change only at touched vertices.
        """
        x, rot, off = s.delete, self.rot, self.off
        deg, faces, fdeg, m3, m4 = self.deg, self.faces, self.fdeg, self.m3, self.m4
        self.pending = self.parts = None
        fs = self.dart_faces(x)
        near = {x, *s.rot}
        for f in set(fs):
            if fdeg[f] <= 4:
                near.update(faces[f])
        if s.fast:
            made, small = self._pieces(s, fs)
            self.rotate(s.rot, made)
            small = [(f, off[a] + rot[a].index(b)) for f, (a, b) in small]
        else:
            fs = {f for v in (x, *s.rot) for f in self.dart_faces(v)}
            new = {d: -1 for a, b in s.chords for d in ((a, b), (b, a))}  # on no face yet
            self.rotate(s.rot, new)
            small = [(f, d) for f, d in self.retrace(s.rot) if fdeg[f] <= 5]
        del rot[x], deg[x]
        self.labels.pop(x, None)
        for f in fs:
            faces.pop(f, None)
        for f, d in small:
            faces[f] = walk = self.walk(d)
            if len(walk) <= 4:
                near.update(walk)
        for v in near:
            m3.pop(v, None)
            m4.pop(v, None)
        near.discard(x)
        if len(rot) < 2:  # K01 reads the vertex count
            near.update(rot)
        narrow, broad, fives = self.routes = self.routes or self._routes()
        for v in near:
            for add in narrow[deg[v]]:
                add(v)
        if not any(broad):  # no index built so far reads neighbors
            return
        wide = set(near)
        for v in near:
            wide.update(rot[v])
        if fives:  # an index built so far reads its anchor's 5-faces
            for v in s.rot:
                for f in self.dart_faces(v):
                    if fdeg[f] == 5:
                        wide.update(faces[f])
        for v in wide:
            for add in broad[deg[v]]:
                add(v)

    def _pieces(self, s: Surgery, fs: list[int]):
        """Give each face a fast-path step leaves at the hole its id and size.

        S_j is the walk of F_j, the face of dart (x, rot[x][j]), from rot[x][j]
        to rot[x][j - 1] without x, and the hole walk runs through S_0,
        S_d-1, ..., S_1. Each face left is a cycle of these segments and of
        chord darts. A chord dart (u, v) with v after u around x closes S_j,
        v = rot[x][j], into a face that keeps F_j's id. When every chord
        joins two neighbors next to each other, the segments and chord darts
        left make one face; otherwise the faces left are traced: reaching the
        j-th neighbor along a segment, a face turns into its farthest chord,
        and along a chord into the next nearer one, or into S_j after the
        last. Each keeps the id of its largest segment's face, the darts of
        its other segments taking that id while x's darts still stand, so a
        step pays for the smaller pieces of the faces it merges, and a chord
        relabels nothing; a face of chords only gets a new id. The face of
        the last edge of a component is left with no darts and dropped. At a
        cut vertex of degree 2, F_0 and F_1 are one face, which the chord
        closes at both corners: it keeps its id, two darts shorter. Returns
        the face of each chord dart, and each face of one to five darts with
        one of its darts, as a vertex pair.
        """
        x, fdeg, face, nxt, twin, pos = s.delete, self.fdeg, self.face, self.nxt, self.twin, s.pos
        around, o, d = self.rot[x], self.off[x], len(self.rot[x])
        made, small, rest, segs = {}, [], [], list(range(d))
        for a, b in s.chords:
            for u, v in ((a, b), (b, a)):
                if (pos[v] - pos[u]) % d == 1:
                    segs.remove(pos[v])
                    f = made[u, v] = fs[pos[v]]
                    fdeg[f] -= 1
                    if fdeg[f] <= 5:
                        small.append((f, (u, v)))
                else:
                    rest.append((u, v))
        faces = [(segs, rest)]
        if len(made) < len(s.chords):  # a chord between neighbors apart
            faces, outs, seen = [], {}, {*made, *(pos[v] for u, v in made)}
            for u, v in rest:
                outs.setdefault(u, []).append(v)
            for u, vs in outs.items():  # farthest along the hole first
                vs.sort(key=lambda v: (pos[u] - pos[v]) % d, reverse=True)
            for e in chain(segs, rest):
                cycle = ([], [])  # its segments, its chord darts
                while e not in seen:  # e: segment S_e, or a chord dart
                    seen.add(e)
                    if type(e) is int:
                        cycle[0].append(e)
                        u, w = None, around[e - 1]
                    else:
                        cycle[1].append(e)
                        u, w = e
                    vs = outs.get(w, ())  # after a segment or w's closing chord: its first
                    m = vs.index(u) + 1 if u in vs else 0
                    e = (w, vs[m]) if m < len(vs) else pos[w]
                if cycle != ([], []):
                    faces.append(cycle)
        for segs, darts in faces:
            if segs:
                f = max((fs[j] for j in segs), key=fdeg.__getitem__)
                size = len(darts) - 2 * len(segs)
                for j in segs:
                    size += fdeg[fs[j]]
                    if fs[j] != f:  # the fdeg - 2 darts after (rot[x][j], x)
                        e = nxt[twin[o + j]]
                        for _ in range(fdeg[fs[j]] - 2):
                            face[e] = f
                            e = nxt[twin[e]]
            elif darts:
                f, size = self._new_face(0), len(darts)
            else:
                continue
            fdeg[f] = size
            made.update(dict.fromkeys(darts, f))
            if 0 < size <= 5:
                if darts:
                    small.append((f, darts[0]))
                else:
                    ns = self.rot[u := around[segs[0]]]
                    small.append((f, (u, ns[(ns.index(x) + 1) % len(ns)])))
        return made, small

    # -- dart kernel edits -----------------------------------------------------

    def rotate(self, new_rot: dict[int, list[int]], darts: dict[tuple[int, int], int]) -> None:
        """Give each vertex in `new_rot` that rotation, renumbering its darts
        in rotation order, each kept dart taking its twin and face along, and
        pair each new dart (a, b) of `darts` with its twin, on the face given."""
        rot, off, twin, nxt, face = self.rot, self.off, self.twin, self.nxt, self.face
        for u, ns in new_rot.items():
            o, old = off[u], rot[u]
            n = len(old)
            tw, fu = twin[o:o + n], face[o:o + n]
            for j, w in enumerate(ns):
                if (j >= n or old[j] != w) and w in old:
                    twin[o + j] = t = tw[i := old.index(w)]
                    twin[t] = o + j
                    face[o + j] = fu[i]
            if len(ns) != n:  # the last dart wraps to the first
                nxt[o + n - 1] = o + n
                if ns:
                    nxt[o + len(ns) - 1] = o
            self.deg[u] = len(ns)
            rot[u] = ns
        for (a, b), f in darts.items():
            d = off[a] + rot[a].index(b)
            twin[d], face[d] = off[b] + rot[b].index(a), f

    def retrace(self, vertices) -> list[tuple[int, int]]:
        """Give every face at these vertices a new id; return each with a dart."""
        nxt, twin, face, top, made = self.nxt, self.twin, self.face, len(self.fdeg), []
        for u in vertices:
            for d in range(self.off[u], self.off[u] + self.deg[u]):
                if face[d] < top:
                    f, e, n = self._new_face(0), d, 0
                    while face[e] != f:
                        face[e] = f
                        e, n = nxt[twin[e]], n + 1
                    self.fdeg[f] = n
                    made.append((f, d))
        return made

    def walk(self, d: int) -> tuple[int, ...]:
        """The vertex walk of dart d's face, from its smallest dart."""
        nxt, twin = self.nxt, self.twin
        ds, e = [d], nxt[twin[d]]
        while e != d:
            ds.append(e)
            e = nxt[twin[e]]
        i = ds.index(min(ds))
        return tuple(map(self.tail.__getitem__, ds[i:] + ds[:i]))

    def _new_face(self, size: int) -> int:
        self.fdeg.append(size)
        return len(self.fdeg) - 1

    def _routes(self) -> tuple[list, list, bool]:
        """Per degree 0..6, the `dirty.add` of each index told of a near
        vertex of that degree and of a wide one, and whether any index reads
        its anchor's 5-faces; rebuilt after `index` gains an entry."""
        idxs = self.index.values()
        narrow, broad = ([[i.dirty.add for i in idxs
                           if d in i.fit and i.entry.reads_neighbors == wide] for d in range(7)]
                         for wide in (False, True))
        return narrow, broad, any(i.entry.reads_five_faces for i in idxs)
