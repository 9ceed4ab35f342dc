"""Catalog of reducible local configurations and their detection.

Each catalog entry Kxx pairs a structural trigger (degrees, incident face
sizes, neighbor degrees, doubled edges) with an executable reduction: delete
one vertex and add chords inside the merged face so that every surviving pair
at distance <= 2 stays at distance <= 2. Detection evaluates every trigger
under all rotations and reflections of the neighbor labeling, so no "pick a
labeling" step is left implicit.

`forbidden_bound` on each constructed plan is the guaranteed ceiling on the
number of colors that can be blocked at the deleted vertex when the reduced
graph has been colored; it is always at most 19 against a palette of 20.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Optional

from ._live import LiveEmbedding, Surgery
from .embedding import EmbeddedGraph, Face, components, euler_defect_of
from .errors import DegreeTooHigh, PlanInvalid, PositiveGenus


@dataclass(frozen=True)
class ConfigurationMatch:
    """A located configuration: entry id, anchor vertex, and role bindings."""

    config_id: str
    center: int
    bindings: tuple[tuple[str, int], ...]
    variant: str = ""

    def binding(self, role: str) -> int:
        for r, v in self.bindings:
            if r == role:
                return v
        raise KeyError(role)

    def binding_map(self) -> dict[str, int]:
        return dict(self.bindings)


@dataclass(frozen=True)
class ReductionPlan:
    """One deletion plus chords in the merged face, and the forbidden-color ceiling.

    A catalog builder returns the raw plan of a match; `reductions.plan`
    validates it and returns it with its chords normalised.
    """

    delete: int
    add_edges: tuple[tuple[int, int], ...]
    source: str
    forbidden_bound: int
    variant: str = ""


class _Cached(dict):
    """vertex -> value, computed on the first read after the entry is dropped."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, v):
        value = self[v] = self.compute(v)
        return value


def _corner_faces(rot, dart_face, v: int) -> tuple[Face, ...]:
    ns = rot[v]
    d = len(ns)
    return tuple(dart_face[(v, ns[(j + 1) % d])] for j in range(d))


# Per degree d in 2..6, (labels, corner faces) getters for the 2d labelings of
# `_Ctx.labelings`: rotations from k (labels[i] = rot[k + i], faces[i] = cf[k + i]),
# then reflections (labels[i] = rot[k - i], faces[i] = cf[k - i - 1]), mod d.
_LABELINGS = {d: [(itemgetter(*[(k + s * i) % d for i in range(d)]),
                   itemgetter(*[(k + s * i + min(s, 0)) % d for i in range(d)]))
                  for s in (1, -1) for k in range(d)]
              for d in range(2, 7)}


def _count_faces(faces, size: int) -> int:
    """Distinct faces of the given size among `faces`."""
    return sum(1 for k in {f.id: f.degree for f in faces}.values() if k == size)


def _by_degree(vs, deg) -> dict[int, list[int]]:
    """The vertices of `vs` still present, grouped by degree."""
    out: dict[int, list[int]] = {}
    for u in vs:
        d = deg.get(u)
        if d is not None:
            out.setdefault(d, []).append(u)
    return out


class _Ctx(LiveEmbedding):
    """Live embedding plus what the scanners read, and one anchor index per entry.

    Built from an EmbeddedGraph for a one-off public call, or kept by the
    reduction engine across its steps: `commit` then drops the corner faces
    and face counts of the vertices it touches (they are recomputed when
    read) and marks the anchors whose matches may have changed in every
    index built so far.

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
        super().__init__(g)
        self.parts = components(self.rot)  # until the first commit; the audit reads them
        defect = euler_defect_of(self.rot, g.edge_count, len(self.faces), len(self.parts))
        if defect:
            raise PositiveGenus(defect)
        # The tables close over the maps they read, not over the context, so
        # a context is freed when its last reference goes instead of waiting,
        # caches and all, for the cycle collector.
        rot, dart_face = self.rot, self.dart_face
        corner = self.corner = _Cached(lambda v: _corner_faces(rot, dart_face, v))
        self.m3 = _Cached(lambda v: _count_faces(corner[v], 3))
        self.m4 = _Cached(lambda v: _count_faces(corner[v], 4))
        self.index: dict[CatalogEntry, _EntryIndex] = {}
        self.by_degree: Optional[dict[int, list[int]]] = None  # see `candidates`
        self.pending = None  # (plan, Surgery) validated by the last `plan` call
        self.charges = None  # the discharging rules' initial charges, set on first use

    @classmethod
    def of(cls, g) -> "_Ctx":
        return g if isinstance(g, _Ctx) else cls(g)

    def commit(self, s: Surgery) -> list[Face]:
        """Apply a surgery, then mark the anchors whose scans may now differ.

        A vertex scan reads its anchor's rotation and corner faces and, for
        most entries, its neighbors' degrees, rotations, corner triangles
        and triangle counts. A vertex is touched when its rotation changed
        or it lies on a replaced face of size <= 4 (the sizes the triggers
        tell apart). K21/K22 also read where a 3-vertex first occurs on a
        big face, which moves with the face's start only if the vertex
        repeats on it, so repeated vertices of replaced faces are touched
        too. Touched vertices are dirty for every entry. For entries that
        read neighbors, so are their neighbors and the vertices on 5-faces
        at a vertex whose rotation changed: K23/K24 read the 5-faces at
        their anchor and the degrees and rotations on them. That covers the
        vertices of every replaced 5-face too: a destroyed face's vertices
        lie within two face edges of the deleted vertex, so among the
        neighbors of its neighbors, and every created face passes a vertex
        whose rotation changed. An index is told only of the dirty vertices
        whose degree fits its entry, and of the vertices whose rotation
        changed while their old degree fitted it: those may have to leave.
        """
        x = s.delete
        deg = self.deg
        before = _by_degree([x, *s.rot], deg)  # by the degree they had
        created = super().commit(s)
        rot = self.rot
        replaced = s.destroyed + created
        del deg[x]
        for v in s.rot:
            deg[v] = len(rot[v])
        for v in {u for f in replaced for u, _ in f.boundary}:
            for table in (self.corner, self.m3, self.m4):
                table.pop(v, None)
        near = set(s.rot)
        for f in replaced:
            walk = f.vertex_walk()
            if f.degree <= 4:
                near.update(walk)
            elif len(set(walk)) < len(walk):
                once: set[int] = set()
                near.update(u for u in walk if u in once or once.add(u))
        near.discard(x)
        wide = {u for r in s.rot for w in rot[r]
                if (f := self.dart_face[(r, w)]).degree == 5 for u in f.vertex_walk()}
        wide |= near
        for u in near:
            wide.update(rot[u])
        if len(rot) < 2:  # K01 reads the vertex count
            near.update(rot)
            wide.update(rot)
        near_by, wide_by = _by_degree(near, deg), _by_degree(wide, deg)
        for idx in self.index.values():
            entry = idx.entry
            for by in (before, wide_by if entry.reads_neighbors else near_by):
                for d, vs in by.items():
                    if entry.fits(d):
                        idx.dirty.update(vs)
        self.by_degree = self.pending = self.charges = self.parts = None
        return created

    def candidates(self, entry: "CatalogEntry") -> list[int]:
        """The vertices whose degree fits `entry`'s anchor, sorted.

        The vertices are grouped by degree on the first call after a change;
        the list returned may be one of those groups, so callers only read it.
        """
        if self.by_degree is None:
            self.by_degree = {}
            for v in sorted(self.rot):
                self.by_degree.setdefault(self.deg[v], []).append(v)
        groups = [vs for d, vs in self.by_degree.items() if entry.fits(d)]
        return groups[0] if len(groups) == 1 else sorted(v for vs in groups for v in vs)

    def labelings(self, v: int) -> list[tuple[tuple[int, ...], tuple[Face, ...]]]:
        """All rotations and reflections of the neighbor sequence at v (degree 2..6).

        A list of (labels, corner_faces), corner_faces[i] the face in the corner
        between labels[i] and labels[i+1] (cyclically): rotations, then reflections.
        """
        rot, cf = self.rot[v], self.corner[v]
        return [(lab(rot), fac(cf)) for lab, fac in _LABELINGS[len(rot)]]

    def doubled(self, a: int, b: int) -> bool:
        """Edge ab lies on two distinct triangular faces."""
        if b not in self.rot[a]:
            return False
        f1 = self.dart_face[(a, b)]
        f2 = self.dart_face[(b, a)]
        return f1.degree == 3 and f2.degree == 3 and f1.id != f2.id

    def doubled_induced(self, v: int) -> list[tuple[int, int]]:
        """Edges between neighbors of v that lie on two triangles."""
        ns = sorted(self.rot[v])
        out = []
        for i, a in enumerate(ns):
            for b in ns[i + 1:]:
                if self.doubled(a, b):
                    out.append((a, b))
        return out


def _opposite_on_quad(face: Face, v: int) -> int:
    """The vertex across a 4-face from v."""
    walk = face.vertex_walk()
    return walk[(walk.index(v) + 2) % 4]


def _face_neighbor(face: Face, u: int, exclude: int) -> int:
    """u's boundary neighbor on this face other than `exclude`."""
    walk = face.vertex_walk()
    j = walk.index(u)
    n = len(walk)
    cands = {walk[(j - 1) % n], walk[(j + 1) % n]} - {exclude}
    return min(cands)


# ---------------------------------------------------------------------------
# Scanners. Each yields (variant, role -> vertex bindings) for every match
# anchored at one vertex, their center. Only detection builds the matches.
# ---------------------------------------------------------------------------

def _scan_k01(ctx: _Ctx, v: int):
    # Degree <= 1 in a graph with something else left to color.
    if ctx.deg[v] <= 1 and ctx.vertex_count >= 2:
        b = {"v": v}
        if ctx.deg[v] == 1:
            b["v1"] = ctx.rot[v][0]
        yield "", b


def _scan_k02(ctx: _Ctx, v: int):
    if ctx.deg[v] == 2:
        x, y = ctx.rot[v]
        yield "", {"v": v, "x": x, "y": y}


def _scan_k03(ctx: _Ctx, v: int):
    # 3-vertex with a neighbor of degree <= 5.
    if ctx.deg[v] != 3:
        return
    for labels, _ in ctx.labelings(v):
        if ctx.deg[labels[0]] <= 5:
            yield "", {"v": v, "v1": labels[0], "v2": labels[1], "v3": labels[2]}


def _scan_k04(ctx: _Ctx, v: int):
    # 3-vertex on a triangle.
    if ctx.deg[v] != 3:
        return
    for labels, faces in ctx.labelings(v):
        if faces[0].degree == 3:
            yield "", {"v": v, "v1": labels[0], "v2": labels[1], "v3": labels[2]}


def _scan_k05(ctx: _Ctx, v: int):
    # 3-vertex between two 4-faces.
    if ctx.deg[v] != 3:
        return
    for labels, faces in ctx.labelings(v):
        if faces[0].degree == 4 and faces[1].degree == 4:
            yield "", {"v": v, "v1": labels[0], "v2": labels[1], "v3": labels[2],
                       "x": _opposite_on_quad(faces[0], v),
                       "y": _opposite_on_quad(faces[1], v)}


def _scan_k06(ctx: _Ctx, v: int):
    # 4-vertex on three consecutive triangles.
    if ctx.deg[v] != 4:
        return
    for labels, faces in ctx.labelings(v):
        if faces[0].degree == 3 and faces[1].degree == 3 and faces[2].degree == 3:
            yield "", {"v": v, **{f"v{i+1}": labels[i] for i in range(4)}}


def _k0789_layouts(ctx: _Ctx, v: int):
    """Common 4-vertex / two-triangle layouts: yields (labels, "adjacent" or "split")."""
    for labels, faces in ctx.labelings(v):
        if faces[0].degree == 3 and faces[1].degree == 3:
            yield labels, "adjacent"
        if faces[0].degree == 3 and faces[2].degree == 3 and faces[1].degree != 3:
            yield labels, "split"


def _scan_k07(ctx: _Ctx, v: int):
    # 4-vertex, exactly two triangles, plus a 4-face.
    if ctx.deg[v] != 4 or ctx.m3[v] != 2 or ctx.m4[v] < 1:
        return
    for labels, faces in ctx.labelings(v):
        if faces[0].degree != 4:
            continue
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(4)},
             "x": _opposite_on_quad(faces[0], v)}
        if faces[1].degree == 3 and faces[2].degree == 3:
            yield "adjacent", b
        if faces[1].degree == 3 and faces[3].degree == 3:
            yield "split", b


def _scan_k08(ctx: _Ctx, v: int):
    # 4-vertex, exactly two triangles, some neighbor of degree <= 5.
    if ctx.deg[v] != 4 or ctx.m3[v] != 2:
        return
    light = [u for u in sorted(ctx.rot[v]) if ctx.deg[u] <= 5]
    if not light:
        return
    for labels, variant in _k0789_layouts(ctx, v):
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(4)}, "w5": light[0]}
        yield variant, b


def _scan_k09(ctx: _Ctx, v: int):
    # 4-vertex, exactly two triangles, the first triangle's outer edge doubled.
    if ctx.deg[v] != 4 or ctx.m3[v] != 2:
        return
    for labels, variant in _k0789_layouts(ctx, v):
        if ctx.doubled(labels[0], labels[1]):
            yield variant, {"v": v, **{f"v{i+1}": labels[i] for i in range(4)}}


def _scan_k10(ctx: _Ctx, v: int):
    # 4-vertex: one triangle and three 4-faces.
    if ctx.deg[v] != 4:
        return
    for labels, faces in ctx.labelings(v):
        if (faces[0].degree == 3 and faces[1].degree == 4
                and faces[2].degree == 4 and faces[3].degree == 4):
            yield "", {"v": v, **{f"v{i+1}": labels[i] for i in range(4)},
                       "x": _opposite_on_quad(faces[1], v),
                       "y": _opposite_on_quad(faces[2], v),
                       "z": _opposite_on_quad(faces[3], v)}


def _scan_k11(ctx: _Ctx, v: int):
    # 4-vertex: one triangle, one or two 4-faces, a 4-vertex neighbor.
    if ctx.deg[v] != 4 or ctx.m3[v] != 1 or not 1 <= ctx.m4[v] <= 2:
        return
    four = [u for u in sorted(ctx.rot[v]) if ctx.deg[u] == 4]
    if not four:
        return
    variant = f"m4={ctx.m4[v]}"
    for labels, faces in ctx.labelings(v):
        if faces[0].degree != 3:
            continue
        for vi in four:
            yield variant, {"v": v, **{f"v{i+1}": labels[i] for i in range(4)}, "vi": vi}


def _scan_k12(ctx: _Ctx, v: int):
    # 4-vertex: one triangle, one or two 4-faces, two neighbors of degree 5.
    if ctx.deg[v] != 4 or ctx.m3[v] != 1 or not 1 <= ctx.m4[v] <= 2:
        return
    if sum(1 for u in ctx.rot[v] if ctx.deg[u] == 5) < 2:
        return
    for labels, faces in ctx.labelings(v):
        if faces[0].degree != 3:
            continue
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(4)}}
        if ctx.m4[v] == 2:
            yield "m4=2", b
        elif faces[1].degree == 4:
            yield "m4=1 near", b
        elif faces[2].degree == 4:
            yield "m4=1 far", b


def _scan_k13(ctx: _Ctx, v: int):
    # 5-vertex in a full triangle fan with a neighbor of degree <= 5.
    if ctx.deg[v] != 5 or ctx.m3[v] != 5:
        return
    for labels, _ in ctx.labelings(v):
        if ctx.deg[labels[0]] <= 5:
            yield "", {"v": v, **{f"v{i+1}": labels[i] for i in range(5)}}


def _scan_k14(ctx: _Ctx, v: int):
    # 5-vertex in a full triangle fan with a doubled edge between neighbors.
    if ctx.deg[v] != 5 or ctx.m3[v] != 5:
        return
    for a, b in ctx.doubled_induced(v):
        yield "", {"v": v, "v1": a, "v2": b}


def _fan_layout(ctx: _Ctx, v: int, last_degree):
    """Layouts with a triangle in every corner but the last, which passes last_degree.

    A triangle fills one corner only (its three vertices are distinct), so
    such a layout exists only where m3 is one below the degree, which the
    callers test first. There exactly one corner j is not a triangle, and the
    two labelings that end at it are read off the labelings table in its
    order: the rotation from j + 1, then the reflection from j.
    """
    faces = ctx.corner[v]
    j = next(i for i, f in enumerate(faces) if f.degree != 3)
    if not last_degree(faces[j].degree):
        return
    rot, d = ctx.rot[v], len(faces)
    for lab, fac in (_LABELINGS[d][(j + 1) % d], _LABELINGS[d][d + j]):
        yield lab(rot), fac(faces)


def _scan_k15(ctx: _Ctx, v: int):
    # 5-vertex: four triangles and a 4-face, with a structural violation.
    if ctx.deg[v] != 5 or ctx.m3[v] != 4:
        return
    for labels, faces in _fan_layout(ctx, v, lambda d: d == 4):
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(5)},
             "x": _opposite_on_quad(faces[4], v)}
        degs = [ctx.deg[u] for u in labels]
        if any(d <= 4 for d in degs):
            yield "low_neighbor", b
        if sum(1 for d in degs if d == 5) >= 2:
            yield "two_fives", b
        for w in labels[1:4]:
            if ctx.deg[w] == 6 and ctx.m3[w] == 6:
                yield "saturated_six", {**b, "w": w}
                break


def _scan_k16(ctx: _Ctx, v: int):
    # 5-vertex: four triangles and a big face, neighbor-degree violations.
    if ctx.deg[v] != 5 or ctx.m3[v] != 4:
        return
    for labels, _ in _fan_layout(ctx, v, lambda d: d >= 5):
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(5)}}
        degs = [ctx.deg[u] for u in labels]
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        if n4 >= 2:
            yield "two_fours", b
        if n5 >= 3:
            yield "three_fives", b
        if n4 >= 1 and n5 >= 1:
            yield "four_plus_five", b


def _scan_k17(ctx: _Ctx, v: int):
    # 5-vertex: four triangles and a big face, tight degree profile, doubled edge.
    if ctx.deg[v] != 5 or ctx.m3[v] != 4:
        return
    for labels, _ in _fan_layout(ctx, v, lambda d: d >= 5):
        degs = [ctx.deg[u] for u in labels]
        n3 = sum(1 for d in degs if d == 3)
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        n6 = sum(1 for d in degs if d == 6)
        profile = (n4, n5, n6)
        if n3 == 0 and profile in ((1, 0, 4), (0, 2, 3)) and (dbl := ctx.doubled_induced(v)):
            b = {"v": v, **{f"v{i+1}": labels[i] for i in range(5)},
                 "a": dbl[0][0], "b": dbl[0][1]}
            yield ("one_four" if profile == (1, 0, 4) else "two_fives"), b


def _doubled_fan_count(ctx: _Ctx, labels) -> int:
    return sum(1 for i in range(5) if ctx.doubled(labels[i], labels[i + 1]))


_SIX_PROFILE_V6 = ({4, 5, 6}, {3, 5, 6}, {2, 5, 6}, {1, 5, 6})
_SIX_PROFILE_V4 = ({3, 4, 6}, {3, 4, 5}, {2, 4, 5})
_SIX_PROFILE_V3 = ({2, 3, 6},)
_SIX_PROFILE_3DBL = ({2, 4, 6}, {1, 4, 6})


def _extra_triangles(ctx: _Ctx, u: int, v: int):
    """Distinct triangles at u that do not contain v."""
    seen = {}
    for f in ctx.corner[u]:
        if f.degree == 3 and v not in f.vertices():
            seen[f.id] = f
    return list(seen.values())


def _fan_neighbor_reduction(ctx: _Ctx, v: int, u: int, u_minus: int, u_plus: int):
    """Reduction deleting a fan neighbor u that carries four triangles.

    u sits on the triangles [v,u_minus,u] and [v,u,u_plus]; its two other
    triangles determine the single chord that keeps distances intact:
    two lateral triangles bridge their far vertices, a lateral plus an
    outer triangle bridges the opposite fan neighbor to the loose vertex.
    Returns (bindings, chord) or None when the shape does not apply.
    """
    if ctx.deg[u] != 5 or ctx.m3[u] != 4:
        return None
    extras = _extra_triangles(ctx, u, v)
    if len(extras) != 2:
        return None
    others = [w for w in ctx.rot[u] if w not in (v, u_minus, u_plus)]
    if len(others) != 2:
        return None
    t_plus = next((f for f in extras if u_plus in f.vertices()), None)
    t_minus = next((f for f in extras if u_minus in f.vertices()), None)
    t_outer = next((f for f in extras if u_plus not in f.vertices()
                    and u_minus not in f.vertices()), None)
    if t_plus is not None and t_minus is not None:
        s_plus = next(w for w in t_plus.vertices() if w not in (u, u_plus))
        s_minus = next(w for w in t_minus.vertices() if w not in (u, u_minus))
        chord = (s_minus, s_plus)
    elif t_plus is not None and t_outer is not None:
        s_plus = next(w for w in t_plus.vertices() if w not in (u, u_plus))
        loose = next(w for w in others if w != s_plus)
        chord = (u_minus, loose)
    elif t_minus is not None and t_outer is not None:
        s_minus = next(w for w in t_minus.vertices() if w not in (u, u_minus))
        loose = next(w for w in others if w != s_minus)
        chord = (u_plus, loose)
    else:
        return None
    bindings = {"u": u, "v7": min(others), "v8": max(others)}
    return bindings, chord


def _scan_k18(ctx: _Ctx, v: int):
    # 6-vertex: five triangles and one 4-face.
    if ctx.deg[v] != 6 or ctx.m3[v] != 5:
        return
    for labels, faces in _fan_layout(ctx, v, lambda d: d == 4):
        degs = [ctx.deg[u] for u in labels]
        if any(d == 3 for d in degs):
            continue
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(6)},
             "x": _opposite_on_quad(faces[5], v)}

        if n4 == 2 and degs[0] == 4 and degs[5] == 4 and n5 >= 2:
            yield "a", b
        if n4 == 1 and degs[0] == 4:
            if n5 >= 4:
                yield "b", b
            elif n5 == 3 and ctx.doubled_induced(v):
                yield "c", b
        if n4 == 0 and n5 == 6:
            yield "d", b
        if n4 == 0 and n5 == 5 and 6 in degs[:3] and ctx.doubled_induced(v):
            yield "e", b
        if n4 == 0 and n5 == 4:
            if degs[0] == 6 and degs[5] == 6:
                for u, um, up in ((labels[2], labels[1], labels[3]),
                                  (labels[3], labels[2], labels[4])):
                    hit = _fan_neighbor_reduction(ctx, v, u, um, up)
                    if hit:
                        yield "f", {**b, **hit[0]}
            elif _doubled_fan_count(ctx, labels) >= 2:
                for i in range(1, 5):
                    if degs[i] == 5:
                        yield f"g{i+1}", {**b, "vi": labels[i]}
        if n4 == 0 and n5 == 3:
            positions = {i + 1 for i in range(6) if degs[i] == 5}
            if positions in _SIX_PROFILE_V6 and ctx.deg[labels[5]] == 5 \
                    and ctx.m3[labels[5]] == 4:
                yield "h_last", b
            elif positions in _SIX_PROFILE_V4:
                hit = _fan_neighbor_reduction(ctx, v, labels[3], labels[2], labels[4])
                if hit:
                    yield "h_mid", {**b, **hit[0]}
            elif positions in _SIX_PROFILE_V3:
                hit = _fan_neighbor_reduction(ctx, v, labels[2], labels[1], labels[3])
                if hit:
                    yield "h_mid", {**b, **hit[0]}
            elif positions in _SIX_PROFILE_3DBL and _doubled_fan_count(ctx, labels) >= 3:
                yield "h_triple", b


def _scan_k19(ctx: _Ctx, v: int):
    # 6-vertex: five triangles and one face of degree >= 5.
    if ctx.deg[v] != 6 or ctx.m3[v] != 5:
        return
    for labels, _ in _fan_layout(ctx, v, lambda d: d >= 5):
        degs = [ctx.deg[u] for u in labels]
        if any(d == 3 for d in degs):
            continue
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(6)}}

        if n4 == 2 and degs[0] == 4 and degs[5] == 4 and n5 >= 3:
            yield "a", b
        if n4 == 1 and degs[0] == 4:
            if n5 >= 5:
                yield "b", b
            elif n5 == 4 and ctx.doubled_induced(v):
                yield "c", b
        if n4 == 0 and n5 == 6 and ctx.doubled_induced(v):
            yield "d", b
        if n4 == 0 and n5 == 5 and 6 in degs[:3] \
                and _doubled_fan_count(ctx, labels) >= 2:
            yield "e", b


def _scan_k20(ctx: _Ctx, v: int):
    # 6-vertex: four triangles and two 4-faces.
    if ctx.deg[v] != 6 or ctx.m3[v] != 4 or ctx.m4[v] != 2:
        return
    for labels, faces in ctx.labelings(v):
        if faces[0].degree != 4:
            continue
        degs = [ctx.deg[u] for u in labels]
        if any(d == 3 for d in degs):
            continue
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        case = None
        if faces[1].degree == 4 and all(faces[i].degree == 3 for i in (2, 3, 4, 5)):
            case = "near"
        elif faces[2].degree == 4 and all(faces[i].degree == 3 for i in (1, 3, 4, 5)):
            case = "mid"
        elif faces[3].degree == 4 and all(faces[i].degree == 3 for i in (1, 2, 4, 5)):
            case = "far"
        if case is None:
            continue
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(6)}}
        if n4 == 1 and n5 == 5:
            yield f"{case}/one_four", b
        if n5 == 6 and ctx.doubled_induced(v):
            yield f"{case}/doubled", b


def _scan_k21(ctx: _Ctx, v: int):
    # 6-vertex: four triangles, one 4-face, one big face, with a 3-vertex
    # between the small faces and a 4-vertex flanking it.
    if ctx.deg[v] != 6 or ctx.m3[v] != 4:
        return
    for labels, faces in ctx.labelings(v):
        if not (faces[0].degree == 4 and faces[1].degree >= 5
                and all(faces[i].degree == 3 for i in (2, 3, 4, 5))):
            continue
        v2 = labels[1]
        if ctx.deg[v2] != 3:
            continue
        x = _opposite_on_quad(faces[0], v)
        y = _face_neighbor(faces[1], v2, v)
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(6)}, "x": x, "y": y}
        if ctx.deg[labels[0]] == 4:
            yield "flank_first", b
        elif ctx.deg[labels[2]] == 4:
            yield "flank_third", b


def _scan_k22(ctx: _Ctx, v: int):
    # As K21 but with two big faces around the 3-vertex.
    if ctx.deg[v] != 6 or ctx.m3[v] != 4:
        return
    for labels, faces in ctx.labelings(v):
        if not (faces[0].degree >= 5 and faces[1].degree >= 5
                and all(faces[i].degree == 3 for i in (2, 3, 4, 5))):
            continue
        v2 = labels[1]
        if ctx.deg[v2] != 3:
            continue
        y = _face_neighbor(faces[0], v2, v)
        z = _face_neighbor(faces[1], v2, v)
        b = {"v": v, **{f"v{i+1}": labels[i] for i in range(6)}, "y": y, "z": z}
        if ctx.deg[labels[0]] == 4:
            yield "flank_first", b
        elif ctx.deg[labels[2]] == 4:
            yield "flank_third", b


def _five_face_walks(ctx: _Ctx, v: int):
    """Each 5-face at v with five distinct vertices, walked both ways from v."""
    for f in ctx.corner[v]:
        if f.degree == 5 and len(set(walk := f.vertex_walk())) == 5:
            i = walk.index(v)
            seq = walk[i:] + walk[:i]
            yield seq
            yield seq[:1] + seq[:0:-1]


def _third_neighbor(ctx: _Ctx, u: int, a: int, b: int) -> int:
    return next(w for w in ctx.rot[u] if w not in (a, b))


def _scan_k23(ctx: _Ctx, v: int):
    # 3-vertex on a 5-face carrying a second 3-vertex two apart on the boundary.
    if ctx.deg[v] != 3:
        return
    for v1, v2, v3, v4, v5 in _five_face_walks(ctx, v):
        if ctx.deg[v4] == 3:
            b = {"v1": v1, "v2": v2, "v3": v3, "v4": v4, "v5": v5,
                 "v6": _third_neighbor(ctx, v1, v2, v5),
                 "v7": _third_neighbor(ctx, v4, v3, v5)}
            yield "", b


def _scan_k24(ctx: _Ctx, v: int):
    # 3-vertex on a 5-face carrying a 4-vertex two apart on the boundary.
    if ctx.deg[v] != 3:
        return
    for v1, v2, v3, v4, v5 in _five_face_walks(ctx, v):
        if ctx.deg[v4] == 4:
            b = {"v1": v1, "v2": v2, "v3": v3, "v4": v4, "v5": v5,
                 "v6": _third_neighbor(ctx, v1, v2, v5)}
            yield "", b


# ---------------------------------------------------------------------------
# Plan construction per entry
# ---------------------------------------------------------------------------

def _plan(m: ConfigurationMatch, delete: int, chords, bound: int) -> ReductionPlan:
    return ReductionPlan(delete, tuple(chords), m.config_id, bound, m.variant)


def _by_roles(delete: str, table: dict):
    """Builder for plans read off the match's bindings alone.

    `table` maps each variant to (chord role pairs, forbidden bound); the
    vertex bound to the role `delete` is the one deleted.
    """
    def build(ctx: _Ctx, m: ConfigurationMatch) -> ReductionPlan:
        pairs, bound = table[m.variant]
        bm = m.binding_map()
        return _plan(m, bm[delete], ((bm[a], bm[b]) for a, b in pairs), bound)
    return build


# K08 and K09: the two triangles at a 4-vertex share an edge or sit apart.
_TWO_TRIANGLES = {"adjacent": ((("v2", "v4"),), 19),
                  "split": ((("v2", "v3"), ("v4", "v1")), 19)}
# K18 and K19 a-c: fan from the first neighbor.
_FAN_FROM_V1 = (("v1", "v3"), ("v1", "v5"), ("v1", "v6"))

# The K18 variants whose plan reads only the bindings; _spec_k18 builds the rest.
_k18_by_roles = _by_roles("v", {
    **dict.fromkeys(("a", "b", "c"), (_FAN_FROM_V1, 19)),
    "d": ((("v6", "v1"), ("v3", "v1"), ("v3", "v5")), 19),
    "e": ((("v6", "v1"), ("v4", "v2"), ("v4", "v6")), 19),
    "h_triple": ((("v2", "v4"), ("v4", "v6"), ("v6", "v1")), 19),
})


def _spec_k11(ctx: _Ctx, m: ConfigurationMatch) -> ReductionPlan:
    bm = m.binding_map()
    vi = bm["vi"]
    others = [u for u in ctx.rot[bm["v"]] if u != vi]
    chords = [(vi, u) for u in others if not ctx.has_edge(vi, u)]
    return _plan(m, bm["v"], chords, 18 if m.variant == "m4=2" else 19)


def _spec_k12(ctx: _Ctx, m: ConfigurationMatch) -> ReductionPlan:
    bm = m.binding_map()
    v1, v2, v3, v4 = bm["v1"], bm["v2"], bm["v3"], bm["v4"]
    bound = 18 if m.variant == "m4=2" else 19
    if m.variant == "m4=1 far":
        chords = ((v2, v3), (v4, v1))
    elif ctx.deg[v1] == 5:
        chords = ((v1, v3), (v1, v4))
    elif ctx.deg[v2] == 5:
        chords = ((v2, v3), (v2, v4))
    else:
        chords = ((v2, v3), (v3, v4), (v4, v1))
    return _plan(m, bm["v"], chords, bound)


def _spec_k18(ctx: _Ctx, m: ConfigurationMatch) -> ReductionPlan:
    bm = m.binding_map()
    v = bm["v"]
    ring = tuple(bm[f"v{i}"] for i in range(1, 7))
    var = m.variant
    if var == "h_last":
        return _plan(m, ring[5], ((v, bm["x"]),), 19)
    if var.startswith("g"):
        vi = bm["vi"]
        i = ring.index(vi)
        return _plan(m, v, ((ring[5], ring[0]), (vi, ring[(i - 2) % 6]),
                            (vi, ring[(i + 2) % 6])), 19)
    if var in ("f", "h_mid"):
        u = bm["u"]
        i = ring.index(u)
        hit = _fan_neighbor_reduction(ctx, v, u, ring[i - 1], ring[(i + 1) % 6])
        if hit is None:
            raise PlanInvalid("NotOnMergedFace", ("fan-neighbor shape vanished", u))
        return _plan(m, u, (hit[1],), 18 if var == "f" else 19)
    return _k18_by_roles(ctx, m)


@dataclass(frozen=True)
class CatalogEntry:
    config_id: str
    summary: str
    scan: Callable
    build: Callable
    # The degree the scan requires of its anchor; see `fits`.
    degree: int
    # False when the scan reads only its anchor's rotation and corner faces;
    # the engine then re-checks fewer anchors after a step. True when it
    # also reads the vertices around its anchor: its neighbors or, for K23
    # and K24, the vertices on its 5-faces.
    reads_neighbors: bool = True

    def fits(self, d: int) -> bool:
        """Whether a vertex of degree d can anchor a match: K01 also takes degree 0."""
        return d == self.degree or (self.degree == 1 and d == 0)


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("K01", "vertex of degree <= 1: delete it",
                 _scan_k01, _by_roles("v", {"": ((), 6)}),
                 degree=1, reads_neighbors=False),
    CatalogEntry("K02", "2-vertex: delete, join its neighbors",
                 _scan_k02, _by_roles("v", {"": ((("x", "y"),), 12)}),
                 degree=2, reads_neighbors=False),
    CatalogEntry("K03", "3-vertex with a light neighbor: delete, fan from that neighbor",
                 _scan_k03, _by_roles("v", {"": ((("v1", "v2"), ("v1", "v3")), 17)}),
                 degree=3),
    CatalogEntry("K04", "3-vertex on a triangle: delete, one chord",
                 _scan_k04, _by_roles("v", {"": ((("v1", "v3"),), 16)}),
                 degree=3, reads_neighbors=False),
    CatalogEntry("K05", "3-vertex between two 4-faces: delete, one chord",
                 _scan_k05, _by_roles("v", {"": ((("v1", "v3"),), 16)}),
                 degree=3, reads_neighbors=False),
    CatalogEntry("K06", "4-vertex on three triangles: delete, close the fan",
                 _scan_k06, _by_roles("v", {"": ((("v1", "v4"),), 18)}),
                 degree=4, reads_neighbors=False),
    CatalogEntry("K07", "4-vertex, two triangles plus a 4-face",
                 _scan_k07, _by_roles("v", {"adjacent": ((("v1", "v4"),), 19),
                                            "split": ((("v3", "v4"),), 19)}),
                 degree=4, reads_neighbors=False),
    CatalogEntry("K08", "4-vertex, two triangles, a light neighbor",
                 _scan_k08, _by_roles("v", _TWO_TRIANGLES), degree=4),
    CatalogEntry("K09", "4-vertex, two triangles, triangle edge doubled",
                 _scan_k09, _by_roles("v", _TWO_TRIANGLES), degree=4),
    CatalogEntry("K10", "4-vertex, one triangle and three 4-faces",
                 _scan_k10, _by_roles("v", {"": ((("v2", "v3"), ("v1", "v4")), 19)}),
                 degree=4, reads_neighbors=False),
    CatalogEntry("K11", "4-vertex with a 4-neighbor: delete, star the 4-neighbor",
                 _scan_k11, _spec_k11, degree=4),
    CatalogEntry("K12", "4-vertex with two 5-neighbors",
                 _scan_k12, _spec_k12, degree=4),
    CatalogEntry("K13", "5-vertex, full fan, light neighbor: plain deletion",
                 _scan_k13, _by_roles("v", {"": ((), 19)}), degree=5),
    CatalogEntry("K14", "5-vertex, full fan, doubled neighbor edge: plain deletion",
                 _scan_k14, _by_roles("v", {"": ((), 19)}), degree=5),
    CatalogEntry("K15", "5-vertex, four triangles + 4-face: close the gap",
                 _scan_k15, _by_roles("v", dict.fromkeys(
                     ("low_neighbor", "two_fives", "saturated_six"), ((("v5", "v1"),), 19))),
                 degree=5),
    CatalogEntry("K16", "5-vertex, four triangles + big face: close the gap",
                 _scan_k16, _by_roles("v", {
                     "two_fours": ((("v1", "v5"),), 18),
                     **dict.fromkeys(("three_fives", "four_plus_five"),
                                     ((("v1", "v5"),), 19))}),
                 degree=5),
    CatalogEntry("K17", "5-vertex, four triangles + big face, doubled edge",
                 _scan_k17, _by_roles("v", dict.fromkeys(
                     ("one_four", "two_fives"), ((("v5", "v1"),), 19))),
                 degree=5),
    CatalogEntry("K18", "6-vertex, five triangles + 4-face family",
                 _scan_k18, _spec_k18, degree=6),
    CatalogEntry("K19", "6-vertex, five triangles + big face family",
                 _scan_k19, _by_roles("v", {
                     **dict.fromkeys(("a", "b", "c"), (_FAN_FROM_V1, 19)),
                     **dict.fromkeys(("d", "e"),
                                     ((("v4", "v2"), ("v4", "v6"), ("v1", "v6")), 19))}),
                 degree=6),
    CatalogEntry("K20", "6-vertex, four triangles + two 4-faces family",
                 _scan_k20, _by_roles("v", {
                     f"{case}/{kind}": (pairs, 19)
                     for case, pairs in (
                         ("near", (("v1", "v2"), ("v2", "v3"), ("v3", "v5"), ("v5", "v1"))),
                         ("mid", (("v1", "v2"), ("v3", "v4"), ("v3", "v5"), ("v5", "v1"))),
                         ("far", (("v1", "v2"), ("v4", "v5"), ("v1", "v3"), ("v3", "v5"))))
                     for kind in ("one_four", "doubled")}),
                 degree=6),
    CatalogEntry("K21", "3-vertex between a 4-face and a big face at a 6-vertex",
                 _scan_k21, _by_roles("v2", {
                     "flank_first": ((("v1", "y"),), 17),
                     "flank_third": ((("v3", "x"), ("v3", "y")), 17)}),
                 degree=6),
    CatalogEntry("K22", "3-vertex between two big faces at a 6-vertex",
                 _scan_k22, _by_roles("v2", {
                     "flank_first": ((("v1", "y"), ("v1", "z")), 18),
                     "flank_third": ((("v3", "y"), ("v3", "z")), 18)}),
                 degree=6),
    CatalogEntry("K23", "5-face with two 3-vertices",
                 _scan_k23, _by_roles("v1", {"": ((("v2", "v4"), ("v4", "v6")), 18)}),
                 degree=3),
    CatalogEntry("K24", "5-face with a 3-vertex and a 4-vertex",
                 _scan_k24, _by_roles("v1", {"": ((("v2", "v4"), ("v4", "v6")), 18)}),
                 degree=3),
)

_BY_ID = {e.config_id: e for e in CATALOG}


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

class _EntryIndex:
    """The anchors at which one catalog entry matches on a live context.

    Every entry is anchored at a vertex of its degree, the center of each
    match its scan yields there. `anchors` is sorted and holds the vertices
    whose scan yields at least one match; `detect_iter` builds an anchor's
    matches only when it reaches that anchor. Anchors marked dirty are
    re-checked, by taking the first item of their scan, when detection next
    reaches this entry; one whose degree no longer fits is dropped unscanned.
    """

    __slots__ = ("entry", "anchors", "dirty")

    def __init__(self, ctx: _Ctx, entry: CatalogEntry):
        self.entry = entry
        self.anchors = [v for v in ctx.candidates(entry) if self._matches(ctx, v)]
        self.dirty: set[int] = set()

    def _matches(self, ctx: _Ctx, v: int) -> bool:
        return next(self.entry.scan(ctx, v), None) is not None

    def flush(self, ctx: _Ctx) -> None:
        anchors, fits, deg = self.anchors, self.entry.fits, ctx.deg
        for a in self.dirty:
            i = bisect_left(anchors, a)
            had = i < len(anchors) and anchors[i] == a
            if a in deg and fits(deg[a]) and self._matches(ctx, a):
                if not had:
                    anchors.insert(i, a)
            elif had:
                del anchors[i]
        self.dirty.clear()


def _in_order(ctx: _Ctx, catalog, build_index: bool) -> Iterator[ConfigurationMatch]:
    """Matches in priority order: through each entry's index where it has
    one (built first when `build_index`), else by one full scan of every
    vertex whose degree fits the entry; each anchor's matches are centered
    there and sorted by variant, then bindings."""
    for entry in (catalog or CATALOG):
        idx = ctx.index.get(entry)
        if idx is None and build_index:
            idx = ctx.index[entry] = _EntryIndex(ctx, entry)
        elif idx is not None and idx.dirty:
            idx.flush(ctx)
        for a in (ctx.candidates(entry) if idx is None else idx.anchors):
            for variant, b in sorted((variant, tuple(sorted(b.items())))
                                     for variant, b in entry.scan(ctx, a)):
                yield ConfigurationMatch(entry.config_id, a, b, variant)


def detect_iter(g, catalog=None) -> Iterator[ConfigurationMatch]:
    """Matches in priority order: catalog position, then center, variant and bindings.

    `g` is an EmbeddedGraph or the engine's live context. On the engine's
    context an entry's index is built, or its dirty anchors re-checked, only
    when iteration reaches it, and an anchor's matches are built only when
    iteration reaches that anchor, so taking the first match costs the
    entries before it and one anchor's scan; running out means every entry
    has been brought up to date. The context must not change while the
    iterator is in use. A graph gets a context of its own, built (and its
    degrees checked) on the first `next`, used once and scanned without
    indexes.
    """
    ctx = _Ctx.of(g)
    yield from _in_order(ctx, catalog, build_index=ctx is g)


def detect_all(g, catalog=None) -> list[ConfigurationMatch]:
    """Every match in priority order, as `detect_iter`, but building no index:
    entries without one are scanned once in full."""
    return list(_in_order(_Ctx.of(g), catalog, build_index=False))


def _entries_by_degree(catalog) -> list[tuple[CatalogEntry, ...]]:
    """Per degree 0..6, the entries that a vertex of that degree can anchor."""
    return [tuple(e for e in catalog if e.fits(d)) for d in range(7)]


_CATALOG_BY_DEGREE = _entries_by_degree(CATALOG)


def match_count(g, catalog=None) -> int:
    """len(detect_all(g, catalog)), counted without building a match: one
    pass over the vertices scans each for the entries its degree fits, and
    nothing is sorted or indexed."""
    ctx = _Ctx.of(g)
    by_degree = _entries_by_degree(catalog) if catalog else _CATALOG_BY_DEGREE
    return sum(1 for v, d in ctx.deg.items() for entry in by_degree[d]
               for _ in entry.scan(ctx, v))


def detect(g, catalog=None) -> Optional[ConfigurationMatch]:
    return next(detect_iter(g, catalog), None)


def build_plan_spec(g, match: ConfigurationMatch) -> ReductionPlan:
    """The raw plan for a match, before validation."""
    return _BY_ID[match.config_id].build(_Ctx.of(g), match)
