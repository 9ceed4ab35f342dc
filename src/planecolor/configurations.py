"""Catalog of reducible local configurations and their detection.

Each catalog entry Kxx pairs a structural trigger (degrees, incident face
sizes, neighbor degrees, doubled edges) with an executable reduction: delete
one vertex and add chords inside the merged face so that every surviving pair
at distance <= 2 stays at distance <= 2. Detection evaluates every trigger
under all rotations and reflections of the neighbor labeling, so no "pick a
labeling" step is left implicit: each scanner enumerates every labeling
that can match, read off its anchor's corner layout or light neighbors, and
builds no other. It yields each match as vertex values against a constant
role tuple sorted by name, which detection zips into the match's bindings.

`forbidden_bound` on each constructed plan is the guaranteed ceiling on the
number of colors that can be blocked at the deleted vertex when the reduced
graph has been colored; it is always at most 19 against a palette of 20.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import getitem
from typing import Callable, Iterator, Optional

from ._live import _Ctx
from .embedding import EmbeddedGraph
from .errors import PlanInvalid


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
    forbidden_bound: int


# The role tuples the scanners yield their values against, each sorted by
# role name: "a", "b" and "u" sort before the anchor "v", "v" before its
# ring "v1".."vd" (read in a labeling's order), and "vi", "w", "x", "y", "z"
# after them.
_R3, _R4, _R5, _R6 = (("v", *(f"v{i + 1}" for i in range(d))) for d in (3, 4, 5, 6))
_K05 = (*_R3, "x", "y")
_K07, _K08, _K10, _K11 = (*_R4, "x"), (*_R4, "w5"), (*_R4, "x", "y", "z"), (*_R4, "vi")
_K15, _K15_SIX, _K17 = (*_R5, "x"), (*_R5, "w", "x"), ("a", "b", *_R5)
_K18, _K18_VI, _K18_U = (*_R6, "x"), (*_R6, "vi", "x"), ("u", *_R6, "v7", "v8", "x")
_K21, _K22 = (*_R6, "x", "y"), (*_R6, "y", "z")
_K23 = tuple(f"v{i}" for i in range(1, 8))
_K24 = _K23[:6]


def _opposite_on_quad(ctx: _Ctx, f: int, v: int) -> int:
    """The vertex across the 4-face f from v."""
    walk = ctx.faces[f]
    return walk[(walk.index(v) + 2) % 4]


def _face_neighbor(ctx: _Ctx, f: int, u: int, exclude: int) -> int:
    """u's boundary neighbor on face f other than `exclude`, where u first
    occurs on f's walk. That is u's one corner on f unless u has several;
    only then is the walk read, and traced when the context keeps none."""
    ns, fs = ctx.rot[u], ctx.dart_faces(u)
    at = [p for p, g in enumerate(fs) if g == f]  # corner p lies between ns[p - 1] and ns[p]
    if len(at) > 1:
        walk = ctx.faces.get(f) or ctx.walk(ctx.off[u] + at[0])
        j = walk.index(u)
        at = [ns.index(walk[(j + 1) % len(walk)])]
    return min({ns[at[0] - 1], ns[at[0]]} - {exclude})


def _labeling(ns: list, fs: list, k: int, forward: bool) -> tuple[list, list]:
    """A vertex's neighbors ns read from position k, forward or backward, and
    their corner faces: faces[i] lies between labels[i] and labels[i + 1],
    cyclically. fs is the vertex's `dart_faces`, fs[j] the face in the corner
    between ns[j - 1] and ns[j]. Labels and faces are new lists."""
    if forward:
        return ns[k:] + ns[:k], fs[k + 1:] + fs[:k + 1]
    return ns[k::-1] + ns[:k:-1], fs[k::-1] + fs[:k:-1]


def _from_corner(ns: list, fs: list, p: int):
    """The two labelings whose first corner is fs[p], between ns[p - 1] and
    ns[p]: forward from ns[p - 1], then backward from ns[p]."""
    yield _labeling(ns, fs, p - 1, True)
    yield _labeling(ns, fs, p, False)


def _from_corners(ctx: _Ctx, v: int, size):
    """For each corner of v in rotation order whose face size passes `size`,
    the two labelings `_from_corner` builds there, so faces[0] is that
    corner's face. No labeling is built at a corner that fails."""
    fd, ns, fs = ctx.fdeg, ctx.rot[v], ctx.dart_faces(v)
    for p, f in enumerate(fs):
        if size(fd[f]):
            yield from _from_corner(ns, fs, p)


# ---------------------------------------------------------------------------
# Scanners. Each yields (variant, roles, values) for every match anchored at
# one vertex, their center: the match binds roles[i] to values[i], and roles
# is one of the sorted tuples above. A scanner runs only at a vertex whose
# degree and triangle count fit its entry's gate (`CatalogEntry.fits`), which
# its caller checks once, so no scanner tests either. A labeling is a
# rotation or reflection of the anchor's neighbors; each scanner builds only
# the labelings that its corner layout or a light neighbor admits, each of
# them read off the anchor's rotation and `dart_faces`: those that start at a
# corner of some size by `_from_corners`, those that end at a fan's one other
# corner by `_fan_layout`. Only detection builds the matches.
# ---------------------------------------------------------------------------

def _scan_k01(ctx: _Ctx, v: int):
    # Degree <= 1 in a graph with something else left to color.
    if ctx.vertex_count >= 2:
        if ns := ctx.rot[v]:
            yield "", ("v", "v1"), (v, ns[0])
        else:
            yield "", ("v",), (v,)


def _scan_k02(ctx: _Ctx, v: int):
    yield "", ("v", "x", "y"), (v, *ctx.rot[v])


def _scan_k03(ctx: _Ctx, v: int):
    # 3-vertex with a neighbor of degree <= 5: the two labelings from it.
    deg = ctx.deg
    a, b, c = ctx.rot[v]
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        if deg[x] <= 5:
            yield "", _R3, (v, x, y, z)
            yield "", _R3, (v, x, z, y)


def _scan_k04(ctx: _Ctx, v: int):
    # 3-vertex on a triangle: the two labelings that start at its corner.
    for labels, _ in _from_corners(ctx, v, lambda d: d == 3):
        yield "", _R3, (v, *labels)


def _scan_k05(ctx: _Ctx, v: int):
    # 3-vertex between two 4-faces: the labelings whose first two corners they are.
    fd = ctx.fdeg
    for labels, faces in _from_corners(ctx, v, lambda d: d == 4):
        if fd[faces[1]] == 4:
            yield "", _K05, (v, *labels, _opposite_on_quad(ctx, faces[0], v),
                             _opposite_on_quad(ctx, faces[1], v))


def _scan_k06(ctx: _Ctx, v: int):
    # 4-vertex on three consecutive triangles, so on three or four triangles
    # (the gate): on four every labeling matches, on three the fan layouts.
    if ctx.m3[v] == 4:
        layouts = _from_corners(ctx, v, lambda d: True)
    else:
        layouts = _fan_layout(ctx, v, lambda d: True)
    for labels, _ in layouts:
        yield "", _R4, (v, *labels)


def _scan_k07(ctx: _Ctx, v: int):
    # 4-vertex, exactly two triangles, plus a 4-face: the labelings from a 4-face.
    if ctx.m4[v] < 1:
        return
    fd = ctx.fdeg
    for labels, faces in _from_corners(ctx, v, lambda d: d == 4):
        if fd[faces[1]] == 3 and fd[faces[2]] == 3:
            yield "adjacent", _K07, (v, *labels, _opposite_on_quad(ctx, faces[0], v))
        if fd[faces[1]] == 3 and fd[faces[3]] == 3:
            yield "split", _K07, (v, *labels, _opposite_on_quad(ctx, faces[0], v))


def _k0789_layouts(ctx: _Ctx, v: int):
    """Common 4-vertex / two-triangle layouts, read from each triangle:
    yields (labels, "adjacent" or "split")."""
    fd = ctx.fdeg
    for labels, faces in _from_corners(ctx, v, lambda d: d == 3):
        if fd[faces[1]] == 3:
            yield labels, "adjacent"
        elif fd[faces[2]] == 3:
            yield labels, "split"


def _scan_k08(ctx: _Ctx, v: int):
    # 4-vertex, exactly two triangles, some neighbor of degree <= 5.
    w5 = min((u for u in ctx.rot[v] if ctx.deg[u] <= 5), default=None)
    if w5 is None:
        return
    for labels, variant in _k0789_layouts(ctx, v):
        yield variant, _K08, (v, *labels, w5)


def _scan_k09(ctx: _Ctx, v: int):
    # 4-vertex, exactly two triangles, the first triangle's outer edge doubled.
    for labels, variant in _k0789_layouts(ctx, v):
        if ctx.doubled(labels[0], labels[1]):
            yield variant, _R4, (v, *labels)


def _scan_k10(ctx: _Ctx, v: int):
    # 4-vertex: one triangle and three 4-faces.
    fd = ctx.fdeg
    for labels, faces in _from_corners(ctx, v, lambda d: d == 3):
        if fd[faces[1]] == 4 and fd[faces[2]] == 4 and fd[faces[3]] == 4:
            yield "", _K10, (v, *labels, *(_opposite_on_quad(ctx, f, v) for f in faces[1:]))


def _scan_k11(ctx: _Ctx, v: int):
    # 4-vertex: one triangle, one or two 4-faces, a 4-vertex neighbor.
    if not 1 <= ctx.m4[v] <= 2:
        return
    four = [u for u in sorted(ctx.rot[v]) if ctx.deg[u] == 4]
    if not four:
        return
    variant = f"m4={ctx.m4[v]}"
    for labels, _ in _from_corners(ctx, v, lambda d: d == 3):
        for vi in four:
            yield variant, _K11, (v, *labels, vi)


def _scan_k12(ctx: _Ctx, v: int):
    # 4-vertex: one triangle, one or two 4-faces, two neighbors of degree 5.
    if not 1 <= ctx.m4[v] <= 2:
        return
    if sum(1 for u in ctx.rot[v] if ctx.deg[u] == 5) < 2:
        return
    fd = ctx.fdeg
    for labels, faces in _from_corners(ctx, v, lambda d: d == 3):
        if ctx.m4[v] == 2:
            yield "m4=2", _R4, (v, *labels)
        elif fd[faces[1]] == 4:
            yield "m4=1 near", _R4, (v, *labels)
        elif fd[faces[2]] == 4:
            yield "m4=1 far", _R4, (v, *labels)


def _scan_k13(ctx: _Ctx, v: int):
    # 5-vertex in a full triangle fan with a neighbor of degree <= 5: the two
    # labelings from that neighbor.
    ns = ctx.rot[v]
    for k, u in enumerate(ns):
        if ctx.deg[u] <= 5:
            yield "", _R5, (v, *ns[k:], *ns[:k])
            yield "", _R5, (v, *ns[k::-1], *ns[:k:-1])


def _scan_k14(ctx: _Ctx, v: int):
    # 5-vertex in a full triangle fan with a doubled edge between neighbors.
    for a, b in ctx.doubled_induced(v):
        yield "", ("v", "v1", "v2"), (v, a, b)


def _fan_layout(ctx: _Ctx, v: int, last_degree):
    """Labelings with a triangle in every corner but the last, which passes last_degree.

    A triangle fills one corner only (its three vertices are distinct), so
    such a layout exists only where m3 is one below the degree: the callers'
    gates admit no other count, and K06 calls it only when one of its four
    corners is not a triangle. There exactly one corner, fs[p], is not a triangle,
    and the two labelings that end at it are built: forward from ns[p],
    then backward from ns[p - 1].
    """
    fd, fs = ctx.fdeg, ctx.dart_faces(v)
    p = next(i for i, f in enumerate(fs) if fd[f] != 3)
    if last_degree(fd[fs[p]]):
        ns = ctx.rot[v]
        yield _labeling(ns, fs, p, True)
        yield _labeling(ns, fs, p - 1, False)


def _scan_k15(ctx: _Ctx, v: int):
    # 5-vertex: four triangles and a 4-face, with a structural violation.
    for labels, faces in _fan_layout(ctx, v, lambda d: d == 4):
        x = _opposite_on_quad(ctx, faces[4], v)
        degs = [ctx.deg[u] for u in labels]
        if any(d <= 4 for d in degs):
            yield "low_neighbor", _K15, (v, *labels, x)
        if sum(1 for d in degs if d == 5) >= 2:
            yield "two_fives", _K15, (v, *labels, x)
        for w in labels[1:4]:
            if ctx.deg[w] == 6 and ctx.m3[w] == 6:
                yield "saturated_six", _K15_SIX, (v, *labels, w, x)
                break


def _scan_k16(ctx: _Ctx, v: int):
    # 5-vertex: four triangles and a big face, neighbor-degree violations.
    for labels, _ in _fan_layout(ctx, v, lambda d: d >= 5):
        values = (v, *labels)
        degs = [ctx.deg[u] for u in labels]
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        if n4 >= 2:
            yield "two_fours", _R5, values
        if n5 >= 3:
            yield "three_fives", _R5, values
        if n4 >= 1 and n5 >= 1:
            yield "four_plus_five", _R5, values


def _scan_k17(ctx: _Ctx, v: int):
    # 5-vertex: four triangles and a big face, tight degree profile, doubled edge.
    for labels, _ in _fan_layout(ctx, v, lambda d: d >= 5):
        degs = [ctx.deg[u] for u in labels]
        n3 = sum(1 for d in degs if d == 3)
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        n6 = sum(1 for d in degs if d == 6)
        profile = (n4, n5, n6)
        if n3 == 0 and profile in ((1, 0, 4), (0, 2, 3)) and (dbl := ctx.doubled_induced(v)):
            yield (("one_four" if profile == (1, 0, 4) else "two_fives"), _K17,
                   (*dbl[0], v, *labels))


def _doubled_fan_count(ctx: _Ctx, labels) -> int:
    return sum(1 for i in range(5) if ctx.doubled(labels[i], labels[i + 1]))


_SIX_PROFILE_V6 = ({4, 5, 6}, {3, 5, 6}, {2, 5, 6}, {1, 5, 6})
_SIX_PROFILE_V4 = ({3, 4, 6}, {3, 4, 5}, {2, 4, 5})
_SIX_PROFILE_V3 = ({2, 3, 6},)
_SIX_PROFILE_3DBL = ({2, 4, 6}, {1, 4, 6})


def _extra_triangles(ctx: _Ctx, u: int, v: int) -> list[tuple[int, ...]]:
    """Vertex walks of the distinct triangles at u that do not contain v."""
    return [ctx.faces[f] for f in dict.fromkeys(ctx.dart_faces(u))
            if ctx.fdeg[f] == 3 and v not in ctx.faces[f]]


def _fan_neighbor_reduction(ctx: _Ctx, v: int, u: int, u_minus: int, u_plus: int):
    """Reduction deleting a fan neighbor u that carries four triangles.

    u sits on the triangles [v,u_minus,u] and [v,u,u_plus]; its two other
    triangles determine the single chord that keeps distances intact:
    two lateral triangles bridge their far vertices, a lateral plus an
    outer triangle bridges the opposite fan neighbor to the loose vertex.
    Returns ((u, v7, v8), chord), v7 < v8 u's two other neighbors, or None
    when the shape does not apply.
    """
    if ctx.deg[u] != 5 or ctx.m3[u] != 4:
        return None
    extras = _extra_triangles(ctx, u, v)
    if len(extras) != 2:
        return None
    others = [w for w in ctx.rot[u] if w not in (v, u_minus, u_plus)]
    if len(others) != 2:
        return None
    t_plus = next((f for f in extras if u_plus in f), None)
    t_minus = next((f for f in extras if u_minus in f), None)
    t_outer = next((f for f in extras if u_plus not in f
                    and u_minus not in f), None)
    if t_plus is not None and t_minus is not None:
        s_plus = next(w for w in t_plus if w not in (u, u_plus))
        s_minus = next(w for w in t_minus if w not in (u, u_minus))
        chord = (s_minus, s_plus)
    elif t_plus is not None and t_outer is not None:
        s_plus = next(w for w in t_plus if w not in (u, u_plus))
        loose = next(w for w in others if w != s_plus)
        chord = (u_minus, loose)
    elif t_minus is not None and t_outer is not None:
        s_minus = next(w for w in t_minus if w not in (u, u_minus))
        loose = next(w for w in others if w != s_minus)
        chord = (u_plus, loose)
    else:
        return None
    return (u, min(others), max(others)), chord


def _deleting_u(hit, values) -> tuple:
    """The _K18_U values of a match whose plan deletes fan neighbor u, from
    `_fan_neighbor_reduction`'s hit and the _K18 values."""
    (u, v7, v8), _ = hit
    return (u, *values[:-1], v7, v8, values[-1])


def _scan_k18(ctx: _Ctx, v: int):
    # 6-vertex: five triangles and one 4-face.
    for labels, faces in _fan_layout(ctx, v, lambda d: d == 4):
        degs = [ctx.deg[u] for u in labels]
        if any(d == 3 for d in degs):
            continue
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        x = _opposite_on_quad(ctx, faces[5], v)
        values = (v, *labels, x)
        if n4 == 2 and degs[0] == 4 and degs[5] == 4 and n5 >= 2:
            yield "a", _K18, values
        if n4 == 1 and degs[0] == 4:
            if n5 >= 4:
                yield "b", _K18, values
            elif n5 == 3 and ctx.doubled_induced(v):
                yield "c", _K18, values
        if n4 == 0 and n5 == 6:
            yield "d", _K18, values
        if n4 == 0 and n5 == 5 and 6 in degs[:3] and ctx.doubled_induced(v):
            yield "e", _K18, values
        if n4 == 0 and n5 == 4:
            if degs[0] == 6 and degs[5] == 6:
                for u, um, up in ((labels[2], labels[1], labels[3]),
                                  (labels[3], labels[2], labels[4])):
                    hit = _fan_neighbor_reduction(ctx, v, u, um, up)
                    if hit:
                        yield "f", _K18_U, _deleting_u(hit, values)
            elif _doubled_fan_count(ctx, labels) >= 2:
                for i in range(1, 5):
                    if degs[i] == 5:
                        yield f"g{i+1}", _K18_VI, (v, *labels, labels[i], x)
        if n4 == 0 and n5 == 3:
            positions = {i + 1 for i in range(6) if degs[i] == 5}
            if positions in _SIX_PROFILE_V6 and ctx.deg[labels[5]] == 5 \
                    and ctx.m3[labels[5]] == 4:
                yield "h_last", _K18, values
            elif positions in _SIX_PROFILE_V4:
                hit = _fan_neighbor_reduction(ctx, v, labels[3], labels[2], labels[4])
                if hit:
                    yield "h_mid", _K18_U, _deleting_u(hit, values)
            elif positions in _SIX_PROFILE_V3:
                hit = _fan_neighbor_reduction(ctx, v, labels[2], labels[1], labels[3])
                if hit:
                    yield "h_mid", _K18_U, _deleting_u(hit, values)
            elif positions in _SIX_PROFILE_3DBL and _doubled_fan_count(ctx, labels) >= 3:
                yield "h_triple", _K18, values


def _scan_k19(ctx: _Ctx, v: int):
    # 6-vertex: five triangles and one face of degree >= 5.
    for labels, _ in _fan_layout(ctx, v, lambda d: d >= 5):
        degs = [ctx.deg[u] for u in labels]
        if any(d == 3 for d in degs):
            continue
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        values = (v, *labels)

        if n4 == 2 and degs[0] == 4 and degs[5] == 4 and n5 >= 3:
            yield "a", _R6, values
        if n4 == 1 and degs[0] == 4:
            if n5 >= 5:
                yield "b", _R6, values
            elif n5 == 4 and ctx.doubled_induced(v):
                yield "c", _R6, values
        if n4 == 0 and n5 == 6 and ctx.doubled_induced(v):
            yield "d", _R6, values
        if n4 == 0 and n5 == 5 and 6 in degs[:3] \
                and _doubled_fan_count(ctx, labels) >= 2:
            yield "e", _R6, values


_K20_CASES = ("near", "mid", "far")  # the second 4-face is faces[1], [2] or [3]


def _scan_k20(ctx: _Ctx, v: int):
    # 6-vertex: four triangles and two 4-faces, so every other corner is a
    # triangle; read from either 4-face, the other is near, mid or far.
    if ctx.m4[v] != 2:
        return
    fd = ctx.fdeg
    for labels, faces in _from_corners(ctx, v, lambda d: d == 4):
        case = next((c for c, g in zip(_K20_CASES, faces[1:4]) if fd[g] == 4), None)
        if case is None:
            continue
        degs = [ctx.deg[u] for u in labels]
        if any(d == 3 for d in degs):
            continue
        n4 = sum(1 for d in degs if d == 4)
        n5 = sum(1 for d in degs if d == 5)
        if n4 == 1 and n5 == 5:
            yield f"{case}/one_four", _R6, (v, *labels)
        if n5 == 6 and ctx.doubled_induced(v):
            yield f"{case}/doubled", _R6, (v, *labels)


def _flanked(ctx: _Ctx, labels) -> Optional[str]:
    """The K21/K22 variant: which neighbor of the 3-vertex labels[1] is a 4-vertex."""
    if ctx.deg[labels[0]] == 4:
        return "flank_first"
    if ctx.deg[labels[2]] == 4:
        return "flank_third"
    return None


def _scan_k21_k22(ctx: _Ctx, v: int, first, roles, far):
    """6-vertex on four triangles: m3 = 4 leaves two corners that are not
    triangles. Read from the first, whose size passes `first`, with a big face
    next: the 3-vertex v2 = labels[1] between them, flanked by a 4-vertex.
    The values end with far(f, v2), f the first corner's face, then v2's
    neighbor on the big face."""
    fd = ctx.fdeg
    for labels, faces in _from_corners(ctx, v, first):
        v2 = labels[1]
        if fd[faces[1]] < 5 or ctx.deg[v2] != 3 or not (variant := _flanked(ctx, labels)):
            continue
        yield variant, roles, (v, *labels, far(faces[0], v2),
                               _face_neighbor(ctx, faces[1], v2, v))


def _scan_k21(ctx: _Ctx, v: int):
    # A 4-face, then a big face: x is the 4-face's vertex across from v.
    return _scan_k21_k22(ctx, v, lambda d: d == 4, _K21,
                         lambda f, v2: _opposite_on_quad(ctx, f, v))


def _scan_k22(ctx: _Ctx, v: int):
    # Two big faces: y is the 3-vertex's neighbor on the first.
    return _scan_k21_k22(ctx, v, lambda d: d >= 5, _K22,
                         lambda f, v2: _face_neighbor(ctx, f, v2, v))


def _five_face_walks(ctx: _Ctx, v: int):
    """Each 5-face at v with five distinct vertices, walked both ways from v."""
    for f in ctx.dart_faces(v):
        if ctx.fdeg[f] == 5 and len(set(walk := ctx.faces[f])) == 5:
            i = walk.index(v)
            seq = walk[i:] + walk[:i]
            yield seq
            yield seq[:1] + seq[:0:-1]


def _third_neighbor(ctx: _Ctx, u: int, a: int, b: int) -> int:
    return next(w for w in ctx.rot[u] if w not in (a, b))


def _scan_k23(ctx: _Ctx, v: int):
    # 3-vertex on a 5-face carrying a second 3-vertex two apart on the boundary.
    for v1, v2, v3, v4, v5 in _five_face_walks(ctx, v):
        if ctx.deg[v4] == 3:
            yield "", _K23, (v1, v2, v3, v4, v5, _third_neighbor(ctx, v1, v2, v5),
                             _third_neighbor(ctx, v4, v3, v5))


def _scan_k24(ctx: _Ctx, v: int):
    # 3-vertex on a 5-face carrying a 4-vertex two apart on the boundary.
    for v1, v2, v3, v4, v5 in _five_face_walks(ctx, v):
        if ctx.deg[v4] == 4:
            yield "", _K24, (v1, v2, v3, v4, v5, _third_neighbor(ctx, v1, v2, v5))


# ---------------------------------------------------------------------------
# Plan construction per entry
# ---------------------------------------------------------------------------

def _plan(delete: int, chords, bound: int) -> ReductionPlan:
    return ReductionPlan(delete, tuple(chords), bound)


def _by_roles(delete: str, table: dict):
    """Builder for plans read off the match's bindings alone.

    `table` maps each variant to (chord role pairs, forbidden bound); the
    vertex bound to the role `delete` is the one deleted.
    """
    def build(ctx: _Ctx, m: ConfigurationMatch) -> ReductionPlan:
        pairs, bound = table[m.variant]
        bm = m.binding_map()
        return _plan(bm[delete], ((bm[a], bm[b]) for a, b in pairs), bound)
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
    return _plan(bm["v"], chords, 18 if m.variant == "m4=2" else 19)


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
    return _plan(bm["v"], chords, bound)


def _spec_k18(ctx: _Ctx, m: ConfigurationMatch) -> ReductionPlan:
    bm = m.binding_map()
    v = bm["v"]
    ring = tuple(bm[r] for r in _R6[1:])
    var = m.variant
    if var == "h_last":
        return _plan(ring[5], ((v, bm["x"]),), 19)
    if var.startswith("g"):
        vi = bm["vi"]
        i = ring.index(vi)
        return _plan(v, ((ring[5], ring[0]), (vi, ring[(i - 2) % 6]),
                         (vi, ring[(i + 2) % 6])), 19)
    if var in ("f", "h_mid"):
        u = bm["u"]
        i = ring.index(u)
        hit = _fan_neighbor_reduction(ctx, v, u, ring[i - 1], ring[(i + 1) % 6])
        if hit is None:
            raise PlanInvalid("NotOnMergedFace", ("fan-neighbor shape vanished", u))
        return _plan(u, (hit[1],), 18 if var == "f" else 19)
    return _k18_by_roles(ctx, m)


@dataclass(frozen=True, eq=False)  # entries key the indexes: hashed by identity, in C
class CatalogEntry:
    """One reducible configuration: its scan, its plan builder, its gate, and
    what the scan reads, which tells the engine which anchors to re-check
    after a step.

    The gate is part of the trigger: `degree` is the degree the scan requires
    of its anchor and `triangles` the counts of distinct triangles at it that
    it admits, None for any. `fits` is the one check of both, made once by
    the caller before a scan; the scan itself tests neither.
    `reads_neighbors` is False when the scan reads only its anchor's
    rotation and corner faces, so fewer anchors are re-checked; True when it
    also reads the vertices around its anchor: its neighbors or, for K23 and
    K24, the vertices on its 5-faces. `reads_five_faces` is True for those
    two, whose scans read the faces of exactly five darts at their anchor
    (`_five_face_walks`): a step gathers the vertices on the 5-faces at its
    changed vertices only once an index of such an entry exists.
    """

    config_id: str
    summary: str
    scan: Callable
    build: Callable
    degree: int
    triangles: Optional[tuple[int, ...]] = None
    reads_neighbors: bool = True
    reads_five_faces: bool = False

    def fits(self, d: int, t: int) -> bool:
        """Whether a vertex of degree d on t distinct triangles can anchor a
        match: K01 also takes degree 0."""
        return ((d == self.degree or (self.degree == 1 and d == 0))
                and (self.triangles is None or t in self.triangles))


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
                 degree=4, triangles=(3, 4), reads_neighbors=False),
    CatalogEntry("K07", "4-vertex, two triangles plus a 4-face",
                 _scan_k07, _by_roles("v", {"adjacent": ((("v1", "v4"),), 19),
                                            "split": ((("v3", "v4"),), 19)}),
                 degree=4, triangles=(2,), reads_neighbors=False),
    CatalogEntry("K08", "4-vertex, two triangles, a light neighbor",
                 _scan_k08, _by_roles("v", _TWO_TRIANGLES), degree=4, triangles=(2,)),
    CatalogEntry("K09", "4-vertex, two triangles, triangle edge doubled",
                 _scan_k09, _by_roles("v", _TWO_TRIANGLES), degree=4, triangles=(2,)),
    CatalogEntry("K10", "4-vertex, one triangle and three 4-faces",
                 _scan_k10, _by_roles("v", {"": ((("v2", "v3"), ("v1", "v4")), 19)}),
                 degree=4, triangles=(1,), reads_neighbors=False),
    CatalogEntry("K11", "4-vertex with a 4-neighbor: delete, star the 4-neighbor",
                 _scan_k11, _spec_k11, degree=4, triangles=(1,)),
    CatalogEntry("K12", "4-vertex with two 5-neighbors",
                 _scan_k12, _spec_k12, degree=4, triangles=(1,)),
    CatalogEntry("K13", "5-vertex, full fan, light neighbor: plain deletion",
                 _scan_k13, _by_roles("v", {"": ((), 19)}), degree=5, triangles=(5,)),
    CatalogEntry("K14", "5-vertex, full fan, doubled neighbor edge: plain deletion",
                 _scan_k14, _by_roles("v", {"": ((), 19)}), degree=5, triangles=(5,)),
    CatalogEntry("K15", "5-vertex, four triangles + 4-face: close the gap",
                 _scan_k15, _by_roles("v", dict.fromkeys(
                     ("low_neighbor", "two_fives", "saturated_six"), ((("v5", "v1"),), 19))),
                 degree=5, triangles=(4,)),
    CatalogEntry("K16", "5-vertex, four triangles + big face: close the gap",
                 _scan_k16, _by_roles("v", {
                     "two_fours": ((("v1", "v5"),), 18),
                     **dict.fromkeys(("three_fives", "four_plus_five"),
                                     ((("v1", "v5"),), 19))}),
                 degree=5, triangles=(4,)),
    CatalogEntry("K17", "5-vertex, four triangles + big face, doubled edge",
                 _scan_k17, _by_roles("v", dict.fromkeys(
                     ("one_four", "two_fives"), ((("v5", "v1"),), 19))),
                 degree=5, triangles=(4,)),
    CatalogEntry("K18", "6-vertex, five triangles + 4-face family",
                 _scan_k18, _spec_k18, degree=6, triangles=(5,)),
    CatalogEntry("K19", "6-vertex, five triangles + big face family",
                 _scan_k19, _by_roles("v", {
                     **dict.fromkeys(("a", "b", "c"), (_FAN_FROM_V1, 19)),
                     **dict.fromkeys(("d", "e"),
                                     ((("v4", "v2"), ("v4", "v6"), ("v1", "v6")), 19))}),
                 degree=6, triangles=(5,)),
    CatalogEntry("K20", "6-vertex, four triangles + two 4-faces family",
                 _scan_k20, _by_roles("v", {
                     f"{case}/{kind}": (pairs, 19)
                     for case, pairs in (
                         ("near", (("v1", "v2"), ("v2", "v3"), ("v3", "v5"), ("v5", "v1"))),
                         ("mid", (("v1", "v2"), ("v3", "v4"), ("v3", "v5"), ("v5", "v1"))),
                         ("far", (("v1", "v2"), ("v4", "v5"), ("v1", "v3"), ("v3", "v5"))))
                     for kind in ("one_four", "doubled")}),
                 degree=6, triangles=(4,)),
    CatalogEntry("K21", "3-vertex between a 4-face and a big face at a 6-vertex",
                 _scan_k21, _by_roles("v2", {
                     "flank_first": ((("v1", "y"),), 17),
                     "flank_third": ((("v3", "x"), ("v3", "y")), 17)}),
                 degree=6, triangles=(4,)),
    CatalogEntry("K22", "3-vertex between two big faces at a 6-vertex",
                 _scan_k22, _by_roles("v2", {
                     "flank_first": ((("v1", "y"), ("v1", "z")), 18),
                     "flank_third": ((("v3", "y"), ("v3", "z")), 18)}),
                 degree=6, triangles=(4,)),
    CatalogEntry("K23", "5-face with two 3-vertices",
                 _scan_k23, _by_roles("v1", {"": ((("v2", "v4"), ("v4", "v6")), 18)}),
                 degree=3, reads_five_faces=True),
    CatalogEntry("K24", "5-face with a 3-vertex and a 4-vertex",
                 _scan_k24, _by_roles("v1", {"": ((("v2", "v4"), ("v4", "v6")), 18)}),
                 degree=3, reads_five_faces=True),
)

_BY_ID = {e.config_id: e for e in CATALOG}


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

class _EntryIndex:
    """The vertices at which one catalog entry may match on a live context.

    Every entry is anchored at a vertex its gate admits, the center of each
    match its scan yields there. `anchors` is sorted, without repeats, and
    lists every live vertex outside `dirty` whose degree and triangle count
    fit and whose scan matches; it starts as every vertex of a degree in
    `fit`, unscanned, and may list stale ones. `fit` holds the degrees some
    triangle count fits: a step marks a vertex dirty by its degree alone,
    since its triangle count changes only when the step touches it. Where
    the gate admits any count, the degree is the whole gate, and no count
    is read (a step drops the counts it may change, so a read can cost a
    recount).
    """

    __slots__ = ("entry", "fit", "anchors", "dirty")

    def __init__(self, ctx: _Ctx, entry: CatalogEntry):
        self.entry = entry
        self.fit = {d for d in range(7) if any(entry.fits(d, t) for t in range(d + 1))}
        self.anchors = sorted(v for v, d in ctx.deg.items() if d in self.fit)
        self.dirty: set[int] = set()

    def reached(self, ctx: _Ctx) -> Iterator[tuple[int, list]]:
        """List the dirty vertices, then yield each listed one that matches,
        with `_found` there. One that is gone, no longer fits or yields nothing
        is dropped, each run of them by one slice deletion before the next yield."""
        anchors, fit, deg, m3, entry = self.anchors, self.fit, ctx.deg, ctx.m3, self.entry
        gated = entry.triangles is not None
        for a in self.dirty:
            i = bisect_left(anchors, a)
            if i == len(anchors) or anchors[i] != a:
                anchors.insert(i, a)
        self.dirty.clear()
        i = keep = 0  # anchors[keep:i] are dropped
        while i < len(anchors):
            a = anchors[i]
            i += 1
            if ((d := deg.get(a)) in fit and (not gated or entry.fits(d, m3[a]))
                    and (found := _found(ctx, entry, a))):
                del anchors[keep:i - 1]
                i = keep = keep + 1
                yield a, found
        del anchors[keep:]


def _found(ctx: _Ctx, entry: CatalogEntry, a: int) -> list:
    """The (variant, roles, values) of each match at a, sorted. A scan yields
    the same sorted role tuple for every match of one variant, so this is the
    order of (variant, bindings), and a match's bindings are built, with one
    zip, only when it is handed out."""
    found = list(entry.scan(ctx, a))
    if len(found) > 1:
        found.sort()
    return found


def detect_iter(ctx: _Ctx, catalog=None) -> Iterator[ConfigurationMatch]:
    """Matches in priority order: catalog position, then center, variant and bindings.

    An entry's index on the context is built, or its dirty vertices listed,
    only when iteration reaches it, and a listed vertex is scanned only when
    iteration reaches it and fits the entry's gate, so taking the first
    match costs the entries before it and the scans of the vertices listed
    in front of the anchor that fires. Iteration drops stale vertices from
    the lists, so only one detection may run on a context at a time, and
    the context must not change while it runs.
    """
    for entry in (catalog or CATALOG):
        idx = ctx.index.get(entry)
        if idx is None:
            idx = ctx.index[entry] = _EntryIndex(ctx, entry)
            ctx.routes = None
        if not (idx.anchors or idx.dirty):
            continue
        for a, found in idx.reached(ctx):
            for variant, roles, values in found:
                yield ConfigurationMatch(entry.config_id, a, tuple(zip(roles, values)), variant)


def _entries_by_gate(catalog) -> list[list[tuple[CatalogEntry, ...]]]:
    """Per degree d and triangle count t, 0..6 each, the entries whose gate
    a vertex with them fits: [d][t]."""
    return [[tuple(e for e in catalog if e.fits(d, t)) for t in range(7)] for d in range(7)]


_CATALOG_BY_GATE = _entries_by_gate(CATALOG)


def _scans(ctx: _Ctx, catalog):
    """In the context's vertex order, each vertex with the entries whose
    gate it fits: the one pass of `detect_all` and `match_count`, which
    build no index."""
    by_gate = _entries_by_gate(catalog) if catalog else _CATALOG_BY_GATE
    deg = ctx.deg
    return zip(deg, map(getitem, map(by_gate.__getitem__, deg.values()),
                        map(ctx.m3.__getitem__, deg)))


def detect_all(g: EmbeddedGraph, catalog=None) -> list[ConfigurationMatch]:
    """Every match of g in `detect_iter`'s order, on one context: the anchors
    that match in one pass over the vertices (`_scans`) are sorted by
    catalog position, then center; each anchor's matches are sorted by
    variant, then bindings."""
    ctx = _Ctx(g)
    rank = {e: i for i, e in enumerate(catalog or CATALOG)}
    hits = sorted((rank[e], v, e.config_id, found)
                  for v, entries in _scans(ctx, catalog) for e in entries
                  if (found := _found(ctx, e, v)))
    return [ConfigurationMatch(config_id, v, tuple(zip(roles, values)), variant)
            for _, v, config_id, found in hits for variant, roles, values in found]


def match_count(ctx: _Ctx, catalog=None) -> int:
    """len(detect_all) of the context's graph, counted in the same pass
    without building a match: nothing is zipped, sorted or indexed."""
    return sum(1 for v, entries in _scans(ctx, catalog) for e in entries
               for _ in e.scan(ctx, v))


def detect(g: EmbeddedGraph, catalog=None) -> Optional[ConfigurationMatch]:
    """The first match of g in `detect_iter`'s order, on one context."""
    return next(detect_iter(_Ctx(g), catalog), None)


def build_plan_spec(ctx: _Ctx, match: ConfigurationMatch) -> ReductionPlan:
    """The raw plan for a match, before validation."""
    return _BY_ID[match.config_id].build(ctx, match)
