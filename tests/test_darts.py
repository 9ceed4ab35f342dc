"""The integer dart kernel numbers, starts and walks faces as the tuple trace did.

The reference below is the face tracer the package used before the kernel:
darts are (tail, head) pairs, each next dart is found with `index`, a walk
starts at its first dart in vertex and rotation order, and faces are numbered
by their smallest (tail, head) pair, which compares heads by id, not by
rotation position. A fresh engine context and `EmbeddedGraph.faces` must
agree with it on every face id, walk start and walk, and every dart must
point at its face.
"""

import random

import pytest

from planecolor import generators as G
from planecolor.configurations import _Ctx
from planecolor.embedding import EmbeddedGraph, build_embedded


def reference_walks(seeds, rotation, seen: set) -> list[list[tuple[int, int]]]:
    """Face walks through the seed darts not yet in `seen`, under `rotation(v)`."""
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


def reference_faces(rot) -> list[tuple[tuple[int, int], ...]]:
    """Every face's darts, listed by face id."""
    walks = reference_walks([(v, u) for v, ns in rot.items() for u in ns], rot.__getitem__, set())
    walks.sort(key=min)
    return [tuple(w) for w in walks]


def relabel(g: EmbeddedGraph, seed: int) -> EmbeddedGraph:
    old = list(g.vertices())
    new = old[:]
    random.Random(seed).shuffle(new)
    to = dict(zip(old, new))
    return EmbeddedGraph({to[v]: [to[u] for u in g.rotation(v)] for v in old})


def _graphs(corpus):
    graphs = [g for _, g in corpus]
    graphs += [relabel(g, i) for i, (_, g) in enumerate(corpus[::3])]
    graphs += [
        build_embedded(2, [(), ()]),  # isolated vertices only
        build_embedded(4, [(1, 2), (2, 0), (0, 1), ()]),  # a triangle and an isolated vertex
        build_embedded(6, [(1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4)]),  # two triangles
        build_embedded(5, [(), (3,), (), (1, 4), (3,)]),  # a path between isolated vertices
        relabel(EmbeddedGraph({**G.tri_grid(3, 3).rotation_map(), 100: (), 101: (102,),
                               102: (101,)}), 7),
    ]
    return graphs


def test_fresh_context_numbers_faces_as_the_reference(corpus):
    checked = 0
    for g in _graphs(corpus):
        rot = g.rotation_map()
        ref = reference_faces(rot)
        ctx = _Ctx(g)
        assert ctx.faces == {f: tuple(a for a, _ in darts) for f, darts in enumerate(ref)}
        assert ctx.fdeg == [len(darts) for darts in ref]
        for f, darts in enumerate(ref):
            for a, b in darts:
                assert ctx.face[ctx.off[a] + rot[a].index(b)] == f, (a, b)
        assert [face.boundary for face in g.faces()] == ref
        checked += len(ref)
    assert checked > 9000


def test_ids_follow_vertex_and_rotation_position():
    g = relabel(G.random_planar(60, 3), 5)
    ctx = _Ctx(g)
    darts = [(v, u) for v in sorted(g.vertices()) for u in g.rotation(v)]
    ids = [ctx.off[v] + g.rotation(v).index(u) for v, u in darts]
    assert ids == sorted(ids)
    for walk in ctx.faces.values():  # each walk starts at its smallest dart
        pairs = list(zip(walk, walk[1:] + walk[:1]))
        assert darts.index(pairs[0]) == min(map(darts.index, pairs))


@pytest.mark.parametrize("n", [7, 20000])
def test_star_traces_one_walk_in_linear_time(n):
    # The center's darts sit in one block of n slots, and each twin is found
    # through one hash, so tracing the star does not scan its rotation.
    g = build_embedded(n + 1, [list(range(1, n + 1))] + [[0]] * n)
    (face,) = g.faces()
    assert face.degree == 2 * n and face.vertex_walk()[:3] == (0, 1, 0)
    assert g.euler_defect() == 0
