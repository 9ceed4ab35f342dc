import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import euler_characteristic
from planecolor import generators as G
from planecolor.codec import write_json, write_planar_code
from planecolor.embedding import EmbeddedGraph, components
from planecolor.errors import BadParams


PLATONIC_COUNTS = {
    "tetrahedron": (4, 6, 4, 3, 3),
    "cube": (8, 12, 6, 3, 4),
    "octahedron": (6, 12, 8, 4, 3),
    "dodecahedron": (20, 30, 12, 3, 5),
    "icosahedron": (12, 30, 20, 5, 3),
}


@pytest.mark.parametrize("name", sorted(PLATONIC_COUNTS))
def test_platonic_counts(name):
    v, e, f, deg, fdeg = PLATONIC_COUNTS[name]
    g = G.platonic(name)
    assert (g.vertex_count, g.edge_count, len(g.faces())) == (v, e, f)
    assert all(g.degree(u) == deg for u in g.vertices())
    assert all(face.degree == fdeg for face in g.faces())
    assert euler_characteristic(g) == 2


def test_platonic_unknown():
    with pytest.raises(BadParams):
        G.platonic("teapot")


def test_square_grid_counts():
    g = G.square_grid(3, 4)
    assert g.vertex_count == 12
    assert g.edge_count == 3 * 3 + 4 * 2
    assert len(g.faces()) == 2 * 3 + 1
    assert euler_characteristic(g) == 2


def test_tri_grid_interior_six_vertex():
    g = G.tri_grid(4, 4)
    interior = 1 * 4 + 1  # row 1, col 1
    triangles = [f for f in g.faces() if f.degree == 3 and interior in f.vertices()]
    assert g.degree(interior) == 6 and len(triangles) == 6
    assert g.max_degree() == 6


def test_hex_grid_single_ring_is_hexagon():
    g = G.hex_grid(1)
    assert g.vertex_count == 6
    assert sorted(f.degree for f in g.faces()) == [6, 6]


def test_hex_grid_two_rings():
    g = G.hex_grid(2)
    assert g.vertex_count == 24
    inner = [f for f in g.faces() if f.degree == 6]
    assert len(inner) == 7
    assert g.max_degree() == 3


def test_cycle_two_faces():
    g = G.cycle(5)
    assert [f.degree for f in g.faces()] == [5, 5]


def test_path_single_face():
    g = G.path(5)
    assert len(g.faces()) == 1
    assert g.faces()[0].degree == 8


def test_generate_dispatch():
    g = G.generate(G.GeneratorSpec("cycle", {"n": 7}))
    assert g.vertex_count == 7
    with pytest.raises(BadParams):
        G.generate(G.GeneratorSpec("moebius", {}))
    with pytest.raises(BadParams):
        G.generate(G.GeneratorSpec("cycle", {"wheels": 4}))


def test_random_planar_reproducible_bytes():
    a = G.random_planar(40, 11)
    b = G.random_planar(40, 11)
    assert a.rotation_map() == b.rotation_map()
    assert write_planar_code([a]) == write_planar_code([b])


def test_random_planar_output_is_pinned():
    # One digest over the JSON graphs of every n = 2..120 with seeds 0..24
    # and of three larger sizes. The 10,000-vertex member is also the guard
    # that generation stays near-linear: drawn as a whole-graph search per
    # deletion attempt it takes about a minute.
    cases = [(n, s) for n in range(2, 121) for s in range(25)]
    cases += [(257, 1), (1000, 2), (10_000, 3)]
    digest = hashlib.sha256()
    for n, s in cases:
        digest.update(write_json(G.random_planar(n, s)).encode() + b"\n")
    assert digest.hexdigest() == "0dc8caffb8c6947e09cf53064310de2f46ee85c2d1ee5ad5349bb1a3a17671ef"


def test_random_planar_seeds_differ():
    blobs = {write_planar_code([G.random_planar(30, s)]) for s in range(6)}
    assert len(blobs) > 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
def test_random_planar_invariants(seed, n):
    g = G.random_planar(n, seed)
    assert g.vertex_count == n
    assert len(g.connected_components()) <= 1
    assert g.max_degree() <= 6
    assert euler_characteristic(g) == 2
    assert sorted(g.vertices()) == list(range(n))


def _windmill(blades):
    """Triangles 0, 2i+1, 2i+2 sharing vertex 0, a cut vertex, plus a pendant
    vertex on the last blade, so a bridge too."""
    tip = 2 * blades + 1
    rot = {0: tuple(range(1, tip))}
    for a in range(1, tip, 2):
        rot[a], rot[a + 1] = (0, a + 1), (a, 0)
    rot[tip - 1] += (tip,)
    rot[tip] = (tip - 1,)
    return EmbeddedGraph(rot)


def test_joined_agrees_with_components_after_every_cut():
    # The pinned digest covers only the cuts random_planar's draws tried; this
    # tries every vertex and edge of graphs with cut vertices and bridges.
    graphs = ([(f"random:{n}s{s}", G.random_planar(n, s)) for n in (2, 3, 7, 19, 40) for s in range(8)]
              + [(f"hex:{r}", G.hex_grid(r)) for r in (1, 2, 3)]
              + [(f"path:{n}", G.path(n)) for n in (2, 3, 6)]
              + [(f"windmill:{k}", _windmill(k)) for k in (1, 2, 3)])
    seen = set()
    for name, g in graphs:
        assert len(g.connected_components()) <= 1 and g.euler_defect() == 0, name
        rot = g.rotation_map()
        for v in g.vertices():
            ns = rot[v]
            undo = G._cut(rot, v, ns)
            kept = len(components({u: r for u, r in rot.items() if u != v})) == 1
            assert G._joined(rot, ns) == kept, (name, v)
            rot.update(undo)
            seen.add(("vertex", kept))
        for u, w in g.edges():
            undo = G._cut(rot, u, (w,))
            kept = len(components(rot)) == 1
            assert G._joined(rot, (u, w)) == kept, (name, u, w)
            rot.update(undo)
            seen.add(("edge", kept))
        assert rot == g.rotation_map(), name
    assert seen == {(cut, kept) for cut in ("vertex", "edge") for kept in (True, False)}


def test_bad_params():
    with pytest.raises(BadParams):
        G.cycle(2)
    with pytest.raises(BadParams):
        G.tri_grid(1, 5)
    with pytest.raises(BadParams):
        G.random_planar(1, 0)
    with pytest.raises(BadParams):
        G.hex_grid(0)
