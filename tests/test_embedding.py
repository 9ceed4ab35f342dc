import pytest

from planecolor import codec
from planecolor import generators as G
from planecolor.embedding import EmbeddedGraph, build_embedded
from planecolor.errors import (
    AsymmetricAdjacency,
    BadLabel,
    ChordAlreadyEdge,
    CrossingChords,
    DanglingVertexId,
    EndpointNotOnFace,
    LoopEdge,
    ParallelEdge,
)


def test_k2_single_edge():
    g = build_embedded(2, [[1], [0]])
    assert g.vertex_count == 2 and g.edge_count == 1
    faces = g.faces()
    assert len(faces) == 1
    assert faces[0].degree == 2
    assert faces[0].anomalous


def test_octahedron_counts():
    g = G.octahedron()
    assert (g.vertex_count, g.edge_count, g.face_count()) == (6, 12, 8)
    assert g.euler_characteristic() == 2
    assert all(f.degree == 3 for f in g.faces())


def test_asymmetric_rotation_rejected():
    with pytest.raises(AsymmetricAdjacency) as exc:
        build_embedded(2, [[1], []])  # 0 lists 1, 1 does not list 0
    assert exc.value.dart == (0, 1)


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        build_embedded(2, [[0, 1], [0]])


def test_parallel_edge_rejected():
    with pytest.raises(ParallelEdge):
        build_embedded(2, [[1, 1], [0, 0]])


def test_dangling_id_rejected():
    with pytest.raises(DanglingVertexId):
        build_embedded(2, [[1, 5], [0]])


@pytest.mark.parametrize("labels", [{9: "x"}, {0: 5}, {0: None}, {1: "b", 9: "x", 0: 5}],
                         ids=["off-the-rotation", "int", "none", "mixed"])
def test_labels_name_a_vertex_of_the_rotation_with_a_string(labels):
    # The codec's reader refuses such labels, so a graph that kept them
    # would write a document that does not read back.
    with pytest.raises(BadLabel) as exc:
        EmbeddedGraph({0: [1], 1: [0]}, labels)
    assert exc.value.vertex in (0, 9)
    g = EmbeddedGraph({0: [1], 1: [0]}, {0: "a", 1: ""})
    assert codec.read_json(codec.write_json(g)) == g


@pytest.mark.parametrize("rotations, error, dart", [
    # Within one vertex, loops and dangling ids are reported in rotation order...
    ({0: [9, 0, 1], 1: [0]}, DanglingVertexId, (0, 9)),
    ({0: [0, 9, 1], 1: [0]}, LoopEdge, (0, 0)),
    # ...before a parallel edge at that vertex,
    ({0: [1, 1, 7], 1: [0]}, DanglingVertexId, (0, 7)),
    # which names the first neighbor in rotation order that repeats.
    ({0: [2, 1, 1, 2], 1: [0], 2: [0]}, ParallelEdge, (0, 2)),
    # Vertices are checked in id order, whatever order the mapping lists them in.
    ({1: [1, 0], 0: [5, 1]}, DanglingVertexId, (0, 5)),
    ({0: [1, 1], 1: [0, 0, 1]}, ParallelEdge, (0, 1)),
    # Symmetry is checked only once every vertex passed the local checks,
    ({0: [1], 1: [2, 2], 2: [1]}, ParallelEdge, (1, 2)),
    ({0: [1], 1: [], 2: [2]}, LoopEdge, (2, 2)),
    # and reports the first dart, in vertex then rotation order, without a twin.
    ({0: [2, 1], 1: [2], 2: [1]}, AsymmetricAdjacency, (0, 2)),
    ({0: [1], 1: [2, 0], 2: []}, AsymmetricAdjacency, (1, 2)),
])
def test_first_offender_of_two_faults(rotations, error, dart):
    with pytest.raises(error) as exc:
        EmbeddedGraph(rotations)
    assert exc.value.dart == dart


def test_adjacency_queries_agree_with_rotations(corpus):
    for name, g in corpus:
        vs = g.vertices()
        for v in vs:
            ns = frozenset(g.rotation(v))
            assert type(g.neighbor_set(v)) is frozenset
            assert g.neighbor_set(v) == ns, name
            assert [u for u in vs if g.has_edge(v, u)] == sorted(ns), name
        assert not g.has_edge(max(vs) + 1, vs[0])
        assert not g.has_edge(vs[0], max(vs) + 1)


def test_large_star_constructs():
    # The symmetry check is linear in the darts; a pairwise scan of the
    # center's rotation would take about 2 * 10^8 steps here.
    n = 20000
    g = build_embedded(n + 1, [list(range(1, n + 1))] + [[0]] * n)
    assert (g.degree(0), g.edge_count) == (n, n)
    assert g.has_edge(n, 0) and g.has_edge(0, n)


def test_cube_faces_all_squares():
    g = G.cube()
    assert len(g.faces()) == 6
    assert all(f.degree == 4 for f in g.faces())


def test_icosahedron_faces_all_triangles():
    g = G.icosahedron()
    assert len(g.faces()) == 20
    assert all(f.degree == 3 for f in g.faces())


def test_tri_grid_patch_faces():
    g = G.tri_grid(3, 3)
    degrees = sorted(f.degree for f in g.faces())
    assert degrees == [3] * 8 + [8]
    assert g.euler_characteristic() == 2


def test_vertex_stats_platonic():
    ico = G.icosahedron()
    for v in ico.vertices():
        st = ico.vertex_stats(v)
        assert (st.degree, st.m3, st.n5) == (5, 5, 5)
        assert st.n3 == st.n4 == st.n6 == 0
    cube = G.cube()
    st = cube.vertex_stats(0)
    assert (st.degree, st.m3, st.m4) == (3, 0, 3)
    octa = G.octahedron()
    st = octa.vertex_stats(2)
    assert (st.degree, st.m3, st.n4) == (4, 4, 4)


def test_stats_partition_invariants(corpus):
    face_degree = {}
    for name, g in corpus:
        if g.vertex_count > 60:
            continue
        face_degree = {f.id: f.degree for f in g.faces()}
        for v in g.vertices():
            st = g.vertex_stats(v)
            proper_faces = {fid for fid in st.incident_faces if face_degree[fid] >= 3}
            assert st.m3 + st.m4 + st.m5plus == len(proper_faces)
            if g.max_degree() <= 6:
                assert st.n3 + st.n4 + st.n5 + st.n6 <= st.degree


def test_distance2_path():
    g = G.path(3)
    assert g.distance2_neighborhood(0) == {1, 2}


def test_distance2_grid_center():
    g = G.square_grid(5, 5)
    center = 2 * 5 + 2
    assert len(g.distance2_neighborhood(center)) == 12


def test_distance2_diameter_two():
    g = G.octahedron()
    for v in g.vertices():
        assert g.distance2_neighborhood(v) == set(g.vertices()) - {v}


def test_face_degree_sum_is_twice_edges(corpus):
    for name, g in corpus:
        assert sum(f.degree for f in g.faces()) == 2 * g.edge_count, name


def test_euler_holds_on_corpus(corpus):
    for name, g in corpus:
        assert g.is_connected(), name
        assert g.euler_characteristic() == 2, name


def test_delete_vertex_octahedron():
    g = G.octahedron()
    g2, merged = g.delete_vertex(0)
    assert (g2.vertex_count, g2.edge_count, g2.face_count()) == (5, 8, 5)
    assert g2.euler_characteristic() == 2
    assert merged is not None and merged.degree == 4


def test_delete_vertex_k2():
    g = build_embedded(2, [[1], [0]])
    g2, merged = g.delete_vertex(1)
    assert g2.vertex_count == 1 and g2.edge_count == 0
    assert merged is None


def test_delete_vertex_c4():
    g = G.cycle(4)
    g2, merged = g.delete_vertex(0)
    assert g2.vertex_count == 3 and g2.edge_count == 2
    assert len(g2.faces()) == 1
    assert merged == g2.faces()[0]


def test_delete_vertex_edge_drop(corpus):
    for name, g in corpus[:40]:
        v = max(g.vertices(), key=g.degree)
        g2, _ = g.delete_vertex(v)
        assert g2.edge_count == g.edge_count - g.degree(v), name
        for comp in g2.connected_components():
            sub = EmbeddedGraph({u: [w for w in g2.neighbors(u) if w in comp]
                                 for u in comp})
            if sub.edge_count:
                assert sub.euler_characteristic() == 2


def test_add_chord_c4():
    g = G.cycle(4)
    face = g.faces()[0]
    g2 = g.add_chords(face, [(0, 2)])
    assert g2.edge_count == 5
    assert g2.face_count() == g.face_count() + 1
    assert sorted(f.degree for f in g2.faces()) == [3, 3, 4]


def test_add_chord_fan_c5():
    g = G.cycle(5)
    face = g.faces()[0]
    g2 = g.add_chords(face, [(0, 2), (0, 3)])
    assert g2.face_count() == g.face_count() + 2
    assert g2.euler_characteristic() == 2


def test_add_chord_crossing_rejected():
    g = G.cycle(5)
    face = g.faces()[0]
    with pytest.raises(CrossingChords):
        g.add_chords(face, [(0, 2), (1, 3)])


def test_add_chord_already_edge():
    g = G.cycle(4)
    with pytest.raises(ChordAlreadyEdge):
        g.add_chords(g.faces()[0], [(0, 1)])


def test_add_chord_endpoint_off_face():
    g = G.cycle(4)
    with pytest.raises(EndpointNotOnFace):
        g.add_chords(g.faces()[0], [(0, 9)])


def test_immutability_of_surgery():
    g = G.cycle(4)
    before = g.rotation_map()
    g.delete_vertex(0)
    g.add_chords(g.faces()[0], [(0, 2)])
    assert g.rotation_map() == before
