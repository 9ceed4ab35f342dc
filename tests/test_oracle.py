import pytest

from planecolor import generators as G
from planecolor.configurations import _Ctx
from planecolor.embedding import build_embedded
from planecolor.errors import Infeasible, TooLarge, VertexSetMismatch
from planecolor.oracle import chi2_exact, distances_le2, is_proper_wrt
from planecolor.reductions import apply_plan, detect, plan
from planecolor.squares import verify_coloring


def test_distances_p4():
    g = G.path(4)
    assert distances_le2(g) == {frozenset(p) for p in
                                [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]}


def test_distances_c6():
    assert len(distances_le2(G.cycle(6))) == 12


def test_distances_k1():
    assert distances_le2(build_embedded(1, [()])) == frozenset()


def test_chi2_c5():
    assert chi2_exact(G.cycle(5)).chi2 == 5


def test_chi2_octahedron():
    assert chi2_exact(G.octahedron()).chi2 == 6


def test_chi2_icosahedron():
    # The square graph pairs only antipodes as non-neighbors: six classes.
    result = chi2_exact(G.icosahedron())
    assert result.chi2 == 6
    assert verify_coloring(G.icosahedron(), result.witness).valid
    assert result.witness.colors_used == 6


def test_chi2_cube():
    assert chi2_exact(G.cube()).chi2 == 4


def test_chi2_path():
    assert chi2_exact(G.path(4)).chi2 == 3


def test_chi2_witness_uses_exactly_chi2_colors(small_corpus):
    for name, g in small_corpus[:25]:
        result = chi2_exact(g)
        assert result.witness.colors_used == result.chi2, name
        assert verify_coloring(g, result.witness).valid, name


def test_chi2_too_large():
    with pytest.raises(TooLarge):
        chi2_exact(G.square_grid(5, 5))


def test_chi2_node_budget():
    # C7 squared: clique bound 3 but chromatic number 4, so search must run.
    with pytest.raises(TooLarge):
        chi2_exact(G.cycle(7), node_cap=0)


def test_chi2_infeasible():
    with pytest.raises(Infeasible) as exc:
        chi2_exact(G.octahedron(), upper_bound=5)
    assert exc.value.chi2 == 6


def _chi2_by_enumeration(g, cap=8):
    """Smallest k admitting a distance-2 coloring, by trying every assignment."""
    from itertools import product
    verts = sorted(g.vertices())
    pairs = [tuple(sorted(p)) for p in distances_le2(g)]
    for k in range(1, cap + 1):
        for assignment in product(range(k), repeat=len(verts)):
            colors = dict(zip(verts, assignment))
            if all(colors[u] != colors[w] for u, w in pairs):
                return k
    return None


def test_chi2_agrees_with_exhaustive_enumeration():
    cases = [G.path(5), G.cycle(4), G.cycle(6), G.cycle(7),
             G.platonic("tetrahedron"), G.square_grid(2, 3), G.tri_grid(2, 3)]
    cases += [G.random_planar(n, seed) for n, seed in
              [(5, 1), (6, 2), (7, 3), (8, 4), (8, 5), (7, 6)]]
    for g in cases:
        assert chi2_exact(g).chi2 == _chi2_by_enumeration(g)


def test_proper_c4_reduction():
    g = G.cycle(4)
    ctx = _Ctx(g)
    apply_plan(ctx, plan(ctx, detect(g)))
    g2 = ctx.to_graph()
    ok, witness = is_proper_wrt(g, g2)
    assert ok and witness is None


def test_improper_bare_deletion():
    g = G.cycle(5)
    g2, _ = g.delete_vertex(0)
    ok, witness = is_proper_wrt(g, g2)
    assert not ok
    assert set(witness) == {1, 4}


def test_proper_cube_reduction():
    g = G.cube()
    m = detect(g)
    assert m.config_id == "K03"
    ctx = _Ctx(g)
    apply_plan(ctx, plan(ctx, m))
    g2 = ctx.to_graph()
    ok, _ = is_proper_wrt(g, g2)
    assert ok


def test_vertex_set_mismatch():
    g = G.cycle(4)
    bigger = G.cycle(5)
    with pytest.raises(VertexSetMismatch):
        is_proper_wrt(g, bigger)
