"""One hand-built graph per catalog entry and variant.

Each fixture returns (graph, expected config id, expected variant or None)
and asserts the structural facts it was built to realize, so a silent
construction mistake cannot leak into the tests that consume it.
"""

from __future__ import annotations

from types import SimpleNamespace

from planecolor.embedding import EmbeddedGraph
from planecolor import generators as G

from hubs import Hub, hub_with


def _stats(g, v):
    """v's degree, and its distinct faces of size 3 (m3) and 4 (m4), read
    from the graph's own faces so that no fixture leans on the engine."""
    sizes = [f.degree for f in g.faces() if v in f.vertices()]
    return SimpleNamespace(degree=g.degree(v), m3=sizes.count(3), m4=sizes.count(4))


# -- low-degree entries ------------------------------------------------------

def fx_k01():
    g = G.path(4)
    return g, "K01", None


def fx_k02():
    g = G.cycle(6)
    return g, "K02", None


def fx_k03():
    g = G.platonic("cube")
    return g, "K03", None


def fx_k04():
    h, g = hub_with("344")
    assert _stats(g, 0).degree == 3 and _stats(g, 0).m3 == 1
    return g, "K04", None


def fx_k05():
    h, g = hub_with("445")
    assert _stats(g, 0).m4 == 2 and _stats(g, 0).m3 == 0
    return g, "K05", None


def fx_k06():
    g = G.platonic("octahedron")
    return g, "K06", None


def fx_k07_adjacent():
    h, g = hub_with("4335")
    assert _stats(g, 0).m3 == 2 and _stats(g, 0).m4 == 1
    return g, "K07", "adjacent"


def fx_k07_split():
    h, g = hub_with("4353")
    return g, "K07", "split"


def fx_k08_adjacent():
    h, g = hub_with("3355", ring_degrees=(6, 6, 5, 6))
    return g, "K08", "adjacent"


def fx_k08_split():
    h, g = hub_with("3535", ring_degrees=(6, 5, 6, 6))
    return g, "K08", "split"


def fx_k09_adjacent():
    h, g = hub_with("3355", doubled=(0,), ring_degrees=(6, 6, 6, 6))
    assert not [m for m in _k(g, "K08")], "all-6 neighbors must rule out K08"
    return g, "K09", "adjacent"


def fx_k09_split():
    h, g = hub_with("3535", doubled=(0,), ring_degrees=(6, 6, 6, 6))
    return g, "K09", "split"


def fx_k10():
    h, g = hub_with("3444")
    st = _stats(g, 0)
    assert st.m3 == 1 and st.m4 == 3
    return g, "K10", None


def fx_k11_one_quad():
    h, g = hub_with("3455", ring_degrees=(6, 6, 4, 6))
    return g, "K11", "m4=1"


def fx_k11_two_quads():
    h, g = hub_with("3445", ring_degrees=(6, 6, 4, 6))
    return g, "K11", "m4=2"


def fx_k12_m4_2():
    h, g = hub_with("3445", ring_degrees=(5, 6, 5, 6))
    return g, "K12", "m4=2"


def fx_k12_m4_1_near():
    h, g = hub_with("3455", ring_degrees=(6, 6, 5, 5))
    return g, "K12", "m4=1 near"


def fx_k12_m4_1_far():
    h, g = hub_with("3545", ring_degrees=(6, 5, 6, 5))
    return g, "K12", "m4=1 far"


# -- 5-vertex entries --------------------------------------------------------

def fx_k13():
    h, g = hub_with("33333", ring_degrees=(5, 6, 6, 6, 6))
    assert _stats(g, 0).m3 == 5
    return g, "K13", None


def fx_k14():
    h, g = hub_with("33333", doubled=(0,), ring_degrees=(6, 6, 6, 6, 6))
    assert not _k(g, "K13")
    return g, "K14", None


def fx_k15_low_neighbor():
    h, g = hub_with("33334", ring_degrees=(6, 6, 4, 6, 6))
    return g, "K15", "low_neighbor"


def fx_k15_two_fives():
    h, g = hub_with("33334", ring_degrees=(5, 6, 5, 6, 6))
    return g, "K15", "two_fives"


def fx_k15_saturated_six():
    # Ring vertex 3 becomes a 6-vertex whose every corner is a triangle.
    h = Hub("33334")
    d1 = h.double_fan(1)
    d2 = h.double_fan(2)
    e = h.attach_triangle(d1, 3)
    h.pad_ring([6, 6, 6, 6, 6])
    g = h.graph(chords=[(e, d2)])
    st = _stats(g, 3)
    assert st.degree == 6 and st.m3 == 6, (st.degree, st.m3)
    return g, "K15", "saturated_six"


def fx_k16_two_fours():
    h, g = hub_with("33335", ring_degrees=(4, 6, 4, 6, 6))
    return g, "K16", "two_fours"


def fx_k16_three_fives():
    h, g = hub_with("33335", ring_degrees=(5, 6, 5, 6, 5))
    return g, "K16", "three_fives"


def fx_k16_four_plus_five():
    h, g = hub_with("33335", ring_degrees=(4, 6, 5, 6, 6))
    return g, "K16", "four_plus_five"


def fx_k17_one_four():
    h, g = hub_with("33335", doubled=(1,), ring_degrees=(4, 6, 6, 6, 6))
    assert not _k(g, "K16")
    return g, "K17", "one_four"


def fx_k17_two_fives():
    h, g = hub_with("33335", doubled=(1,), ring_degrees=(5, 6, 6, 5, 6))
    return g, "K17", "two_fives"


# -- 6-vertex entries --------------------------------------------------------

def fx_k18_a():
    h, g = hub_with("333334", ring_degrees=(4, 5, 6, 6, 5, 4))
    return g, "K18", "a"


def fx_k18_b():
    h, g = hub_with("333334", ring_degrees=(4, 5, 5, 5, 5, 6))
    return g, "K18", "b"


def fx_k18_c():
    h, g = hub_with("333334", doubled=(2,), ring_degrees=(4, 5, 5, 5, 6, 6))
    return g, "K18", "c"


def fx_k18_d():
    h, g = hub_with("333334", ring_degrees=(5, 5, 5, 5, 5, 5))
    return g, "K18", "d"


def fx_k18_e():
    h, g = hub_with("333334", doubled=(2,), ring_degrees=(5, 6, 5, 5, 5, 5))
    return g, "K18", "e"


def fx_k18_f_laterals():
    h = Hub("333334")
    h.double_fan(1)
    h.double_fan(2)
    h.pad_ring([6, 5, 5, 5, 5, 6])
    g = h.graph()
    assert _stats(g, 3).m3 == 4
    return g, "K18", "f"


def fx_k18_f_outer():
    # One lateral triangle on the far fan edge plus an outer triangle on it.
    h = Hub("333334")
    t = h.double_fan(2)
    h.attach_triangle(3, t)
    h.pad_ring([6, 5, 5, 5, 5, 6])
    g = h.graph()
    assert _stats(g, 3).m3 == 4 and _stats(g, 3).degree == 5
    return g, "K18", "f"


def fx_k18_g():
    h, g = hub_with("333334", doubled=(2, 3), ring_degrees=(6, 6, 5, 5, 5, 5))
    return g, "K18", "g3"


def fx_k18_h_last():
    # Light vertices at ring positions 4, 5, 6; position-6 vertex carries
    # four triangles built around the 4-face gadget.
    h = Hub("333334")
    x = h.chains[5][0]
    d = h.double_fan(4)
    c = h.attach_triangle(6, x)
    h.pad_ring([6, 6, 6, 5, 5, 5])
    g = h.graph(chords=[(d, c)])
    st = _stats(g, 6)
    assert st.degree == 5 and st.m3 == 4, (st.degree, st.m3)
    return g, "K18", "h_last"


def fx_k18_h_mid():
    # Light vertices at positions 3, 4, 5; position-4 vertex carries four triangles.
    h = Hub("333334")
    h.double_fan(2)
    h.double_fan(3)
    h.pad_ring([6, 6, 5, 5, 5, 6])
    g = h.graph()
    assert _stats(g, 4).m3 == 4
    return g, "K18", "h_mid"


def fx_k18_h_triple():
    h, g = hub_with("333334", doubled=(0, 2, 4), ring_degrees=(6, 5, 6, 5, 6, 5))
    return g, "K18", "h_triple"


def fx_k19_a():
    h, g = hub_with("333335", ring_degrees=(4, 5, 5, 6, 5, 4))
    return g, "K19", "a"


def fx_k19_b():
    h, g = hub_with("333335", ring_degrees=(4, 5, 5, 5, 5, 5))
    return g, "K19", "b"


def fx_k19_c():
    h, g = hub_with("333335", doubled=(2,), ring_degrees=(4, 5, 5, 5, 5, 6))
    return g, "K19", "c"


def fx_k19_d():
    h, g = hub_with("333335", doubled=(2,), ring_degrees=(5, 5, 5, 5, 5, 5))
    return g, "K19", "d"


def fx_k19_e():
    h, g = hub_with("333335", doubled=(1, 3), ring_degrees=(6, 5, 5, 5, 5, 5))
    return g, "K19", "e"


def fx_k20_near():
    h, g = hub_with("443333", ring_degrees=(4, 5, 5, 5, 5, 5))
    return g, "K20", "near/one_four"


def fx_k20_mid():
    h, g = hub_with("434333", ring_degrees=(5, 5, 4, 5, 5, 5))
    return g, "K20", "mid/one_four"


def fx_k20_far():
    h, g = hub_with("433433", ring_degrees=(5, 5, 4, 5, 5, 5))
    return g, "K20", "far/one_four"


def fx_k20_doubled():
    h, g = hub_with("443333", doubled=(3,), ring_degrees=(5, 5, 5, 5, 5, 5))
    return g, "K20", "near/doubled"


def fx_k21_flank_first():
    h, g = hub_with("453333", ring_degrees=(4, 3, 6, 6, 6, 6))
    assert _stats(g, 2).degree == 3
    return g, "K21", "flank_first"


def fx_k21_flank_third():
    h, g = hub_with("453333", ring_degrees=(6, 3, 4, 6, 6, 6))
    return g, "K21", "flank_third"


def fx_k22_flank_first():
    h, g = hub_with("553333", ring_degrees=(4, 3, 6, 6, 6, 6))
    return g, "K22", "flank_first"


def fx_k22_flank_third():
    h, g = hub_with("553333", ring_degrees=(6, 3, 4, 6, 6, 6))
    return g, "K22", "flank_third"


# -- 5-face entries ----------------------------------------------------------

def _pentagon(arm_at, extra_at):
    """Pentagon around a 5-face.

    Vertices in arm_at get a third neighbor drawn as an outer triangle on
    their forward pentagon edge (so it survives their deletion); extra_at
    adds pendants.
    """
    rot = {i: [(i - 1) % 5, (i + 1) % 5] for i in range(5)}
    nxt = 5
    for i in arm_at:
        t = nxt
        nxt += 1
        j = (i + 1) % 5
        rot[i].append(t)
        rot[j].insert(rot[j].index(i), t)
        rot[t] = [j, i]
    for i, extra in enumerate(extra_at):
        for _ in range(extra):
            rot[i].append(nxt)
            rot[nxt] = [i]
            nxt += 1
    return EmbeddedGraph(rot)


def fx_k23():
    g = _pentagon((0, 3), (0, 2, 3, 0, 2))
    assert g.degree(0) == 3 and g.degree(3) == 3
    assert any(f.degree == 5 for f in g.faces())
    return g, "K23", None


def fx_k24():
    g = _pentagon((0,), (0, 3, 3, 2, 3))
    assert g.degree(0) == 3 and g.degree(3) == 4
    return g, "K24", None


def _k(g, config_id):
    from planecolor.reductions import detect_all
    return [m for m in detect_all(g) if m.config_id == config_id]


ALL_FIXTURES = [
    fx_k01, fx_k02, fx_k03, fx_k04, fx_k05, fx_k06,
    fx_k07_adjacent, fx_k07_split,
    fx_k08_adjacent, fx_k08_split,
    fx_k09_adjacent, fx_k09_split,
    fx_k10,
    fx_k11_one_quad, fx_k11_two_quads,
    fx_k12_m4_2, fx_k12_m4_1_near, fx_k12_m4_1_far,
    fx_k13, fx_k14,
    fx_k15_low_neighbor, fx_k15_two_fives, fx_k15_saturated_six,
    fx_k16_two_fours, fx_k16_three_fives, fx_k16_four_plus_five,
    fx_k17_one_four, fx_k17_two_fives,
    fx_k18_a, fx_k18_b, fx_k18_c, fx_k18_d, fx_k18_e,
    fx_k18_f_laterals, fx_k18_f_outer, fx_k18_g,
    fx_k18_h_last, fx_k18_h_mid, fx_k18_h_triple,
    fx_k19_a, fx_k19_b, fx_k19_c, fx_k19_d, fx_k19_e,
    fx_k20_near, fx_k20_mid, fx_k20_far, fx_k20_doubled,
    fx_k21_flank_first, fx_k21_flank_third,
    fx_k22_flank_first, fx_k22_flank_third,
    fx_k23, fx_k24,
]
