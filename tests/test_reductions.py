import pytest

import fixtures
from planecolor import _live, embedding
from planecolor import configurations as cfg
from planecolor import discharging as dis
from planecolor import generators as G
from planecolor.configurations import CATALOG, ConfigurationMatch, ReductionPlan
from planecolor.embedding import EmbeddedGraph, build_embedded
from planecolor.errors import DegreeTooHigh, NoSafeColor, PositiveGenus
from planecolor.oracle import chi2_exact, is_proper_wrt
from planecolor.reductions import (
    apply_plan,
    color_by_reduction,
    detect,
    detect_all,
    extend,
    plan,
)
from planecolor.squares import Coloring, verify_coloring


def test_plan_c4_gives_triangle():
    g = G.cycle(4)
    p = plan(g, detect(g))
    g2 = apply_plan(g, p)
    assert (g2.vertex_count, g2.edge_count) == (3, 3)


def test_plan_c5_gives_c4():
    g = G.cycle(5)
    p = plan(g, detect(g))
    g2 = apply_plan(g, p)
    assert (g2.vertex_count, g2.edge_count) == (4, 4)
    assert all(g2.degree(v) == 2 for v in g2.vertices())


def test_plan_octahedron_drops_existing_chord():
    g = G.octahedron()
    m = next(m for m in detect_all(g) if m.config_id == "K06")
    p = plan(g, m)
    assert p.add_edges == ()  # the closing chord is already a ring edge
    g2 = apply_plan(g, p)
    assert (g2.vertex_count, g2.edge_count, g2.face_count()) == (5, 8, 5)


def test_plan_icosahedron_plain_deletion():
    g = G.icosahedron()
    m = next(m for m in detect_all(g) if m.config_id == "K13")
    p = plan(g, m)
    assert p.add_edges == ()
    g2 = apply_plan(g, p)
    ok, _ = is_proper_wrt(g, g2)
    assert ok


def test_plan_cube_light_neighbor_gains_two():
    g = G.cube()
    m = detect(g)
    p = plan(g, m)
    g2 = apply_plan(g, p)
    assert g2.vertex_count == 7
    assert g2.degree(m.binding("v1")) == 4  # lost the center, gained two chords
    assert g2.max_degree() <= 6


def test_extend_minimum_free():
    g = G.path(2)
    phi = Coloring({1: 1}, 20)
    assert extend(g, phi, 0) == 2


def test_extend_skips_blocked_prefix():
    # Six blocked colors within distance two: the seventh is the answer.
    g = build_embedded(7, [[1], [0, 2, 3, 4, 5, 6]] + [[1]] * 5)
    phi = Coloring({v: v for v in range(1, 7)}, 20)
    assert extend(g, phi, 0) == 7


def test_extend_empty_forbidden():
    g = build_embedded(1, [()])
    assert extend(g, Coloring({}, 20), 0) == 1


def test_extend_no_safe_color():
    # A star center within distance 2 of 20 distinctly colored leaves... use
    # a two-level tree: 4 branches x 5 leaves, all within distance two of root.
    rot = {0: [1, 2, 3, 4]}
    nxt = 5
    for b in (1, 2, 3, 4):
        rot[b] = [0]
        for _ in range(5):
            rot[b].append(nxt)
            rot[nxt] = [b]
            nxt += 1
    g = build_embedded(nxt, [rot[i] for i in range(nxt)])
    colors = {}
    c = 1
    for v in sorted(g.distance2_neighborhood(0)):
        colors[v] = c
        c += 1
    phi = Coloring(colors, 24)
    with pytest.raises(NoSafeColor) as exc:
        extend(g, phi, 0, bound=None)
    assert exc.value.witness["vertex"] == 0


def test_extend_bound_violation_is_loud():
    from planecolor.errors import ForbiddenBoundExceeded
    g = build_embedded(4, [[1, 2, 3], [0], [0], [0]])
    phi = Coloring({1: 1, 2: 2, 3: 3}, 20)
    with pytest.raises(ForbiddenBoundExceeded):
        extend(g, phi, 0, bound=2, source="test")


def test_plan_rejects_degree_overflow(monkeypatch):
    from planecolor import configurations as cfg
    from planecolor.configurations import ReductionPlan
    from planecolor.errors import PlanInvalid

    g = G.tri_grid(3, 3)
    m = detect(g)
    # Overload a full-degree vertex with an extra chord.
    center = next(v for v in g.vertices() if g.degree(v) == 6)
    far = next(v for v in g.vertices()
               if v not in (center, m.binding("v")) and not g.has_edge(center, v))
    monkeypatch.setattr(cfg, "build_plan_spec",
                        lambda graph, match: ReductionPlan(m.binding("v"), ((center, far),),
                                                           match.config_id, 19))
    with pytest.raises(PlanInvalid) as exc:
        plan(g, m)
    assert exc.value.reason == "DegreeOverflow"


def test_color_c5_exactly_five():
    g = G.cycle(5)
    result = color_by_reduction(g)
    assert result.coloring.colors_used == 5
    assert verify_coloring(g, result.coloring).valid
    assert not result.fallback


def test_color_octahedron_exactly_six():
    result = color_by_reduction(G.octahedron())
    assert result.coloring.colors_used == 6


def test_color_icosahedron_within_palette():
    g = G.icosahedron()
    result = color_by_reduction(g)
    assert verify_coloring(g, result.coloring).valid
    assert result.coloring.colors_used <= 20
    assert chi2_exact(g).chi2 == 6


def test_color_rejects_high_degree():
    star = build_embedded(8, [[1, 2, 3, 4, 5, 6, 7]] + [[0]] * 7)
    with pytest.raises(DegreeTooHigh):
        color_by_reduction(star)


_K01 = ConfigurationMatch("K01", 1, (("v", 1), ("v1", 0)))


@pytest.mark.parametrize("call", [
    cfg.detect, cfg.detect_all, lambda g: list(cfg.detect_iter(g)), cfg.match_count,
    lambda g: plan(g, _K01), lambda g: cfg.build_plan_spec(g, _K01),
    lambda g: apply_plan(g, ReductionPlan(1, (), "K01", 6)),
    dis.initial_charges, dis.apply_rules, dis.audit, color_by_reduction,
], ids=["detect", "detect_all", "detect_iter", "match_count", "plan", "build_plan_spec",
        "apply_plan", "initial_charges", "apply_rules", "audit", "color_by_reduction"])
def test_every_entry_rejects_high_degree_before_tracing(call, monkeypatch):
    def no_trace(rot):
        raise AssertionError("faces traced before the degree check")

    monkeypatch.setattr(embedding, "trace_faces", no_trace)
    monkeypatch.setattr(_live, "trace_faces", no_trace)
    star = build_embedded(8, [[1, 2, 3, 4, 5, 6, 7]] + [[0]] * 7)
    with pytest.raises(DegreeTooHigh) as exc:
        call(star)
    assert (exc.value.vertex, exc.value.degree) == (0, 7)


def test_color_single_vertex_and_empty():
    assert color_by_reduction(build_embedded(1, [()])).coloring.assignment == {0: 1}
    assert color_by_reduction(build_embedded(0, [])).coloring.assignment == {}


def test_trace_records_strict_measure_decrease():
    g = G.tri_grid(3, 3)
    result = color_by_reduction(g)
    assert len(result.steps) == g.vertex_count - 1
    deleted = [s.deleted for s in result.steps]
    assert len(set(deleted)) == len(deleted)
    assert all(s.color is not None and s.forbidden_size is not None
               for s in result.steps)


def test_fallback_engages_with_crippled_catalog():
    crippled = [e for e in CATALOG if e.config_id not in ("K02",)]
    g = G.cycle(6)
    result = color_by_reduction(g, catalog=tuple(crippled))
    assert result.fallback
    assert result.fallback_witness is not None
    assert verify_coloring(g, result.coloring).valid


def test_fixture_graphs_color_end_to_end():
    for fx in fixtures.ALL_FIXTURES:
        g, _, _ = fx()
        result = color_by_reduction(g)
        assert not result.fallback, fx.__name__
        assert verify_coloring(g, result.coloring).valid, fx.__name__
        assert result.max_forbidden <= 19


def test_soundness_of_all_matches_on_fixtures():
    from planecolor.errors import PlanInvalid
    for fx in fixtures.ALL_FIXTURES:
        g, _, _ = fx()
        for m in detect_all(g):
            try:
                p = plan(g, m)
            except PlanInvalid:
                continue
            g2 = apply_plan(g, p)
            ok, witness = is_proper_wrt(g, g2)
            assert ok, (fx.__name__, m.config_id, m.variant, witness)


def test_reversed_priority_still_colors_validly():
    # Deep entries get picked first, so their plans run inside real
    # recursions instead of only in isolation.
    reversed_catalog = tuple(reversed(CATALOG))
    cases = [fx()[0] for fx in fixtures.ALL_FIXTURES]
    cases += [G.random_planar(8 + (s * 29) % 40, s + 31) for s in range(20)]
    cases += [G.tri_grid(6, 6), G.icosahedron()]
    for g in cases:
        result = color_by_reduction(g, catalog=reversed_catalog)
        assert not result.fallback
        assert result.max_forbidden <= 19
        assert verify_coloring(g, result.coloring).valid


def toroidal_k7():
    """K7 on the torus: every face a triangle, Euler characteristic 0."""
    return EmbeddedGraph({i: [(i + d) % 7 for d in (1, 3, 2, 6, 4, 5)] for i in range(7)})


def grid_with_reversed_rotation():
    """tri_grid 5x5 with one interior rotation reversed: Euler characteristic -2."""
    g = G.tri_grid(5, 5)
    v = next(v for v in g.vertices() if g.degree(v) == 6)
    rot = g.rotation_map()
    rot[v] = tuple(reversed(rot[v]))
    return EmbeddedGraph(rot)


@pytest.mark.parametrize("make, euler", [(toroidal_k7, 0), (grid_with_reversed_rotation, -2)])
def test_color_rejects_positive_genus(make, euler):
    g = make()
    assert g.euler_characteristic() == euler
    with pytest.raises(PositiveGenus):
        color_by_reduction(g)


def test_color_accepts_isolated_vertices():
    # An isolated vertex traces no face but is plane: V - E + F = 2C - 1.
    g = build_embedded(4, [(1, 2), (2, 0), (0, 1), ()])
    result = color_by_reduction(g)
    assert not result.fallback
    assert verify_coloring(g, result.coloring).valid


def test_plan_ignores_an_isolated_vertex_elsewhere():
    # The chord check counts V - E + F + I - 2C around the hole only, so a
    # vertex far from it, isolated or not, cannot change the verdict.
    c5 = G.cycle(5)
    with_isolated = build_embedded(6, [c5.rotation(v) for v in c5.vertices()] + [()])
    m = next(m for m in detect_all(c5) if m.config_id == "K02")
    p = plan(c5, m)
    assert p.add_edges == ((1, 4),)
    assert plan(with_isolated, m) == p
