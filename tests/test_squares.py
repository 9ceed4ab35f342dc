import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor import generators as G
from planecolor.errors import ColorOutOfPalette, PaletteExhausted
from planecolor.oracle import distances_le2
from planecolor.reductions import color_by_reduction
from planecolor.squares import (
    Coloring,
    ValidityReport,
    default_order,
    greedy_square_color,
    square,
    square_pairs,
    verify_coloring,
)


def test_square_p3_is_triangle():
    g = G.path(3)
    adj = square(g)
    assert all(adj[v] == set(g.vertices()) - {v} for v in g.vertices())


def test_square_c5_is_complete():
    g = G.cycle(5)
    adj = square(g)
    assert all(len(adj[v]) == 4 for v in g.vertices())


def test_square_c6_four_regular():
    g = G.cycle(6)
    adj = square(g)
    assert all(len(adj[v]) == 4 for v in g.vertices())
    assert len(square_pairs(g)) == 12


def test_square_matches_oracle(corpus):
    for name, g in corpus:
        if g.vertex_count > 50:
            continue
        mine = {frozenset((u, w)) for u, w in square_pairs(g)}
        assert mine == distances_le2(g), name


def test_verify_valid_c5():
    g = G.cycle(5)
    report = verify_coloring(g, Coloring({i: i + 1 for i in range(5)}, 20))
    assert report.valid and report.colors_used == 5 and not report.violations


def test_verify_invalid_c5():
    g = G.cycle(5)
    report = verify_coloring(g, Coloring({0: 1, 1: 2, 2: 1, 3: 2, 4: 3}, 20))
    assert not report.valid
    assert (0, 2, 2, 1) in report.violations


def test_verify_empty_assignment():
    g = G.cycle(5)
    report = verify_coloring(g, Coloring({}, 20))
    assert report.valid and report.colors_used == 0


def test_verify_color_out_of_palette():
    g = G.path(2)
    with pytest.raises(ColorOutOfPalette):
        verify_coloring(g, Coloring({0: 21}, 20))


def test_coloring_rejects_nonpositive():
    with pytest.raises(ColorOutOfPalette):
        Coloring({0: 0}, 20)


def test_greedy_k4():
    g = G.platonic("tetrahedron")
    phi = greedy_square_color(g, palette_size=20)
    assert phi.colors_used == 4


def test_greedy_c5():
    g = G.cycle(5)
    phi = greedy_square_color(g, order=range(5), palette_size=20)
    assert phi.colors_used == 5


def test_greedy_palette_exhausted():
    g = G.octahedron()
    with pytest.raises(PaletteExhausted):
        greedy_square_color(g, palette_size=5)


def test_greedy_requires_permutation():
    g = G.cycle(4)
    with pytest.raises(ValueError):
        greedy_square_color(g, order=[0, 1, 2])


def test_default_order_is_degree_descending():
    g = G.path(4)
    assert default_order(g)[:2] == [1, 2]


def test_greedy_output_always_valid(corpus):
    for name, g in corpus[:60]:
        phi = greedy_square_color(g, palette_size=20)
        assert verify_coloring(g, phi).valid, name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_greedy_valid_for_random_orders(seed, data):
    g = G.random_planar(14, seed % 7)
    order = data.draw(st.permutations(sorted(g.vertices())))
    phi = greedy_square_color(g, order=order, palette_size=20)
    assert verify_coloring(g, phi).valid


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 5), colors=st.lists(st.integers(1, 6), min_size=12, max_size=12))
def test_verify_agrees_with_pairwise_check(seed, colors):
    g = G.random_planar(12, seed)
    phi = Coloring({v: colors[i] for i, v in enumerate(sorted(g.vertices()))}, 20)
    report = verify_coloring(g, phi)
    clean = all(phi.get(u) != phi.get(w)
                for pair in distances_le2(g) for u, w in [tuple(pair)])
    assert report.valid == clean


def _pairwise_report(g, phi):
    """verify_coloring's report, built from every pair at distance 1 or 2."""
    violations = tuple((u, w, 1 if g.has_edge(u, w) else 2, phi.get(u))
                       for u, w in square_pairs(g)
                       if phi.get(u) is not None and phi.get(u) == phi.get(w))
    used = {phi.assignment[v] for v in g.vertices() if v in phi.assignment}
    return ValidityReport(not violations, violations, len(used))


def test_verify_report_matches_the_pairwise_reference(corpus):
    # verify_coloring checks rotations and lists pairs only on a clash; the
    # report must be the one the pairs alone give, on the engine's colorings,
    # on broken ones (one vertex takes a color within distance 2, or colors
    # drawn from three), and on partial ones of each.
    rng = random.Random(23)
    verdicts = Counter()
    for name, g in corpus:
        full = color_by_reduction(g).coloring.assignment
        vs = sorted(g.vertices())
        v = rng.choice(vs)
        near = sorted(g.distance2_neighborhood(v))
        clash = {**full, v: full[rng.choice(near)]} if near else full
        drawn = {u: rng.randint(1, 3) for u in vs}
        for colors in (full, clash, drawn):
            kept = {u: c for u, c in colors.items() if rng.random() < 0.5}
            for assignment in (colors, kept):
                phi = Coloring(assignment, 20)
                report = verify_coloring(g, phi)
                assert report == _pairwise_report(g, phi), name
                verdicts[report.valid] += 1
    assert min(verdicts.values()) > 300, verdicts
