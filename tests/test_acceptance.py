"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The corpus is the session fixture from conftest: all five platonic
solids, square/triangular grid patches up to 10x10, hexagonal patches, cycles
and paths up to n=30, and 150 seeded random planar graphs with n <= 100.
"""

import time
from fractions import Fraction

import pytest

from planecolor import codec
from planecolor import generators as G
from planecolor.configurations import _Ctx
from planecolor.discharging import apply_rules, audit, replay_ledger
from planecolor.oracle import chi2_exact, is_proper_wrt
from planecolor.reductions import apply_plan, color_by_reduction, detect_all, plan
from planecolor.squares import verify_coloring


@pytest.fixture(scope="module")
def colored(corpus):
    """Color the whole corpus once; later criteria reuse the results."""
    start = time.perf_counter()
    results = {}
    for name, g in corpus:
        results[name] = color_by_reduction(g, palette_size=20)
    elapsed = time.perf_counter() - start
    return results, elapsed


def _line(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_twenty_color_pipeline(corpus, colored):
    results, elapsed = colored
    assert len(corpus) >= 200
    failures = []
    for name, g in corpus:
        r = results[name]
        report = verify_coloring(g, r.coloring)
        if r.fallback or not report.valid or report.colors_used > 20:
            failures.append(name)
    ok = not failures and elapsed < 60.0
    _line(1, ok,
          f"{len(corpus)} graphs colored in {elapsed:.1f}s, "
          f"all valid with <= 20 colors, zero fallbacks"
          + (f"; failures: {failures[:5]}" if failures else ""))


def test_criterion_2_oracle_cross_check(corpus, colored):
    results, _ = colored
    checked = 0
    for name, g in corpus:
        if g.vertex_count > 12:
            continue
        exact = chi2_exact(g, upper_bound=20)
        used = results[name].coloring.colors_used
        assert exact.chi2 <= 20, name
        assert exact.chi2 <= used, (name, exact.chi2, used)
        checked += 1
    assert chi2_exact(G.cycle(5)).chi2 == 5
    assert chi2_exact(G.octahedron()).chi2 == 6
    assert chi2_exact(G.icosahedron()).chi2 == 6
    _line(2, True, f"chi2 exact on {checked} graphs with n <= 12; "
          f"C5=5, octahedron=6, icosahedron=6 reproduced")


def test_criterion_3_charge_conservation(corpus):
    for name, g in corpus:
        report = audit(g)
        assert report.total_initial == Fraction(-8), name
        assert report.total_final == Fraction(-8), name
        assert report.conservation_ok, name
        assert replay_ledger(report.initial, report.ledger) == report.final, name
    _line(3, True, f"sum initial = sum final = -8 exactly and ledger replays "
          f"bit-exactly on all {len(corpus)} graphs")


def test_criterion_4_instance_contradiction(corpus):
    for name, g in corpus:
        report = audit(g)
        assert report.negative_elements, name
        assert report.match_count > 0, name
    _line(4, True, f"negative element and configuration match present on "
          f"100% of {len(corpus)} graphs")


def test_criterion_5_reduction_soundness(small_corpus):
    matches_checked = 0
    for name, g in small_corpus:
        for m in detect_all(g):
            ctx = _Ctx(g)
            apply_plan(ctx, plan(ctx, m))  # criterion: every found match must plan cleanly
            g2 = ctx.to_graph()
            assert g2.max_degree() <= 6, (name, m.config_id)
            assert g2.vertex_count + g2.edge_count < g.vertex_count + g.edge_count
            ok, witness = is_proper_wrt(g, g2)
            assert ok, (name, m.config_id, m.variant, witness)
            matches_checked += 1
    _line(5, True, f"{matches_checked} matches on {len(small_corpus)} graphs "
          f"with n <= 14: all plans proper, degree-bounded, strictly smaller")


def test_criterion_6_forbidden_bound(corpus, colored):
    results, _ = colored
    worst = 0
    for name, g in corpus:
        r = results[name]
        for step in r.steps:
            assert step.forbidden_size is not None and step.forbidden_size <= 19, name
        worst = max(worst, r.max_forbidden)
    _line(6, True, f"every extension saw <= 19 forbidden colors "
          f"(worst observed: {worst})")


def test_criterion_7_rule_arithmetic_fixtures():
    from test_discharging import _pentagon_charge_fixture
    g = G.octahedron()
    final, _ = apply_rules(_Ctx(g))
    triangle_ok = all(final[("f", f.id)] == 0 for f in g.faces())

    gp, fid = _pentagon_charge_fixture()
    finalp, _ = apply_rules(_Ctx(gp))
    pentagon_ok = finalp[("f", fid)] == Fraction(2, 45)

    _line(7, triangle_ok and pentagon_ok,
          "triangle fixture final charge 0; guarded-pentagon fixture 2/45, both exact")


def test_criterion_8_io_round_trips(corpus):
    graphs = [g for _, g in corpus]
    blob = codec.write_planar_code(graphs)
    back = codec.read_planar_code(blob)
    assert codec.write_planar_code(back) == blob
    for name, g in corpus:
        assert codec.read_json(codec.write_json(g)) == g, name
    _line(8, True, f"planar code byte-identical and JSON structurally identical "
          f"on all {len(corpus)} graphs")
