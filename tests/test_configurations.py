"""Catalog detection and per-entry soundness on purpose-built fixtures."""

from itertools import islice

import pytest

import fixtures
from planecolor import configurations
from planecolor import generators as G
from planecolor.configurations import (CATALOG, _Ctx, _fan_layout, _found, _from_corner,
                                       _labeling, match_count)
from planecolor.embedding import build_embedded
from planecolor.errors import DegreeTooHigh, PlanInvalid
from planecolor.oracle import is_proper_wrt
from planecolor.reductions import _peel, apply_plan, detect, detect_all, detect_iter, plan


def test_catalog_is_ordered_and_complete():
    ids = [e.config_id for e in CATALOG]
    assert ids == sorted(ids)
    assert ids == [f"K{i:02d}" for i in range(1, 25)]


def test_k2_has_degree_one_matches():
    g = build_embedded(2, [[1], [0]])
    ms = detect_all(g)
    assert {(m.config_id, m.center) for m in ms} == {("K01", 0), ("K01", 1)}


def test_c4_detects_two_vertex():
    m = detect(G.cycle(4))
    assert (m.config_id, m.center) == ("K02", 0)


def test_k1_detects_nothing():
    assert detect(build_embedded(1, [()])) is None


def test_cube_detects_light_three_vertex():
    m = detect(G.cube())
    assert (m.config_id, m.center) == ("K03", 0)


def test_octahedron_detects_triangle_fans_everywhere():
    ms = detect_all(G.octahedron())
    k06_centers = {m.center for m in ms if m.config_id == "K06"}
    assert k06_centers == set(range(6))
    assert all(m.config_id == "K06" for m in ms)


def test_icosahedron_detects_full_fans_everywhere():
    ms = detect_all(G.icosahedron())
    k13_centers = {m.center for m in ms if m.config_id == "K13"}
    assert k13_centers == set(range(12))


def test_detection_rejects_high_degree():
    star = build_embedded(8, [[1, 2, 3, 4, 5, 6, 7]] + [[0]] * 7)
    with pytest.raises(DegreeTooHigh):
        detect(star)


def test_match_bindings_satisfy_predicate_on_reeval():
    g = G.cube()
    first = detect_all(g)
    again = detect_all(g)
    assert first == again


@pytest.mark.parametrize("fixture", fixtures.ALL_FIXTURES, ids=lambda f: f.__name__)
def test_fixture_detected_and_sound(fixture):
    g, config_id, variant = fixture()
    matches = [m for m in detect_all(g)
               if m.config_id == config_id and (variant is None or m.variant == variant)]
    assert matches, f"{config_id}/{variant} not detected"
    executed = 0
    for m in matches:
        ctx = _Ctx(g)
        try:
            p = plan(ctx, m)
        except PlanInvalid:
            continue
        assert p.forbidden_bound <= 19
        apply_plan(ctx, p)
        g2 = ctx.to_graph()
        assert g2.max_degree() <= 6
        assert g2.vertex_count + g2.edge_count < g.vertex_count + g.edge_count
        ok, witness = is_proper_wrt(g, g2)
        assert ok, f"{config_id}/{m.variant}: pair {witness} lost distance 2"
        executed += 1
    assert executed, f"{config_id}/{variant}: no match yielded a valid plan"


def test_priority_prefers_cheapest_entry():
    # A graph holding both a 2-vertex and a 3-vertex structure reduces at K02 first.
    g = G.square_grid(3, 3)
    m = detect(g)
    assert m.config_id == "K02"
    assert m.center == min(v for v in g.vertices() if g.degree(v) == 2)


def test_every_match_is_centered_at_its_anchor(corpus):
    # Detection centers every match at the anchor it scanned and sorts one
    # anchor's matches among themselves, never across anchors, so a scan
    # whose anchor role is bound elsewhere would be misplaced and out of
    # order. Fresh detection goes through the same index and cannot see this.
    # Bindings come in role order, each role once, as each scan yields them.
    graphs = [fixture()[0] for fixture in fixtures.ALL_FIXTURES] + [g for _, g in corpus]
    for g in graphs:
        ctx = _Ctx(g)
        for entry in CATALOG:
            role = "v1" if entry.config_id in ("K23", "K24") else "v"
            for v in ctx.rot:
                if not entry.fits(ctx.deg[v], ctx.m3[v]):
                    continue
                for variant, roles, values in _found(ctx, entry, v):
                    assert dict(zip(roles, values))[role] == v, (entry.config_id, v, variant)
                    assert list(roles) == sorted(set(roles)), (entry.config_id, variant, roles)
                    assert len(values) == len(roles), (entry.config_id, variant)


def test_dedup_no_duplicate_matches(corpus):
    for name, g in corpus[:30]:
        ms = detect_all(g)
        keys = [(m.config_id, m.center, m.variant, m.bindings) for m in ms]
        assert len(keys) == len(set(keys)), name


# A layout of triangle corners fixes the distinct triangles at its anchor:
# the counts each entry's gate admits. The others admit any count.
_PREFILTER_M3 = {"K06": {3, 4}, **dict.fromkeys(("K07", "K08", "K09"), {2}),
                 **dict.fromkeys(("K10", "K11", "K12"), {1}), "K13": {5}, "K14": {5},
                 **dict.fromkeys(("K15", "K16", "K17", "K20", "K21", "K22"), {4}),
                 "K18": {5}, "K19": {5}}


def _scan_graphs(corpus):
    """The fixtures, which reach every variant of every entry, the corpus and
    ten larger random graphs."""
    return ([fixture()[0] for fixture in fixtures.ALL_FIXTURES] + [g for _, g in corpus]
            + [G.random_planar(150, 700 + seed) for seed in range(10)])


def test_anchor_degree_and_triangle_count_hold_at_every_match(corpus):
    # Each entry's gate declares the triangle counts its trigger's layout
    # fixes; detection scans only where the gate holds, and every entry
    # matches somewhere behind it.
    for entry in CATALOG:
        declared = None if entry.triangles is None else set(entry.triangles)
        assert declared == _PREFILTER_M3.get(entry.config_id), entry.config_id
    matched = set()
    for g in _scan_graphs(corpus):
        ctx = _Ctx(g)
        for entry in CATALOG:
            for v in ctx.rot:
                if entry.fits(ctx.deg[v], ctx.m3[v]) and next(entry.scan(ctx, v), None):
                    matched.add(entry.config_id)
    assert matched == {e.config_id for e in CATALOG}


def _keyed(matches):
    return [(m.config_id, m.center, m.variant, m.bindings) for m in matches]


def test_one_off_detection_builds_no_index_and_agrees_with_the_index(corpus, monkeypatch):
    # After 10 engine steps some indexes are built, some of them have dirty
    # anchors, and some entries have none yet.
    for name, g in corpus:
        for steps in (0, 10):
            live = _Ctx(g)
            list(islice(_peel(live, None), steps))
            reduced = live.to_graph()
            with monkeypatch.context() as patch:
                patch.setattr(configurations, "_EntryIndex", None)  # building one would fail
                found = _keyed(detect_all(reduced))
            assert _keyed(detect_iter(live)) == found, (name, steps)
            assert _keyed(detect_iter(_Ctx(reduced))) == found, (name, steps)
            assert len(live.index) == len(CATALOG)


def test_match_count_counts_what_detect_all_lists(corpus):
    for g in _scan_graphs(corpus):
        ctx = _Ctx(g)
        assert match_count(ctx) == len(detect_all(g))
        assert not ctx.index
    octa = G.octahedron()
    assert match_count(_Ctx(octa), CATALOG[6:]) == len(detect_all(octa, CATALOG[6:]))


def test_match_count_counts_what_detect_all_lists_for_every_catalog_suffix(corpus):
    # A custom catalog gets its own degree table; each suffix drops entries
    # of some degree ahead of others of the same degree.
    graphs = [fixture()[0] for fixture in fixtures.ALL_FIXTURES] + [g for _, g in corpus[:20]]
    for g in graphs:
        ctx = _Ctx(g)
        for j in range(len(CATALOG)):
            assert match_count(ctx, CATALOG[j:]) == len(detect_all(g, CATALOG[j:])), j


def _labelings_generator(ctx, v):
    """All 2d labelings at v as a generator over doubled slices: rotations,
    then reflections, each (labels, corner faces). The reference the
    scanners' labelings are checked against."""
    rot = ctx.rot[v]
    fs = ctx.dart_faces(v)
    cf = tuple(fs[1:] + fs[:1])  # corner j: between rot[j] and rot[j + 1]
    d = len(rot)
    rot2, cf2 = rot * 2, cf * 2
    for k in range(d):  # labels[i] = rot[k + i], faces[i] = cf[k + i]
        yield tuple(rot2[k:k + d]), cf2[k:k + d]
    rot2, cf2 = rot[::-1] * 2, cf[::-1] * 2
    for k in range(d):  # labels[i] = rot[k - i], faces[i] = cf[k - i - 1]
        yield tuple(rot2[d - 1 - k:2 * d - 1 - k]), cf2[d - k:2 * d - k]


def test_labelings_equal_the_generator(corpus):
    # `_labeling` reads each rotation and reflection off the rotation and
    # `dart_faces`, and `_from_corner` the two whose first corner is fs[p].
    degrees = set()
    for g in _scan_graphs(corpus):
        ctx = _Ctx(g)
        for v, d in ctx.deg.items():
            if d < 2:
                continue
            ns, fs = ctx.rot[v], ctx.dart_faces(v)
            built = [_labeling(ns, fs, k, forward) for forward in (True, False) for k in range(d)]
            assert [(tuple(ls), tuple(fc)) for ls, fc in built] == list(_labelings_generator(ctx, v))
            for p in range(d):
                assert [faces[0] for _, faces in _from_corner(ns, fs, p)] == [fs[p]] * 2
            assert (ns, fs) == (ctx.rot[v], ctx.dart_faces(v)), v  # read, never changed
            degrees.add(d)
    assert degrees == {2, 3, 4, 5, 6}


def test_fan_layout_equals_filtering_every_labeling(corpus):
    # The layouts the fan entries read, taken at the one corner that is not
    # a triangle, against the filter over all 2d labelings.
    predicates = (lambda d: d == 4, lambda d: d >= 5, lambda d: True)
    checked = 0
    for g in _scan_graphs(corpus):
        ctx = _Ctx(g)
        for v, d in ctx.deg.items():
            if d < 2 or ctx.m3[v] != d - 1:
                continue
            for last in predicates:
                filtered = [(labels, faces) for labels, faces in _labelings_generator(ctx, v)
                            if all(ctx.fdeg[f] == 3 for f in faces[:-1])
                            and last(ctx.fdeg[faces[-1]])]
                built = [(tuple(ls), tuple(fc)) for ls, fc in _fan_layout(ctx, v, last)]
                assert built == filtered, v
                checked += bool(filtered)
    assert checked
