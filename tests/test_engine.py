"""The incremental engine against fresh recomputation, step by step.

After every step the live context is exported to an EmbeddedGraph. Its dart
kernel must hold together, and its face ids, sizes, the walks it keeps and
the triangle and 4-face counts it holds must agree with a fresh trace of the
exported rotations, walk starts included (`_check_kernel`); its match
index must list exactly what `detect_all` finds on the exported graph, in
the same order; and the neighborhood recorded for the
extension must be the deleted vertex's distance-2 neighborhood in the graph
before the step. Before that detection lists the marked vertices, every index
must also list each live vertex it has not marked dirty where a fresh scan
matches and whose degree and triangle count fit the entry's gate
(`_check_marks`). This is what shows the rule for marking vertices
misses nothing.
"""

import dataclasses
import math
import random
from collections import Counter

import pytest
from conftest import barbell, build_corpus, necklace, windmill
from planecolor import generators as G
from planecolor.configurations import CATALOG, _Ctx, _EntryIndex, detect_all, detect_iter
from planecolor.embedding import EmbeddedGraph, build_embedded
from planecolor.errors import ChordError, CrossingChords, PlanInvalid
from planecolor.reductions import _peel, apply_plan, color_by_reduction, plan
from test_trace_contract import relabel

REVERSED = tuple(reversed(CATALOG))


def _keys(matches):
    return [(m.config_id, m.center, m.variant, m.bindings) for m in matches]


def _face_walks(g):
    return {f.vertex_walk() for f in g.faces()}


def _check_kernel(ctx, g):
    """twin is an involution between (v, w) and (w, v); and every face of a
    fresh trace of g, the graph ctx holds, has one id over its darts, which
    no other face has, that id's fdeg is its length, and a face of size <= 5
    has its walk kept in full under that id. Every walk kept is its face's,
    and every triangle and 4-face count held (`m3`, `m4`) is the number of
    distinct faces of that size at a live vertex."""
    for v, ns in ctx.rot.items():
        for j, w in enumerate(ns):
            d = ctx.off[v] + j
            t = ctx.twin[d]
            assert ctx.twin[t] == d and t == ctx.off[w] + ctx.rot[w].index(v), (v, w)
            assert ctx.tail[d] == v and ctx.nxt[d] == ctx.off[v] + (j + 1) % len(ns), (v, w)
    walks, at = {}, {3: Counter(), 4: Counter()}
    for face in g.faces():
        ids = {ctx.face[ctx.off[v] + ctx.rot[v].index(w)] for v, w in face.boundary}
        assert len(ids) == 1, face
        (f,) = ids
        assert f not in walks and ctx.fdeg[f] == face.degree, face
        walks[f] = face.vertex_walk()
        if face.degree <= 5:
            assert ctx.faces[f] == walks[f], face
        if face.degree in at:
            at[face.degree].update(set(walks[f]))
    for f, walk in ctx.faces.items():
        assert walks.get(f) == walk, f
    for size, held in ((3, ctx.m3), (4, ctx.m4)):
        for v, n in held.items():
            assert v in ctx.rot and n == at[size][v], (size, v, n)


def _check_marks(ctx):
    """Between a step and the next detection, an index lists every live
    vertex outside `dirty` whose degree and triangle count fit the entry and
    where a fresh scan matches; it may list stale vertices too. `anchors` is
    sorted, without repeats."""
    for idx in ctx.index.values():
        anchors = set(idx.anchors)
        assert idx.anchors == sorted(anchors), idx.entry.config_id
        for v, d in ctx.deg.items():
            if (v not in idx.dirty and idx.entry.fits(d, ctx.m3[v])
                    and next(idx.entry.scan(ctx, v), None)):
                assert v in anchors, (idx.entry.config_id, v)


def _check_every_step(g, catalog):
    ctx = _Ctx(g)
    before, steps = g, 0
    _check_kernel(ctx, g)
    for *_, deleted, _, _, near in _peel(ctx, catalog):
        exported = ctx.to_graph()
        assert exported.euler_defect() == 0
        _check_kernel(ctx, exported)  # before `_check_marks` reads every count
        _check_marks(ctx)
        assert _keys(detect_iter(ctx, catalog)) == _keys(detect_all(exported, catalog))
        assert set(near) == before.distance2_neighborhood(deleted)
        before = exported
        steps += 1
    return steps


def _random_graphs():
    return [(f"random:s{s}", G.random_planar(10 + (s * 7) % 50, 500 + s)) for s in range(30)]


def test_index_matches_fresh_detection_on_corpus():
    # Fresh detection after every step is quadratic per graph, so only one
    # in six of the corpus's 150 random members is checked here; the lattice,
    # platonic, cycle and path members all are.
    graphs = build_corpus()
    randoms = [item for item in graphs if item[0].startswith("random:")]
    others = [item for item in graphs if not item[0].startswith("random:")]
    for name, g in others + randoms[::6]:
        _check_every_step(g, CATALOG)


def test_index_matches_fresh_detection_on_random_graphs():
    for name, g in _random_graphs():
        _check_every_step(g, CATALOG)


@pytest.mark.parametrize("catalog", [CATALOG, REVERSED], ids=["catalog", "reversed"])
def test_index_matches_fresh_detection_on_cut_vertices(catalog):
    # On a barbell every path vertex is a cut vertex on the one long face;
    # on a necklace of 4-cycles each shared vertex meets the outer face
    # twice, and its neighbors occur twice on the hole it leaves.
    graphs = [barbell(k) for k in (0, 1, 2, 5, 12)] + [necklace(k) for k in (1, 2, 3, 7)]
    for i, g in enumerate(graphs):
        for h in (g, relabel(g, i)):
            assert _check_every_step(h, catalog) == h.vertex_count - 1


def test_index_matches_fresh_detection_on_disconnected_graphs():
    # K01 needs two vertices left: the last one must lose its match even
    # when the step before deleted a vertex far from it.
    graphs = [build_embedded(2, [(), ()]),
              build_embedded(4, [(1, 2), (2, 0), (0, 1), ()]),
              build_embedded(6, [(1, 2), (2, 0), (0, 1), (4, 5), (5, 3), (3, 4)])]
    for g in graphs:
        _check_every_step(g, CATALOG)
        _check_every_step(g, REVERSED)


@pytest.mark.parametrize("start", [2, 5, 12, 17])
def test_index_matches_fresh_detection_with_a_catalog_suffix(start):
    # Under the full catalog the indexes of the late entries are built late
    # or never; with the entries before them left out, they are built at the
    # first detection and are marked by every step. Peeling may stop early.
    graphs = _random_graphs()[::3] + [("tri:6x6", G.tri_grid(6, 6))]
    assert sum(_check_every_step(g, CATALOG[start:]) for _, g in graphs) > 0


def _fit_checked(catalog):
    """`catalog` with each scan asserting that it runs at a live vertex whose
    degree and triangle count fit its entry."""
    def checked(entry):
        def scan(ctx, v):
            assert v in ctx.rot and entry.fits(ctx.deg[v], ctx.m3[v]), (entry.config_id, v)
            return entry.scan(ctx, v)
        return dataclasses.replace(entry, scan=scan)
    return tuple(map(checked, catalog))


@pytest.mark.parametrize("catalog", [CATALOG, REVERSED, CATALOG[5:]],
                         ids=["catalog", "reversed", "suffix5"])
def test_lists_kept_between_peeling_steps_cover_every_match(catalog):
    # `_check_every_step` runs a full detection after every step, which
    # drops every stale vertex from the lists. Here only the peeling's own
    # detections run, each stopping at the first match that plans, so the
    # lists keep the stale vertices behind it.
    graphs = _random_graphs() + [("tri:8x8", G.tri_grid(8, 8)), ("hex:4", G.hex_grid(4))]
    for name, g in graphs:
        ctx = _Ctx(g)
        for _ in _peel(ctx, _fit_checked(catalog)):
            _check_marks(ctx)


def _straight_line_graph(pos, edges):
    """Plane graph from coordinates: each rotation sorted by edge angle."""
    ids = {name: i for i, name in enumerate(pos)}
    nbrs = {name: [] for name in pos}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def angle(a, b):
        return -math.atan2(pos[b][1] - pos[a][1], pos[b][0] - pos[a][0])

    g = EmbeddedGraph({ids[a]: [ids[b] for b in sorted(ns, key=lambda b: angle(a, b))]
                       for a, ns in nbrs.items()})
    return g, ids


def test_far_change_of_big_face_start_rescans_k21():
    # K21 at v reads y, v2's neighbor where v2 first occurs on the big face
    # at v. Here v2 is a cut vertex (a triangle hangs off it) and occurs on
    # that face twice, with different neighbors. Deleting Z, three edges
    # from v, moves the face's smallest vertex from Z to C, across v2, and y
    # changes although no vertex within distance 2 of v changed: v stays an
    # anchor, and detection rebuilds its bindings from the current face.
    pos = {"Z": (-4.5, -0.8), "C": (0.8, -4.2), "X": (-1.2, -2.6), "B": (1, -3),
           "D": (1.8, -3.8), "v": (0, 0), "v2": (0, -2), "l0": (-2, -1), "l2": (2, -1),
           "l3": (2, 1), "l4": (0, 2), "l5": (-2, 1), "Y": (-3, 0), "W": (-4.5, 0.8)}
    edges = [("v", u) for u in ("v2", "l2", "l3", "l4", "l5", "l0")] + [
        ("l2", "l3"), ("l3", "l4"), ("l4", "l5"), ("l5", "l0"), ("l0", "X"), ("X", "v2"),
        ("v2", "B"), ("B", "C"), ("B", "D"), ("C", "D"), ("Y", "l0"), ("Y", "l5"),
        ("Y", "W"), ("Y", "Z"), ("W", "Z")]
    g, ids = _straight_line_graph(pos, edges)
    assert g.euler_defect() == 0

    def k21_y(matches):
        return [m.binding("y") for m in matches if m.config_id == "K21"]

    ctx = _Ctx(g)
    assert k21_y(detect_iter(ctx)) == [ids["B"]]
    m = next(m for m in detect_iter(ctx) if m.config_id == "K02" and m.center == ids["Z"])
    apply_plan(ctx, plan(ctx, m))
    fresh = detect_all(ctx.to_graph())
    assert k21_y(fresh) == [ids["X"]]
    assert _keys(detect_iter(ctx)) == _keys(fresh)


def test_index_matches_fresh_detection_with_reversed_catalog():
    # The first match on random_planar(37, 32), K11 with m4=1, deletes the
    # cut vertex 16 and draws three chords from 23, in another fragment, to
    # 12, 13 and 17. Drawn at 23 in the order given they would cross (an
    # Euler defect of -2); farthest along the ring around 16 first they are
    # plane, and the step is taken.
    for name, g in _random_graphs() + [("tri:6x6", G.tri_grid(6, 6)),
                                       ("hex:2", G.hex_grid(2)),
                                       ("random:37s32", G.random_planar(37, 32))]:
        _check_every_step(g, REVERSED)


def test_surgery_counts_a_neighbor_it_leaves_isolated():
    # Deleting 0 leaves its pendant neighbor 4 isolated while the chord
    # (1, 3) closes the path 1-2-3 into a triangle. 0 is a cut vertex, so
    # the commit retraces the faces at the changed vertices; 4 has none.
    g = EmbeddedGraph({0: (1, 2, 3, 4), 1: (2, 0), 2: (3, 0, 1), 3: (0, 2), 4: (0,)})
    assert g.euler_defect() == 0
    ctx = _Ctx(g)
    ctx.commit(ctx.surgery(0, [(1, 3)]))
    reduced = ctx.to_graph()
    assert reduced.euler_defect() == 0
    assert sorted(reduced.edges()) == [(1, 2), (1, 3), (2, 3)]
    _check_kernel(ctx, reduced)


def test_surgery_draws_chords_on_the_hole_walk_of_their_fragment():
    # Deleting the cut vertex 0 leaves two fragments, the path 1-2-3 and the
    # edge 4-5, each with a hole walk of its own. The chord (1, 3) must be
    # drawn at the corners 0 leaves at 1 and 3, on the walk through them.
    pos = {0: (0, 0), 1: (-2, 0.4), 2: (-1, 1.7), 3: (0.7, 1.9), 4: (1, -1.7), 5: (-1, -1.7)}
    edges = [(0, u) for u in range(1, 6)] + [(1, 2), (2, 3), (4, 5)]
    g, _ = _straight_line_graph(pos, edges)
    assert g.euler_defect() == 0
    ctx = _Ctx(g)
    ctx.commit(ctx.surgery(0, [(1, 3)]))
    reduced = ctx.to_graph()
    assert reduced.euler_defect() == 0
    assert sorted(reduced.edges()) == [(1, 2), (1, 3), (2, 3), (4, 5)]
    assert set(ctx.faces.values()) == _face_walks(reduced)


def _outcome(step):
    """step()'s result, or the type of the ChordError it raised."""
    try:
        return step()
    except ChordError as exc:
        return type(exc)


def _same_step(g, x, rest, merged, chords, outcomes):
    """Take the step on a live context of g and hold it to the rebuild path
    where no chord end occurs twice on the merged face: the same error type,
    or the same graph. Where one does, the surgery may draw it at another of
    its corners than the rebuild path's first occurrence, so an accepted step
    is held to a plane graph whose faces the context holds. Returns the
    surgery, or the type of the error it raised."""
    live = _Ctx(g)
    surgery = _outcome(lambda: live.surgery(x, chords))
    walk = Counter(merged.vertex_walk())
    if all(walk[u] <= 1 for c in chords for u in c):
        rebuilt = _outcome(lambda: rest.add_chords(merged, chords))
        if isinstance(rebuilt, type):
            assert surgery == rebuilt, (g, x, chords)
            outcomes["rejected"] += 1
            return surgery
        assert not isinstance(surgery, type), (g, x, chords, surgery)
        live.commit(surgery)
        assert live.to_graph() == rebuilt, (g, x, chords)
        _check_kernel(live, rebuilt)
        outcomes["accepted"] += 1
    elif not isinstance(surgery, type):
        live.commit(surgery)
        reduced = live.to_graph()
        assert reduced.euler_defect() == 0, (g, x, chords)
        _check_kernel(live, reduced)
        outcomes["repeated"] += 1
    return surgery


def test_live_surgery_agrees_with_deleting_and_adding_chords():
    # The rebuild path deletes x, then draws the chords into the merged face
    # and counts faces; the live surgery places each end on the ring around
    # x and checks that no two chords interleave there. Where x leaves one
    # fragment the merged face is the whole hole, so both must accept the
    # same chord sets and build the same graph (`_same_step`), except that
    # the surgery refuses, naming the first such end, chords that push an
    # end past degree 6.
    rng = random.Random(2024)
    graphs = [G.random_planar(n, seed) for n, seed in ((12, 1), (20, 2), (30, 3), (40, 4))]
    graphs += [G.tri_grid(4, 4), G.square_grid(4, 5), G.hex_grid(2)]
    outcomes = Counter()
    for g in graphs:
        for x in g.vertices():
            rest, merged = g.delete_vertex(x)
            around = set(g.neighbors(x))
            if merged is None or not any(around <= c for c in rest.connected_components()) \
                    or any(rest.degree(u) == 0 for u in around):
                continue  # no hole, or more than one fragment
            walk = sorted(merged.vertices())
            others = [u for u in rest.vertices() if u not in merged.vertices()]
            for _ in range(56):
                pairs = set()
                for _ in range(rng.randint(1, 4)):
                    a, b = rng.sample(walk, 2)
                    if others and rng.random() < 0.05:
                        b = rng.choice(others)
                    if not rest.has_edge(a, b):
                        pairs.add((min(a, b), max(a, b)))
                chords = sorted(pairs)
                if not chords:
                    continue
                gains = Counter(u for c in chords for u in c)
                over = [u for u in gains if rest.degree(u) + gains[u] > 6]
                if over:  # the rebuild path has no degree limit; the surgery refuses
                    with pytest.raises(PlanInvalid) as exc:
                        _Ctx(g).surgery(x, chords)
                    assert exc.value.reason == "DegreeOverflow"
                    assert exc.value.witness == (over[0], rest.degree(over[0]) + gains[over[0]])
                    outcomes["overflow"] += 1
                    continue
                _same_step(g, x, rest, merged, chords, outcomes)
    assert min(outcomes["accepted"], outcomes["rejected"]) > 1000, outcomes
    assert outcomes["overflow"] > 20, outcomes


def test_fast_path_draws_chords_where_place_chords_does():
    # Chords between neighbors of x take the surgery's fast path when x lies
    # on deg(x) distinct faces: it places them without walking the hole,
    # and `_pieces` gives the faces left their ids. The rebuild path
    # (place_chords on the merged face) is its reference, as in the test
    # above.
    graphs = [G.random_planar(n, seed) for n, seed in ((12, 1), (30, 3), (60, 7), (120, 13))]
    graphs += [G.tri_grid(6, 6), G.hex_grid(3), G.cycle(7), G.square_grid(2, 6)]
    outcomes = Counter()
    fast = 0
    for g in graphs:
        for x in g.vertices():
            rest, merged = g.delete_vertex(x)
            if merged is None or any(rest.degree(u) == 0 for u in g.neighbors(x)) \
                    or not any(set(g.neighbors(x)) <= c for c in rest.connected_components()):
                continue
            ring = g.rotation(x)
            pairs = [(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])
                     if a != b and not rest.has_edge(a, b)]
            for k in range(1, len(pairs) + 1):
                chords = sorted(set(pairs[:k]))
                accepted = outcomes["accepted"]
                surgery = _same_step(g, x, rest, merged, chords, outcomes)
                fast += outcomes["accepted"] > accepted and surgery.fast
    assert fast > 300, (fast, outcomes)


def test_fast_path_refuses_what_place_chords_refuses():
    # `plan` never hands the surgery a loop, a pair twice or an existing
    # edge, but `apply_plan` takes any ReductionPlan. Between neighbors of
    # a vertex of the octahedron the fast path applies, and it must raise
    # what the rebuild path raises.
    g = G.platonic("octahedron")
    x = 0
    a, b, c = g.rotation(x)[:3]  # a, b adjacent; a, c opposite
    rest, merged = g.delete_vertex(x)
    for chords in ([(a, a)], [(min(a, b), max(a, b))], [(a, c), (a, c)], [(a, c), (c, a)]):
        expected = _outcome(lambda: rest.add_chords(merged, chords))
        assert isinstance(expected, type), chords
        assert _outcome(lambda: _Ctx(g).surgery(x, chords)) == expected, chords


def test_live_surgery_across_fragments_keeps_the_graph_plane():
    # Where x leaves two or more fragments the rebuild path has no one face
    # to draw into, so the check is the outcome itself: every accepted step
    # commits to a graph of Euler defect 0 whose faces are a fresh trace's.
    # Chord ends come from the whole hole, so many chords bridge fragments,
    # and a few from off it.
    rng = random.Random(2025)
    graphs = [G.path(7), windmill(2), windmill(3)]
    graphs += [G.random_planar(n, seed)
               for n, seed in ((30, 5), (40, 9), (60, 11), (40, 11), (40, 25))]
    outcomes = Counter()
    for g in graphs:
        for x in g.vertices():
            rest, _ = g.delete_vertex(x)
            around = set(g.neighbors(x))
            if sum(1 for c in rest.connected_components() if c & around) < 2:
                continue
            hole = sorted({v for f in g.corner_faces(x) for v in f.vertex_walk()} - {x})
            others = [u for u in rest.vertices() if u not in hole]
            frag = {v: i for i, c in enumerate(rest.connected_components()) for v in c}
            for _ in range(60):
                pairs = set()
                for _ in range(rng.randint(1, 4)):
                    a, b = rng.sample(hole, 2)
                    if others and rng.random() < 0.2:
                        b = rng.choice(others)
                    if not rest.has_edge(a, b):
                        pairs.add((min(a, b), max(a, b)))
                chords = sorted(pairs)
                if not chords:
                    continue
                live = _Ctx(g)
                try:
                    surgery = live.surgery(x, chords)
                except PlanInvalid as exc:
                    assert exc.reason == "DegreeOverflow"
                    outcomes["overflow"] += 1
                    continue
                except ChordError as exc:
                    outcomes[type(exc).__name__] += 1
                    continue
                live.commit(surgery)
                reduced = live.to_graph()
                assert reduced.euler_defect() == 0, (g, x, chords)
                _check_kernel(live, reduced)
                outcomes["accepted"] += 1
                outcomes["bridging"] += any(frag[a] != frag[b] for a, b in chords)
    assert outcomes["accepted"] > 1000 and outcomes["bridging"] > 600, outcomes
    assert min(outcomes["CrossingChords"], outcomes["EndpointNotOnFace"]) > 300, outcomes
    assert outcomes["overflow"] > 20, outcomes
    # Deleting the bowtie's middle vertex 0 leaves the edges 1-2 and 3-4.
    # The chords (1, 3) and (2, 4) would make the plane 4-cycle 1-2-4-3, but
    # not drawn at the corners 0 leaves: their ends interleave around 0.
    assert windmill(2).rotation(0) == (1, 2, 3, 4)
    with pytest.raises(CrossingChords):
        _Ctx(windmill(2)).surgery(0, [(1, 3), (2, 4)])


def _scanner_calls_per_step(g) -> tuple[float, float]:
    """Scanner calls and the matches they yield, per step."""
    calls = matches = 0

    def counted(scan):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return count(scan(*args))
        return wrapper

    def count(found):
        nonlocal matches
        for m in found:
            matches += 1
            yield m

    catalog = tuple(dataclasses.replace(e, scan=counted(e.scan)) for e in CATALOG)
    result = color_by_reduction(g, catalog=catalog)
    assert not result.fallback
    return calls / len(result.steps), matches / len(result.steps)


def test_scanner_work_per_step_stays_flat():
    # Deterministic stand-in for a timing check: rescanning only touched
    # anchors keeps the scanner calls per step nearly independent of size,
    # where a full rescan per step grows with the vertex count.
    small, _ = _scanner_calls_per_step(G.tri_grid(8, 8))
    large, _ = _scanner_calls_per_step(G.tri_grid(16, 16))
    assert large <= 1.5 * small, (small, large)


def test_matches_are_built_only_where_detection_looks():
    # On hex_grid every 3-vertex with a light neighbor matches K03, in up
    # to six labelings: building the matches of every re-checked anchor
    # costs about 38 per step, and re-checking each marked anchor by the
    # first item of its scan about 12 (8.85 scanner calls). Scanning a
    # listed vertex only when detection reaches it builds about 4.39 per
    # step in 1.00 scanner call.
    calls, matches = _scanner_calls_per_step(G.hex_grid(8))
    assert matches <= 6, matches
    assert calls <= 1.5, calls


def test_index_scans_per_step_stay_few(monkeypatch):
    # Deterministic stand-in for a timing check: detection starts an index's
    # scan only when the index lists or marks a vertex. On tri_grid(8, 8)
    # most indexes before K06 and K07 hold nothing, and starting a scan for
    # every index up to the one that fires cost 4.73 per step; skipping the
    # empty ones costs 1.51.
    calls = 0
    reached = _EntryIndex.reached

    def counted(self, ctx):
        nonlocal calls
        calls += 1
        return reached(self, ctx)

    monkeypatch.setattr(_EntryIndex, "reached", counted)
    result = color_by_reduction(G.tri_grid(8, 8))
    assert not result.fallback
    assert calls / len(result.steps) <= 2, calls / len(result.steps)


def _check_face_counts(ctx):
    """At a vertex of degree >= 3 a face of size 3 or 4 fills at most one
    corner, so its triangle and 4-face corners number m3 and m4, the
    distinct such faces at it, which K06's guard and the fan layouts read."""
    for v, d in ctx.deg.items():
        if d >= 3:
            sizes = [ctx.fdeg[f] for f in ctx.dart_faces(v)]
            assert (sizes.count(3), sizes.count(4)) == (ctx.m3[v], ctx.m4[v]), v


def test_triangle_and_4_face_corners_number_m3_and_m4():
    for name, g in build_corpus() + _random_graphs():
        _check_face_counts(_Ctx(g))
    ctx = _Ctx(G.random_planar(300, 11))
    steps = 0
    for _ in _peel(ctx, None):
        _check_face_counts(ctx)
        steps += 1
    assert ctx.vertex_count == 1 and steps == 299


class _Counted(list):
    """A list that counts the items read and written through it."""

    def __init__(self, items, tally):
        super().__init__(items)
        self.tally = tally

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.tally[0] += len(got) if type(i) is slice else 1
        return got

    def __setitem__(self, i, value):
        self.tally[0] += 1
        super().__setitem__(i, value)


class _Tallied(_Ctx):
    """A context whose `face` and `nxt` count their reads and writes. They
    are swapped in before the faces are traced, so the face-count tables,
    which close over `face`, count through it too."""

    def __init__(self, g):
        self.tally = [0]
        super().__init__(g)

    def trace(self):
        self.face, self.nxt = _Counted(self.face, self.tally), _Counted(self.nxt, self.tally)
        return super().trace()


def _dart_work_per_step(g) -> float:
    ctx = _Tallied(g)
    start = ctx.tally[0]
    steps = sum(1 for _ in _peel(ctx, None))
    assert ctx.vertex_count == 1
    return (ctx.tally[0] - start) / steps


@pytest.mark.parametrize("family", [G.cycle, G.path, lambda n: G.square_grid(2, n // 2),
                                    lambda n: relabel(necklace(n // 3), 0)],
                         ids=["cycle", "path", "ladder", "necklace"])
def test_dart_work_per_step_stays_flat_on_long_faces(family):
    # Deterministic stand-in for a timing check: a step reads and writes
    # `face` and `nxt` a number of times set by the faces at its hole, not
    # by their size. Walking whole faces at each step made this count grow
    # with n on cycles, paths and ladders, whose faces are long, and on
    # necklaces, whose cut vertices meet the outer face twice.
    small, large = (_dart_work_per_step(family(n)) for n in (500, 4000))
    assert large <= 1.1 * small, (small, large)


class _Routed(_Ctx):
    """Records, per index, the vertices a step changed while their degree fit
    its entry, since the index was last flushed: those may have to leave it."""

    def __init__(self, g):
        super().__init__(g)
        self.leaving = {}

    def commit(self, s):
        changed = [(v, self.deg[v]) for v in (s.delete, *s.rot)]
        for idx in self.index.values():
            if not idx.dirty:  # flushed since the last step
                self.leaving[idx] = set()
        super().commit(s)
        for idx in self.index.values():
            self.leaving.setdefault(idx, set()).update(
                v for v, d in changed if d in idx.fit)


def test_dirty_anchors_fit_their_entry_now_or_before_the_step():
    ctx = _Routed(G.tri_grid(12, 12))
    steps = 0
    for _ in _peel(ctx, None):
        steps += 1
        for idx in ctx.index.values():
            fit, leaving = idx.fit, ctx.leaving[idx]
            stray = {u for u in idx.dirty
                     if not (u in ctx.deg and ctx.deg[u] in fit) and u not in leaving}
            assert not stray, (steps, idx.entry.config_id, sorted(stray))
    assert ctx.vertex_count == 1 and steps == 143
