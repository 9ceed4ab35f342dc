"""Decoded graphs keep only their rotations.

The engine, the coloring check and the audit trace faces into structures of their
own, so coloring and auditing a graph leaves it as small as it was decoded.
Sizes are taken with tracemalloc over the corpus as one planar-code blob.
"""

import gc
import sys
import tracemalloc

import pytest

from planecolor import cli, codec, configurations, discharging, reductions, squares
from planecolor import generators as G


@pytest.fixture(scope="module")
def blob(corpus):
    return codec.write_planar_code([g for _, g in corpus])


def traced(make):
    """What `make()` returns, and the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = make()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def rotation_bytes(graphs) -> int:
    """sys.getsizeof total of every graph's rotation dict and tuples."""
    return sum(sys.getsizeof(g._rot) + sum(map(sys.getsizeof, g._rot.values()))
               for g in graphs)


def run_everything(graphs):
    for g in graphs:
        result = reductions.color_by_reduction(g)
        assert squares.verify_coloring(g, result.coloring).valid
        discharging.audit(g)
        configurations.detect_all(g)
        configurations.match_count(configurations._Ctx(g))


def test_decoded_graphs_hold_little_beyond_their_rotations(blob, corpus):
    graphs, size = traced(lambda: codec.read_planar_code(blob))
    assert len(graphs) == len(corpus)
    assert size <= 1.5 * rotation_bytes(graphs)


def test_coloring_and_auditing_leave_the_input_as_decoded(blob, corpus):
    # The property holds graph by graph, so a quarter of the corpus, disjoint
    # from the graphs that take the first-use allocations, is measured.
    measured = codec.write_planar_code([g for _, g in corpus[1::4]])
    run_everything(codec.read_planar_code(blob)[::8])  # first-use allocations happen here
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graphs = codec.read_planar_code(measured)
        gc.collect()
        decoded = tracemalloc.get_traced_memory()[0] - base
        run_everything(graphs)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert after < 1.02 * decoded, (decoded, after)


def test_loading_a_batch_traces_no_faces_on_it(blob, tmp_path):
    path = tmp_path / "corpus.pc"
    path.write_bytes(blob)
    graphs, size = traced(lambda: cli._load_graphs(str(path), "auto"))
    assert all(g._faces is None for g in graphs)
    assert size <= 1.5 * rotation_bytes(graphs)


def test_peeled_steps_are_untracked_by_the_cycle_collector():
    # The records live until the backward pass; a dataclass, a NamedTuple or
    # a set among them would keep every step on the collector's lists. A
    # collection untracks a tuple only once the tuples inside it are, and it
    # reaches those after the record, so each collection peels one level:
    # record, chords, chord pair.
    levels = list(reductions._peel(configurations._Ctx(G.tri_grid(12, 12)), None))
    for _ in range(3):
        gc.collect()
    assert len(levels) == 143
    assert not any(gc.is_tracked(r) for r in levels)
