"""The reduction traces on long faces and cut vertices are a behavioural contract.

The digest of `test_trace_contract.py` covers the acceptance corpus, whose
cycles and paths stop at 30 vertices. Here the same record of every step is
folded into one SHA-256 digest over graphs whose faces run to hundreds of
vertices or whose vertices repeat on a face: cycles and paths of 200 to 400
vertices, ladders (`square_grid(2, k)`), bowtie and three-blade windmills, and
the sparsest few `random_planar` graphs of their sizes. A second digest
covers barbells, two triangles joined by a path of up to 400 vertices, whose
every step deletes a cut vertex on one long face, and a third necklaces,
chains of up to 200 4-cycles each sharing one vertex with the next, whose
shared vertices meet the outer face twice. Each graph's vertex ids are
shuffled, as in the corpus digest. A pinned digest changes only when a
change to the engine means to change its output.
"""

from conftest import barbell, necklace, windmill
from planecolor import generators as G
from test_trace_contract import relabel, trace_digest

PINNED = "4d2cc6cdd8e37860180729547f6e35789c0262ae4403af33964a28d80e6c0f80"
BARBELL_PINNED = "c672ede43d6781699609837b5d21efc939ce89fecc104259e1e4614198722356"
NECKLACE_PINNED = "1548f96b55de6e9cc6c6f9e4b97841eab1d9d257607a7a55fcd33708741bf3af"


def long_face_inputs():
    graphs = [(f"cycle:{n}", G.cycle(n)) for n in (200, 301, 400)]
    graphs += [(f"path:{n}", G.path(n)) for n in (200, 333, 400)]
    graphs += [(f"ladder:{k}", G.square_grid(2, k)) for k in (100, 151, 200)]
    graphs += [(f"windmill:{k}", windmill(k)) for k in (2, 3)]
    graphs += [(f"random:n{n}s{s}", G.random_planar(n, s))
               for n, s in ((80, 3), (80, 16), (150, 3), (150, 31))]
    return [(name, relabel(g, 500 + i)) for i, (name, g) in enumerate(graphs)]


def test_long_face_traces_match_pinned_digest():
    assert trace_digest(long_face_inputs()) == PINNED


def barbell_inputs():
    return [(f"barbell:{k}", relabel(barbell(k), 600 + i))
            for i, k in enumerate((0, 1, 2, 3, 8, 51, 200, 400))]


def test_barbell_traces_match_pinned_digest():
    assert trace_digest(barbell_inputs()) == BARBELL_PINNED


def necklace_inputs():
    return [(f"necklace:{k}", relabel(necklace(k), 700 + i))
            for i, k in enumerate((1, 2, 3, 4, 9, 40, 133, 200))]


def test_necklace_traces_match_pinned_digest():
    assert trace_digest(necklace_inputs()) == NECKLACE_PINNED
