"""The reduction traces are a behavioural contract.

Every step's config, variant, center, bindings, deleted vertex, chords and
color are folded into one SHA-256 digest over a fixed set of inputs: the
acceptance corpus, two lattice patches and twenty random planar graphs, each
with its vertex ids shuffled (ids set detection priority, so the shuffle
reaches traces the natural labels never do). The pinned digest changes only
when a change to the engine means to change its output. A second digest,
`KEPT_PINNED`, leaves out the inputs named in `MOVED`: a change meant to move
only those traces re-pins `PINNED`, and `KEPT_PINNED` shows that every other
trace stayed as it was.
"""

import hashlib
import json
import random

from conftest import build_corpus
from planecolor import generators as G
from planecolor.embedding import EmbeddedGraph
from planecolor.reductions import color_by_reduction

PINNED = "7d19c83cc70b04ebeb1de75d64b98259578f0c8e41dc5373012e0f6dff66f689"
KEPT_PINNED = "cfbfb64fc604a9d101c0d52aa1fddc5aa243c81e4d6712dbf9f3c4abbd343969"
MOVED = frozenset({"random:n56s87", "random:n59s126", "random:n52s131", "random:n128s1012"})


def relabel(g: EmbeddedGraph, seed: int) -> EmbeddedGraph:
    """The same embedded graph with its vertex ids permuted by a seeded shuffle."""
    old = list(g.vertices())
    new = old[:]
    random.Random(seed).shuffle(new)
    to = dict(zip(old, new))
    return EmbeddedGraph({to[v]: [to[u] for u in g.rotation(v)] for v in old})


def contract_inputs():
    graphs = build_corpus()
    graphs.append(("tri:12x12", G.tri_grid(12, 12)))
    graphs.append(("hex:4", G.hex_grid(4)))
    for s in range(20):
        n = 20 + 9 * s
        graphs.append((f"random:n{n}s{1000 + s}", G.random_planar(n, 1000 + s)))
    return [(name, relabel(g, i)) for i, (name, g) in enumerate(graphs)]


def trace_digest(graphs) -> str:
    digest = hashlib.sha256()
    for name, g in graphs:
        digest.update(f"{name}\n".encode())
        for s in color_by_reduction(g).steps:
            rec = [s.config_id, s.variant, s.center, [list(b) for b in s.bindings],
                   s.deleted, [list(e) for e in s.added_edges], s.color]
            digest.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def test_traces_match_pinned_digest():
    assert trace_digest(contract_inputs()) == PINNED


def test_traces_outside_the_moved_set_match_pinned_digest():
    assert trace_digest([(n, g) for n, g in contract_inputs() if n not in MOVED]) == KEPT_PINNED
