"""Benchmark inputs: each workload's graphs, relabeled by the seed and encoded.

The program under test only ever sees the encoded bytes. The seed shuffles
the vertex ids of every generated graph (ids set detection priority, so the
shuffle changes the reduction trace) and picks the seeds of the corpus's
random planar members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from planecolor import codec, generators
from planecolor.embedding import EmbeddedGraph
from planecolor.generators import GeneratorSpec

# Full and smoke sizes of the two lattice ladders.
TRI_SIDES = {"full": (8, 12, 16, 20), "smoke": (3, 4, 5)}
HEX_RINGS = {"full": (4, 6, 8), "smoke": (1, 2, 3)}

# The corpus mirrors the acceptance corpus: platonic solids, square and
# triangular patches, honeycombs, cycles, paths and 150 random planar graphs.
PLATONIC = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
CORPUS = {
    "full": {
        "grids": ((2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 4), (3, 6), (5, 5),
                  (4, 7), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10)),
        "rings": (1, 2, 3, 4),
        "longest_cycle": 30,
        "random_count": 150,
    },
    "smoke": {
        "grids": ((2, 2), (3, 3), (4, 4)),
        "rings": (1, 2),
        "longest_cycle": 6,
        "random_count": 6,
    },
}
EXACT_LIMIT = 12  # corpus members this small also go through chi2_exact
# The largest graph is also relabeled this many times in all. Vertex ids alone
# move its color time by up to 45% (tri_grid 10x10: 0.23-0.33 s), so the
# repeats that time it cycle through the relabelings.
LARGEST_RELABELINGS = 5


@dataclass(frozen=True)
class Member:
    """One input graph: its name, the graph as generated and relabeled, its roles."""

    name: str
    graph: EmbeddedGraph
    random: bool = False  # a random planar member; the corpus slope is fitted on these
    exact: bool = False   # chi2_exact runs on it


@dataclass(frozen=True)
class Chunk:
    """Bytes handed to one decode call, and the members they hold, in order."""

    fmt: str  # "json" (embedded-graph/1) or "planarcode"
    data: bytes
    members: tuple[int, ...]


@dataclass(frozen=True)
class Inputs:
    members: tuple[Member, ...]  # the workload's graphs, then the largest one's relabelings
    chunks: tuple[Chunk, ...]  # one pass over the workload's graphs
    largest: int  # index of the member with most vertices, then most edges
    repeats: tuple[Chunk, ...]  # the largest graph alone, then each of its relabelings

    def passed(self) -> list[int]:
        """Indices of the members a pass covers."""
        return [i for c in self.chunks for i in c.members]

    def repeated(self) -> list[int]:
        """Indices of the largest member and its relabelings."""
        return [c.members[0] for c in self.repeats]


def _tri_specs(scale, seed):
    return [(f"tri:{k}x{k}", GeneratorSpec("tri_grid", {"rows": k, "cols": k}), False)
            for k in TRI_SIDES[scale]]


def _hex_specs(scale, seed):
    return [(f"hex:{r}", GeneratorSpec("hex_grid", {"rings": r}), False)
            for r in HEX_RINGS[scale]]


def _corpus_specs(scale, seed):
    c = CORPUS[scale]
    specs = [(f"platonic:{name}", GeneratorSpec("platonic", {"name": name}), False)
             for name in PLATONIC]
    for r, k in c["grids"]:
        specs.append((f"square:{r}x{k}", GeneratorSpec("square_grid", {"rows": r, "cols": k}), False))
        specs.append((f"tri:{r}x{k}", GeneratorSpec("tri_grid", {"rows": r, "cols": k}), False))
    for rings in c["rings"]:
        specs.append((f"hex:{rings}", GeneratorSpec("hex_grid", {"rings": rings}), False))
    for n in range(3, c["longest_cycle"] + 1):
        specs.append((f"cycle:{n}", GeneratorSpec("cycle", {"n": n}), False))
    for n in range(2, c["longest_cycle"] + 1):
        specs.append((f"path:{n}", GeneratorSpec("path", {"n": n}), False))
    rng = random.Random(f"corpus-random:{seed}")
    for i in range(c["random_count"]):
        n = 5 + (i * 37) % 96  # the acceptance corpus's sizes: 5..100
        s = rng.getrandbits(32)
        specs.append((f"random:n{n}s{s}", GeneratorSpec("random_planar", {"n": n, "seed": s}), True))
    return specs


# workload -> (member specs, encoding). The ladders go in as one JSON document
# per graph because planar code stops at 255 vertices; the corpus is one
# planar-code blob.
WORKLOADS = {
    "tri_peel": (_tri_specs, "json"),
    "hex_peel": (_hex_specs, "json"),
    "corpus": (_corpus_specs, "planarcode"),
}


def relabel(g: EmbeddedGraph, rng: random.Random) -> EmbeddedGraph:
    """The same embedding with vertex ids shuffled over 0..n-1."""
    old = sorted(g.vertices())
    new = list(range(len(old)))
    rng.shuffle(new)
    ids = dict(zip(old, new))
    return EmbeddedGraph({ids[v]: tuple(ids[u] for u in g.rotation(v)) for v in old})


def build(workload: str, seed: int, scale: str = "full") -> Inputs:
    """Generate, relabel and encode one workload's inputs."""
    make_specs, fmt = WORKLOADS[workload]
    members = []
    for i, (name, spec, is_random) in enumerate(make_specs(scale, seed)):
        g = relabel(generators.generate(spec), random.Random(f"{workload}:{seed}:{i}"))
        members.append(Member(name, g, random=is_random,
                              exact=workload == "corpus" and g.vertex_count <= EXACT_LIMIT))
    if fmt == "json":
        chunks = tuple(_alone(fmt, m.graph, i) for i, m in enumerate(members))
    else:
        chunks = (Chunk("planarcode", codec.write_planar_code([m.graph for m in members]),
                        tuple(range(len(members)))),)
    largest = max(range(len(members)),
                  key=lambda i: (members[i].graph.vertex_count, members[i].graph.edge_count, -i))
    repeats = [_alone(fmt, members[largest].graph, largest)]
    for r in range(1, LARGEST_RELABELINGS):
        g = relabel(members[largest].graph, random.Random(f"{workload}:{seed}:largest:{r}"))
        members.append(replace(members[largest], name=f"{members[largest].name}#{r}", graph=g))
        repeats.append(_alone(fmt, g, len(members) - 1))
    return Inputs(tuple(members), chunks, largest, tuple(repeats))


def _alone(fmt: str, g: EmbeddedGraph, index: int) -> Chunk:
    data = codec.write_json(g).encode() if fmt == "json" else codec.write_planar_code([g])
    return Chunk(fmt, data, (index,))
