import random

import pytest

from planecolor import generators as G
from planecolor.embedding import EmbeddedGraph

PLATONIC_NAMES = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")

GRID_SIZES = [(2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 4), (3, 6), (5, 5),
              (4, 7), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10)]

RANDOM_COUNT = 150


def euler_characteristic(g) -> int:
    """V - E + F of g, its faces traced by the graph itself."""
    return g.vertex_count - g.edge_count + len(g.faces())


def random_size(seed: int) -> int:
    return 5 + (seed * 37) % 96


def windmill(blades):
    """`blades` triangles sharing vertex 0: two make a bowtie."""
    rot = {0: list(range(1, 2 * blades + 1))}
    for i in range(1, 2 * blades + 1, 2):
        rot[i], rot[i + 1] = [i + 1, 0], [0, i]
    return EmbeddedGraph(rot)


def barbell(k):
    """Triangles 0 1 2 and k+3 k+4 k+5 joined by the path 0, 3, ..., k+2, k+3:
    each path vertex and both joints are cut vertices on the one long face."""
    rot = {0: [1, 2, 3], 1: [2, 0], 2: [0, 1]}
    for v in range(3, k + 3):
        rot[v] = [v - 1 if v > 3 else 0, v + 1]
    rot[k + 3] = [k + 4, k + 5, k + 2 if k else 0]
    rot[k + 4], rot[k + 5] = [k + 5, k + 3], [k + 3, k + 4]
    return EmbeddedGraph(rot)


def necklace(k):
    """k 4-cycles in a row, each sharing one vertex with the next: 3i, 3i+1,
    3i+3, 3i+2. The shared vertices are cut vertices of degree 4 that meet
    the outer face twice; every vertex lies on it."""
    rot = {3 * k: [3 * k - 2, 3 * k - 1] if k else []}
    for i in range(k):
        s = 3 * i
        rot[s] = ([s - 2] if i else []) + [s + 1, s + 2] + ([s - 1] if i else [])
        rot[s + 1], rot[s + 2] = [s + 3, s], [s, s + 3]
    return EmbeddedGraph(rot)


def k4_chain(k, seed=0):
    """k copies of K4 with each edge subdivided once (10 vertices a copy), in
    a row in the outer face: the vertex on copy i's outer edge BC is joined
    to the vertex on copy i+1's outer edge AB. Each of the 2(k-1) joints is a
    cut vertex of degree 3 that meets the outer face twice. Ids are shuffled
    by `seed`, the joints taking the smallest, so detection reaches them
    first."""
    rot, joints = {}, []
    for i in range(k):
        a, b, c, d, ab, bc, ca, ad, bd, cd = range(10 * i, 10 * i + 10)
        rot[a], rot[b], rot[c], rot[d] = [ab, ca, ad], [ab, bd, bc], [bc, cd, ca], [cd, bd, ad]
        rot[ab], rot[bc], rot[ca] = [b, a], [b, c], [c, a]
        rot[ad], rot[bd], rot[cd] = [a, d], [b, d], [c, d]
        if i:
            rot[ab].insert(1, ab - 9)
            rot[ab - 9].insert(0, ab)
            joints += [ab - 9, ab]
    rng, rest = random.Random(seed), [v for v in rot if v not in set(joints)]
    to = dict(zip(joints, rng.sample(range(len(joints)), len(joints))))
    to.update(zip(rest, rng.sample(range(len(joints), len(rot)), len(rest))))
    return EmbeddedGraph({to[v]: [to[u] for u in ns] for v, ns in rot.items()})


def build_corpus():
    graphs = []
    for name in PLATONIC_NAMES:
        graphs.append((f"platonic:{name}", G.platonic(name)))
    for r, c in GRID_SIZES:
        graphs.append((f"square:{r}x{c}", G.square_grid(r, c)))
        graphs.append((f"tri:{r}x{c}", G.tri_grid(r, c)))
    for rings in (1, 2, 3, 4):
        graphs.append((f"hex:{rings}", G.hex_grid(rings)))
    for n in range(3, 31):
        graphs.append((f"cycle:{n}", G.cycle(n)))
    for n in range(2, 31):
        graphs.append((f"path:{n}", G.path(n)))
    for seed in range(RANDOM_COUNT):
        n = random_size(seed)
        graphs.append((f"random:n{n}s{seed}", G.random_planar(n, seed)))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Corpus members small enough for the all-pairs and exact-search checks."""
    return [(name, g) for name, g in corpus if g.vertex_count <= 14]
