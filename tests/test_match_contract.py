"""Detection's matches are a behavioural contract.

Every match `detect_all` finds, in order, is folded into one SHA-256 digest
with its config, variant, center and full bindings. The per-entry fixtures
reach each variant once, so they are also read mirrored and with every
rotation list started one neighbor later. The hubs put every corner layout
of degrees 3 to 5 (and a sample at degree 6) under two ring-degree profiles,
with and without a doubled triangle corner, so each scanner is read under
many rotations and reflections of its anchor's neighbors. The pinned digest
changes only when a change to the catalog means to change what it matches.
"""

import hashlib
import json
import random
from itertools import product

import fixtures
import hubs
from conftest import build_corpus
from planecolor.configurations import detect_all
from planecolor.embedding import EmbeddedGraph
from test_engine import _random_graphs

PINNED = "54569bb91b1467b2f04aee80c90ea70ea5e9e57509638bd21870603b9c6b7a0a"


def _profiles(corners):
    """Ring degrees around a hub: all 6, and a mixed 4/5/6 profile seeded by
    the corner string."""
    rng = random.Random(corners)
    return {"all6": [6] * len(corners), "mixed": [rng.choice((4, 5, 6)) for _ in corners]}


def _corner_strings():
    """Every corner string of degrees 3 to 5 over face sizes 3, 4 and 5; at
    degree 6, each with four or more triangle corners (K18 to K22 need four
    or five) and a seeded sample of 20 of the rest."""
    strings = ["".join(c) for d in (3, 4, 5, 6) for c in product("345", repeat=d)]
    sparse = [c for c in strings if len(c) == 6 and c.count("3") < 4]
    return ([c for c in strings if len(c) < 6 or c.count("3") >= 4]
            + random.Random(26).sample(sparse, 20))


def hub_graphs():
    graphs = []
    for corners in _corner_strings():
        triangle = corners.find("3")
        for (pname, ring), doubled in product(_profiles(corners).items(), ((), (triangle,))):
            if doubled == (-1,):
                continue
            _, g = hubs.hub_with(corners, ring_degrees=ring, doubled=doubled)
            graphs.append((f"hub:{corners}:{pname}:{doubled}", g))
    return graphs


def _redrawn(g):
    """g mirrored, and g with every rotation list started one neighbor later."""
    rot = {v: list(g.rotation(v)) for v in g.vertices()}
    return (EmbeddedGraph({v: ns[::-1] for v, ns in rot.items()}),
            EmbeddedGraph({v: ns[1:] + ns[:1] for v, ns in rot.items()}))


def match_inputs():
    graphs = []
    for fx in fixtures.ALL_FIXTURES:
        g = fx()[0]
        mirrored, turned = _redrawn(g)
        graphs += [(fx.__name__, g), (f"{fx.__name__}:mirrored", mirrored),
                   (f"{fx.__name__}:turned", turned)]
    return graphs + build_corpus() + _random_graphs() + hub_graphs()


def match_digest(graphs) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for name, g in graphs:
        digest.update(f"{name}\n".encode())
        for m in detect_all(g):
            rec = [m.config_id, m.variant, m.center, [list(b) for b in m.bindings]]
            digest.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
            count += 1
    return digest.hexdigest(), count


def test_matches_match_pinned_digest():
    digest, count = match_digest(match_inputs())
    assert count > 0
    assert digest == PINNED
