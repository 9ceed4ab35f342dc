"""Plan construction is a behavioural contract.

For every match `detect_all` finds on the per-entry fixtures and on the
acceptance corpus, the raw plan that `build_plan_spec` builds (vertex to
delete, chords, forbidden bound) is folded into one SHA-256 digest, together
with the match's config, variant and center. The fixtures reach every variant
of every catalog entry, so the digest guards each builder, not only the plans
the engine happens to pick. The pinned digest changes only when a change to
the catalog means to change the plans it builds.
"""

import hashlib
import json

import fixtures
from conftest import build_corpus
from planecolor.configurations import _Ctx, build_plan_spec, detect_all

PINNED = "38dc21d9e86c1cbee2a7432503aff2a90d5325495b5c3f3f79a9492ebc5119aa"


def plan_inputs():
    graphs = [(fx.__name__, fx()[0]) for fx in fixtures.ALL_FIXTURES]
    return graphs + build_corpus()


def plan_digest(graphs) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for name, g in graphs:
        digest.update(f"{name}\n".encode())
        ctx = _Ctx(g)  # one context per graph, as `audit` does
        for m in detect_all(ctx):
            spec = build_plan_spec(ctx, m)
            chords = sorted({(min(a, b), max(a, b)) for a, b in spec.add_edges})
            rec = [m.config_id, m.variant, m.center, spec.delete,
                   [list(c) for c in chords], spec.forbidden_bound]
            digest.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
            count += 1
    return digest.hexdigest(), count


def test_plans_match_pinned_digest():
    digest, count = plan_digest(plan_inputs())
    assert count > 0
    assert digest == PINNED
