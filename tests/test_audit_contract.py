"""The discharging audit is a behavioural contract.

For every graph of the acceptance corpus the `DischargeReport` of `audit`
(match count, ledger, initial and final charges in their map order, negative
elements, component totals, conservation, the proof shadow and the face
walks) is folded into one SHA-256 digest. Charges are written as exact
fractions. The pinned digest changes only when a change to the rules, the
catalog or the face tracing means to change what the audit reports.
"""

import hashlib
import json

from conftest import build_corpus
from planecolor.discharging import audit

PINNED = "759245fa209987fd982612f8e9367f5207dc6d94ae8f13025ba6cf16f613cfc1"


def _charges(charges):
    return [[el[0], el[1], str(q)] for el, q in charges.items()]


def report_record(report) -> list:
    return [
        report.match_count,
        [[t.rule, list(t.source), list(t.target), str(t.amount)] for t in report.ledger],
        _charges(report.initial),
        _charges(report.final),
        [[el[0], el[1], str(q)] for el, q in report.negative_elements],
        str(report.total_initial),
        str(report.total_final),
        [str(q) for q in report.component_totals],
        report.conservation_ok,
        report.proof_shadow_ok,
        [[f, list(walk)] for f, walk in report.face_walks.items()],
    ]


def audit_digest(graphs) -> str:
    digest = hashlib.sha256()
    for name, g in graphs:
        digest.update(f"{name}\n".encode())
        rec = report_record(audit(g))
        digest.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest()


def test_audit_reports_match_pinned_digest():
    assert audit_digest(build_corpus()) == PINNED
