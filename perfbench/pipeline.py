"""One pass over a workload's inputs through the user-facing paths.

Per graph the color path is the one `planecolor color --in ... --trace ...`
runs: decode, `color_by_reduction`, `verify_coloring`, then the trace as JSON.
The audit path is the one `planecolor discharge --in ...` runs: decode, then
`audit` on a graph whose faces are not traced yet. It is short, so it runs
AUDIT_ROUNDS times per graph and the median counts. Corpus members with at
most 12 vertices also go through `chi2_exact`. Every output is checked, and the
reduction steps of the whole pass are folded into one SHA-256 digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from planecolor import codec, discharging, oracle, reductions, squares

PALETTE = 20
FORBIDDEN_LIMIT = 19
CHARGE_TOTAL = Fraction(-8)  # every connected plane graph's charge total
AUDIT_ROUNDS = 5


class NullTracer:
    """Stands in for `tracing.Tracer` when tracing is off."""

    _span = nullcontext()

    def span(self, name):
        return self._span

    def add(self, name, k=1):
        pass


Part = tuple[float, float, float]  # (seconds, start, end) on the pass's clock


@dataclass(frozen=True)
class Sample:
    member: int
    n: int
    color: tuple[Part, ...]  # color path, then this graph's share of its chunk's decode
    audit: tuple[Part, ...]  # audit path (median of its rounds), likewise

    @property
    def color_s(self) -> float:
        return sum(p[0] for p in self.color)

    @property
    def audit_s(self) -> float:
        return sum(p[0] for p in self.audit)


@dataclass
class PassResult:
    samples: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    steps: int = 0
    digest: str = ""
    wall_s: float = 0.0


def decode(fmt: str, data: bytes):
    if fmt == "json":
        return [codec.read_json(data)]
    return codec.read_planar_code(data)


def step_records(result):
    """The digested fields of each step: config, variant, center, bindings,
    deleted vertex, chords and color."""
    for s in result.steps:
        yield [s.config_id, s.variant, s.center, [list(b) for b in s.bindings],
               s.deleted, [list(e) for e in s.added_edges], s.color]


def check(member, g, result, validity, report, exact) -> list[str]:
    """Reasons this graph's outputs are wrong; empty when they are right."""
    problems = []
    if g != member.graph:
        problems.append("decoded graph differs from the encoded one")
    if result.fallback:
        problems.append("greedy fallback")
    if not validity.valid:
        problems.append(f"invalid coloring: {validity.violations[:3]}")
    if validity.colors_used > PALETTE:
        problems.append(f"{validity.colors_used} colors")
    worst = max((s.forbidden_size for s in result.steps), default=0)
    if worst > FORBIDDEN_LIMIT:
        problems.append(f"forbidden set of {worst} colors")
    if not (report.total_initial == report.total_final == CHARGE_TOTAL):
        problems.append(f"charge total {report.total_initial} -> {report.total_final}")
    if not report.conservation_ok:
        problems.append("charge not conserved")
    if report.proof_shadow_ok is not True:
        problems.append(f"proof shadow {report.proof_shadow_ok}")
    if exact is not None and exact.chi2 > validity.colors_used:
        problems.append(f"chi2_exact {exact.chi2} above the engine's {validity.colors_used}")
    return problems


def run_pass(inputs, tr=NullTracer(), catalog=None, chunks=None,
             clock=perf_counter) -> PassResult:
    """Send each graph after the previous one finishes; time, check and digest.

    `chunks` defaults to every input of the workload. Times come from `clock`.
    """
    out = PassResult()
    digest = hashlib.sha256()
    start = clock()
    for chunk in inputs.chunks if chunks is None else chunks:
        gc.collect()  # once per chunk: a full collection costs more the more graphs are alive
        decoded = []  # (graphs, seconds, start) for the color path, then for each audit round
        try:
            for _ in range(1 + AUDIT_ROUNDS):
                t0 = clock()
                with tr.span("codec.decode"):
                    graphs = decode(chunk.fmt, chunk.data)
                decoded.append((graphs, clock() - t0, t0))
                tr.add("codec.bytes_in", len(chunk.data))
        except Exception:
            out.attempted += len(chunk.members)
            out.failures += [f"{inputs.members[i].name}: {traceback.format_exc(limit=3)}"
                             for i in chunk.members]
            continue
        (graphs, color_decode_s, decode_start), *rounds = decoded
        audit_decode_s = statistics.median(s for _, s, _ in rounds)
        decode_end = rounds[-1][2] + rounds[-1][1]
        chunk_n = sum(g.vertex_count for g in graphs)
        for j, (idx, g) in enumerate(zip(chunk.members, graphs)):
            member = inputs.members[idx]
            out.attempted += 1
            try:
                t0 = clock()
                with tr.span("reductions.color_by_reduction"):
                    result = reductions.color_by_reduction(g, palette_size=PALETTE,
                                                           catalog=catalog)
                with tr.span("squares.verify_coloring"):
                    validity = squares.verify_coloring(g, result.coloring)
                with tr.span("codec.trace_encode"):
                    trace_json = json.dumps(codec.trace_to_doc(result), sort_keys=True).encode()
                t1 = clock()
                color_at = (t1 - t0, t0, t1)
                audit_times = []
                audit_start = clock()
                for audit_graphs, _, _ in rounds:
                    t0 = clock()
                    with tr.span("discharging.audit"):
                        report = discharging.audit(audit_graphs[j])
                    audit_times.append(clock() - t0)
                t1 = clock()
                audit_at = (statistics.median(audit_times), audit_start, t1)
                exact = None
                if member.exact:
                    with tr.span("oracle.chi2_exact"):
                        exact = oracle.chi2_exact(g)
                    tr.add("oracle.nodes_explored", exact.nodes_explored)
            except Exception:  # one graph's crash is a failed graph, not a failed run
                out.failures.append(f"{member.name}: {traceback.format_exc(limit=3)}")
                continue
            tr.add("codec.bytes_out", len(trace_json))
            problems = check(member, g, result, validity, report, exact)
            if problems:
                out.failures.append(f"{member.name}: {'; '.join(problems)}")
            out.steps += len(result.steps)
            digest.update(f"{member.name}\n".encode())
            for rec in step_records(result):
                digest.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
            n = g.vertex_count
            share = n / chunk_n
            out.samples.append(Sample(
                idx, n,
                (color_at, (color_decode_s * share, decode_start, decode_start + color_decode_s)),
                (audit_at, (audit_decode_s * share, rounds[0][2], decode_end))))
    out.wall_s = clock() - start
    out.digest = digest.hexdigest()
    return out
