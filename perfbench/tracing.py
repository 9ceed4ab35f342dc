"""Spans and counters around calls into each planecolor module.

Only the benchmark records spans: `patched` swaps module attributes for
timing wrappers and puts the originals back afterwards, so no file of the
package changes. A span is (name, start ns, end ns, parent index); spans stay
in memory and are written out when the run ends.

A layer's self time is its spans' duration minus the part covered by child
spans, so the self times under `reductions.color_by_reduction` plus that
span's own self time (`reductions.unattributed.s`) add up to the color wall
time exactly.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from planecolor import configurations, discharging, generators, reductions
from planecolor.embedding import EmbeddedGraph
from planecolor.errors import PlanInvalid

COLOR = "reductions.color_by_reduction"
DETECT = "configurations.detect_iter"
PLAN = "reductions.plan"
APPLY = "reductions.apply_plan"
REJECT_REASONS = ("ChordCrossing", "DegreeOverflow", "NotOnMergedFace")

# Span names whose self time is reported as "<name>.s".
TIMED = (
    DETECT, "configurations.build_plan_spec", "configurations.detect_all",
    PLAN, APPLY,
    "embedding.delete_vertex", "embedding.add_chords", "embedding.face_traces",
    "embedding.graphs_built", "squares.verify_coloring", "discharging.audit",
    "discharging.apply_rules", "codec.decode", "codec.trace_encode",
    "oracle.chi2_exact", "generators.generate",
)
# Span names whose call count is reported under the bare name.
COUNTED = ("embedding.face_traces", "embedding.graphs_built")
# Counters the wrappers and the pipeline add to.
TALLIED = ("configurations.matches_built", "discharging.transfers", "codec.bytes_in",
           "codec.bytes_out", "oracle.nodes_explored")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    # -- wrappers --------------------------------------------------------------

    def timed(self, name: str):
        def make(orig):
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._close(idx)
            return wrapper
        return make

    def _timed_iter(self, orig):
        """detect_iter is a generator: time each next() call separately."""
        def wrapper(*args, **kwargs):
            self.counts[f"{DETECT}.calls"] += 1
            it = orig(*args, **kwargs)
            while True:
                idx = self._open(DETECT)
                try:
                    m = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield m
        return wrapper

    def _counted_plan(self, orig):
        timed = self.timed(PLAN)(orig)

        def wrapper(g, match):
            self.counts[f"{PLAN}.attempts"] += 1
            try:
                p = timed(g, match)
            except PlanInvalid as exc:
                self.counts[f"{PLAN}.rejected.{exc.reason}"] += 1
                raise
            self.counts[f"configurations.hits.{match.config_id}"] += 1
            return p
        return wrapper

    def _counted_rules(self, orig):
        timed = self.timed("discharging.apply_rules")(orig)

        def wrapper(g):
            final, ledger = timed(g)
            self.counts["discharging.transfers"] += len(ledger)
            return final, ledger
        return wrapper

    def counting_catalog(self):
        """A copy of CATALOG whose scanners count the matches they build."""
        def counted(scan):
            def wrapper(*args):
                for m in scan(*args):
                    self.counts["configurations.matches_built"] += 1
                    yield m
            return wrapper
        return tuple(dataclasses.replace(e, scan=counted(e.scan))
                     for e in configurations.CATALOG)

    def setup_targets(self):
        return [(generators, "generate", self.timed("generators.generate"))]

    def run_targets(self):
        # reductions imports detect_iter by name; plan and audit reach
        # build_plan_spec and detect_all through the configurations module.
        return [
            (reductions, "detect_iter", self._timed_iter),
            (reductions, "plan", self._counted_plan),
            (reductions, "apply_plan", self.timed(APPLY)),
            (configurations, "build_plan_spec", self.timed("configurations.build_plan_spec")),
            (configurations, "detect_all", self.timed("configurations.detect_all")),
            (discharging, "apply_rules", self._counted_rules),
            (EmbeddedGraph, "__init__", self.timed("embedding.graphs_built")),
            (EmbeddedGraph, "_trace", self.timed("embedding.face_traces")),
            (EmbeddedGraph, "delete_vertex", self.timed("embedding.delete_vertex")),
            (EmbeddedGraph, "add_chords", self.timed("embedding.add_chords")),
        ]

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Per span name: count, total ns and self ns; the self ns of all spans
        under color spans; and the names of spans that escape their parent."""
        n = len(self.spans)
        covered = [0] * n
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        count, total, self_ns = Counter(), Counter(), Counter()
        root = [-1] * n
        below_color = 0  # self time of every span under a color span
        escaped = []  # spans not inside their parent's interval, or with negative self time
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - covered[i]
            if own < 0 or (parent >= 0 and not
                           self.spans[parent][1] <= start <= end <= self.spans[parent][2]):
                escaped.append(name)
            count[name] += 1
            total[name] += end - start
            self_ns[name] += own
            root[i] = i if name == COLOR else (root[parent] if parent >= 0 else -1)
            if root[i] >= 0 and root[i] != i:
                below_color += own
        return count, total, self_ns, below_color, escaped

    def layer_metrics(self, steps: int) -> dict[str, float]:
        count, total, self_ns, _, _ = self.totals()
        c = self.counts
        color_ns = total[COLOR]
        m = {f"{name}.s": self_ns[name] / 1e9 for name in TIMED}
        m.update({name: count[name] for name in COUNTED})
        m.update({name: c[name] for name in TALLIED})
        m.update({
            f"{DETECT}.calls": c[f"{DETECT}.calls"],
            f"{DETECT}.share": total[DETECT] / color_ns if color_ns else 0.0,
            "configurations.match_use_ratio": (steps / c["configurations.matches_built"]
                                               if c["configurations.matches_built"] else 0.0),
            f"{COLOR}.s": color_ns / 1e9,
            "reductions.unattributed.s": self_ns[COLOR] / 1e9,
            "reductions.steps": steps,
            f"{PLAN}.attempts": c[f"{PLAN}.attempts"],
            f"{PLAN}.accept_ratio": (steps / c[f"{PLAN}.attempts"]
                                     if c[f"{PLAN}.attempts"] else 0.0),
            "reductions.plan_apply.share": ((total[PLAN] + total[APPLY]) / color_ns
                                            if color_ns else 0.0),
            "trace.spans": len(self.spans),
        })
        m.update({f"{PLAN}.rejected.{r}": c[f"{PLAN}.rejected.{r}"] for r in REJECT_REASONS})
        m.update({f"configurations.hits.{e.config_id}": c[f"configurations.hits.{e.config_id}"]
                  for e in configurations.CATALOG})
        return m

    def consistency(self, steps: int, expected_steps: int) -> list[str]:
        """Counter checks for one traced pass; empty when they all hold."""
        count, total, self_ns, below_color, escaped = self.totals()
        c = self.counts
        hits = sum(v for k, v in c.items() if k.startswith("configurations.hits."))
        rejected = sum(v for k, v in c.items() if k.startswith(f"{PLAN}.rejected."))
        problems = []
        if not hits == steps == expected_steps:
            problems.append(f"hits {hits}, steps {steps}, expected n-1 sum {expected_steps}")
        if c[f"{DETECT}.calls"] != steps:
            problems.append(f"detect_iter calls {c[DETECT + '.calls']} != steps {steps}")
        if count[APPLY] != steps:
            problems.append(f"apply_plan calls {count[APPLY]} != steps {steps}")
        if c[f"{PLAN}.attempts"] != steps + rejected:
            problems.append(f"plan attempts {c[PLAN + '.attempts']} != "
                            f"steps {steps} + rejections {rejected}")
        if below_color + self_ns[COLOR] != total[COLOR]:
            problems.append(f"child self times {below_color} ns + unattributed "
                            f"{self_ns[COLOR]} ns != color wall {total[COLOR]} ns")
        if escaped:
            problems.append(f"spans outside their parent: {sorted(set(escaped))}")
        return problems

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {"names": names,
               "columns": ["name", "start_ns", "end_ns", "parent"],
               "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
               "counts": dict(self.counts)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)


@contextmanager
def patched(targets):
    """Replace each (owner, attribute) by make(original); restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, make in targets:
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)
