"""planecolor benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload tri_peel --seed 7 --seconds 10 --trace 0

Workloads: tri_peel, hex_peel, corpus (see perfbench/README.md). With
`--trace 0` the run prints the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it prints the per-layer metrics and writes its spans to
perfbench/out/. `--smoke` swaps in inputs that run in seconds. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The program under test is the planecolor package in src/ next to this
directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is repeated until it has run this many times and this long, and the
# median is reported.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 500


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["tri_peel", "hex_peel", "corpus"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    return p.parse_args(argv)


def timed_setup(build, workload, seed, scale, clock):
    """(seconds, start, end) of several builds, and the inputs they agree on."""
    reps, inputs = [], None
    while len(reps) < SETUP_REPS or (sum(s for s, _, _ in reps) < SETUP_MIN_S
                                     and len(reps) < SETUP_MAX_REPS):
        gc.collect()
        t0 = clock()
        again = build(workload, seed, scale)
        t1 = clock()
        reps.append((t1 - t0, t0, t1))
        if inputs is None:
            inputs = again
        elif again.chunks != inputs.chunks:
            raise RuntimeError("set-up is not deterministic: two builds differ")
    return reps, inputs


def peak_traced_mb(pipeline, inputs):
    """tracemalloc peak in MB while coloring the largest graph.

    tracemalloc slows coloring about 4.6x, so only the traced run pays for it.
    """
    from planecolor import reductions
    chunk = inputs.repeats[0]
    g = pipeline.decode(chunk.fmt, chunk.data)[0]
    gc.collect()
    tracemalloc.start()
    try:
        reductions.color_by_reduction(g, palette_size=pipeline.PALETTE)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def peak_rss_mb() -> float:
    """High-water resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def fitted_slope(points):
    """Log-log exponent of color seconds against n, fitted to per-size medians."""
    by_n: dict[int, list[float]] = {}
    for n, t in points:
        by_n.setdefault(n, []).append(t)
    ns = sorted(by_n)
    if len(ns) < 2:
        return 0.0
    fit = statistics.linear_regression([math.log(n) for n in ns],
                                       [math.log(statistics.median(by_n[n])) for n in ns])
    return fit.slope


def measure(pipeline, inputs, seconds, calibration):
    """Whole passes while another one fits in `seconds` (at least one), then
    repeats of the largest graph, cycling through its relabelings, while
    another repeat fits."""
    runs = []
    start = perf_counter()
    while True:
        runs.append(pipeline.run_pass(inputs, clock=calibration.clock))
        elapsed = perf_counter() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    passes = len(runs)
    repeat_s = max((s.color_s + s.audit_s for r in runs for s in r.samples
                    if s.member == inputs.largest), default=math.inf)  # inf: it failed
    while perf_counter() - start + repeat_s <= seconds:
        chunk = inputs.repeats[(len(runs) - passes) % len(inputs.repeats)]
        runs.append(pipeline.run_pass(inputs, chunks=(chunk,), clock=calibration.clock))
    return runs, passes


def end_to_end(args, scale):
    import inputs as inputs_mod
    import pipeline
    from calibration import Calibration

    calibration = Calibration()
    with calibration.sampling():
        setup_reps, inputs = timed_setup(inputs_mod.build, args.workload, args.seed, scale,
                                         calibration.clock)
        runs, passes = measure(pipeline, inputs, args.seconds, calibration)
    problems = []
    if len({r.digest for r in runs[:passes]}) != 1:
        problems.append("reduction traces differ between passes over the same inputs")
    samples = [s for r in runs for s in r.samples]

    def summary(seconds):
        """The metrics from one way of reading a timed part as seconds."""
        def total(parts):
            return sum(seconds(*p) for p in parts)
        # Each graph's time is the median over its samples; the largest
        # graph's samples include those of its relabelings.
        color, audit = {}, {}
        for s in samples:
            color.setdefault(s.member, []).append(total(s.color))
            audit.setdefault(s.member, []).append(total(s.audit))
        largest = [t for i in inputs.repeated() for t in color.get(i, ())]
        passed = [i for i in inputs.passed() if i in color]
        n = {i: inputs.members[i].graph.vertex_count for i in passed}
        color = {i: statistics.median(color[i]) for i in passed}
        audit = {i: statistics.median(audit[i]) for i in passed}
        # The ladders fit the slope over every size; the corpus over its random members.
        fitted = [(n[i], color[i]) for i in passed
                  if args.workload != "corpus" or inputs.members[i].random]
        return {
            "color_vertices_per_s": sum(n.values()) / sum(color.values()),
            "largest_s": statistics.median(largest) if largest else 0.0,
            "audit_vertices_per_s": sum(n.values()) / sum(audit.values()),
            "setup_s": statistics.median(seconds(*rep) for rep in setup_reps),
            "slope": fitted_slope(fitted),
        }, len(largest), len(passed)

    # Times at the reference machine speed: each timed part is scaled by the
    # kernel samples taken during and around it.
    metrics, largest_samples, graphs = summary(calibration.scale)
    wall, _, _ = summary(lambda seconds, start, end: seconds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    factors = [calibration.factor(start, end) for s in samples for _, start, end in s.color]
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"largest_samples={largest_samples} graphs={graphs} digest={runs[0].digest}")
    print("wall-clock, before scaling: "
          + " ".join(f"{name}={v:.6g}" for name, v in wall.items() if name != "slope")
          + f" kernel_median_s={statistics.median(s for _, s in calibration.samples):.6g}"
          f" kernel_samples={len(calibration.samples)} factor={calibration.factor():.6g}"
          f" factor_min={min(factors):.6g} factor_max={max(factors):.6g}")
    failures = [f for r in runs for f in r.failures]
    return metrics, sum(r.attempted for r in runs), failures, problems


def per_layer(args, scale):
    import inputs as inputs_mod
    import pipeline
    from tracing import Tracer, patched

    tr = Tracer()
    with patched(tr.setup_targets()):
        inputs = inputs_mod.build(args.workload, args.seed, scale)
    # Untraced passes before and after the traced one, so that a change of
    # machine speed during the run moves both sides of the overhead ratio.
    plain = pipeline.run_pass(inputs)
    with patched(tr.run_targets()):
        traced = pipeline.run_pass(inputs, tr, tr.counting_catalog())
    plain_after = pipeline.run_pass(inputs)
    problems = []
    if traced.digest != plain.digest:
        problems.append(f"traced digest {traced.digest} != untraced {plain.digest}")
    if plain_after.digest != plain.digest:
        problems.append("reduction traces differ between untraced passes over the same inputs")
    expected_steps = sum(inputs.members[i].graph.vertex_count - 1 for i in inputs.passed())
    problems += [f"counter check: {p}" for p in tr.consistency(traced.steps, expected_steps)]
    metrics = tr.layer_metrics(traced.steps)
    metrics["trace.overhead_ratio"] = 2 * traced.wall_s / (plain.wall_s + plain_after.wall_s)
    metrics["reductions.color_by_reduction.peak_mb"] = peak_traced_mb(pipeline, inputs)
    out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    tr.write(out)
    print(f"workload={args.workload} seed={args.seed} digest={plain.digest} "
          f"traced_digest={traced.digest} spans={len(tr.spans)} -> {out.relative_to(ROOT)}")
    passes = (plain, traced, plain_after)
    return (metrics, sum(r.attempted for r in passes), [f for r in passes for f in r.failures],
            problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "planecolor" / "__init__.py").is_file():
        print(f"error: no planecolor package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import planecolor
    if Path(planecolor.__file__).resolve().parent != ROOT / "src" / "planecolor":
        print(f"error: imported planecolor from {planecolor.__file__}", file=sys.stderr)
        return 2

    scale = "smoke" if args.smoke else "full"
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    metrics, attempted, failures, problems = (per_layer if args.trace else end_to_end)(args, scale)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              f"BENCHMARK.json {section}", file=sys.stderr)
        return 2
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
