"""Tests of the benchmark itself, on the smoke size of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import pipeline  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

from planecolor import audit, color_by_reduction, verify_coloring  # noqa: E402
from planecolor.squares import Coloring  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if not trace:
        # Times are the wall-clock ones, each part scaled by its local factor.
        line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("wall-clock"))
        wall = {k: float(v) for k, v in (kv.split("=") for kv in line.split(": ", 1)[1].split())}
        got = {name: v["value"] for name, v in result["metrics"].items()}
        lo, hi = wall["factor_min"] * (1 - 1e-4), wall["factor_max"] * (1 + 1e-4)
        assert lo <= got["largest_s"] / wall["largest_s"] <= hi
        assert lo <= wall["color_vertices_per_s"] / got["color_vertices_per_s"] <= hi


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_seed_sets_the_inputs():
    a = inputs.build("corpus", 5, "smoke")
    assert a.chunks == inputs.build("corpus", 5, "smoke").chunks
    b = inputs.build("corpus", 6, "smoke")
    assert a.chunks != b.chunks
    # Relabeling keeps the embedding of the fixed members: the same face sizes.
    for ma, mb in zip(a.members, b.members):
        if not ma.random:
            assert sorted(f.degree for f in ma.graph.faces()) == \
                sorted(f.degree for f in mb.graph.faces())


def test_traced_pass_keeps_the_digest_and_the_counters_add_up():
    data = inputs.build("hex_peel", 2, "smoke")
    plain = pipeline.run_pass(data)
    tr = Tracer()
    with patched(tr.run_targets()):
        traced = pipeline.run_pass(data, tr, tr.counting_catalog())
    assert traced.digest == plain.digest
    expected = sum(data.members[i].graph.vertex_count - 1 for i in data.passed())
    assert tr.consistency(traced.steps, expected) == []
    layers = tr.layer_metrics(traced.steps)
    assert layers["configurations.matches_built"] > layers["reductions.steps"] == expected
    # The checks are not vacuous: a lost hit or a misplaced span is reported.
    tr.counts["configurations.hits.K02"] -= 1
    assert any("hits" in p for p in tr.consistency(traced.steps, expected))
    tr.counts["configurations.hits.K02"] += 1
    child = next(s for s in reversed(tr.spans) if s[3] >= 0)
    child[2] = tr.spans[child[3]][2] + 1
    assert any("outside their parent" in p for p in tr.consistency(traced.steps, expected))


def test_check_reports_a_bad_coloring():
    data = inputs.build("tri_peel", 1, "smoke")
    member = data.members[0]
    g = member.graph
    result = color_by_reduction(g)
    report = audit(g)
    good = verify_coloring(g, result.coloring)
    assert pipeline.check(member, g, result, good, report, None) == []
    bad = verify_coloring(g, Coloring({v: 1 for v in g.vertices()}, 20))
    assert any("invalid coloring" in p
               for p in pipeline.check(member, g, result, bad, report, None))
