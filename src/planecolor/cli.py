"""Command-line interface.

Exit codes: 0 success, 1 invalid input, 2 property violated (a verification
failed or an optimum exceeded its bound), 3 internal fallback engaged (the
reduction engine found no configuration; the coloring is still valid but the
event is an alarm worth surfacing).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import codec, generators
from .discharging import audit, report_table
from .embedding import Darts, EmbeddedGraph
from .errors import Infeasible, PlanecolorError, PositiveGenus, TooLarge, TruncatedRecord
from .oracle import chi2_exact
from .reductions import color_by_reduction, detect, detect_all
from .squares import verify_coloring

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VIOLATION = 2
EXIT_FALLBACK = 3


def _load_graphs(path: str, fmt: str) -> list[EmbeddedGraph]:
    """Decode the input file; rotation systems of genus above 0, and planar
    code with no graph after its header, are input errors."""
    data = Path(path).read_bytes()
    if fmt == "auto":
        fmt = "planarcode" if data.startswith(codec.PLANAR_CODE_HEADER) else "json"
    if fmt == "planarcode":
        graphs = codec.read_planar_code(data)
        if not graphs:
            raise TruncatedRecord("planar code holds no graph")
    else:
        graphs = [codec.graph_from_doc(json.loads(data.decode("utf-8")))]
    for g in graphs:
        defect = g.euler_defect()
        if defect:
            raise PositiveGenus(defect)
    return graphs


def _save_graph(g: EmbeddedGraph, path: str) -> None:
    if path.endswith(".json"):
        Path(path).write_text(codec.write_json(g, indent=2) + "\n")
    else:
        Path(path).write_bytes(codec.write_planar_code([g]))


def _write_documents(items: list, path: str) -> None:
    """Write one JSON document per input file: one graph's item alone, else their batch."""
    Path(path).write_text(codec.write_json(items[0] if len(items) == 1 else items, indent=2)
                          + "\n")


def _cmd_color(args) -> int:
    graphs = _load_graphs(args.in_, args.format)
    results = []
    code = EXIT_OK
    for i, g in enumerate(graphs):
        result = color_by_reduction(g, palette_size=args.palette)
        report = verify_coloring(g, result.coloring)
        tag = ""
        if result.fallback:
            tag = " FALLBACK"
            code = max(code, EXIT_FALLBACK)
        if not report.valid:
            tag += " INVALID"
            code = max(code, EXIT_VIOLATION)
        print(f"graph {i}: {g.vertex_count} vertices, "
              f"{report.colors_used} colors, "
              f"{'valid' if report.valid else 'INVALID'}, "
              f"{len(result.steps)} steps{tag}")
        results.append(result)
    if args.trace:
        _write_documents(results, args.trace)
    return code


def _cmd_verify(args) -> int:
    graphs = _load_graphs(args.graph, "auto")
    phi = codec.coloring_from_doc(json.loads(Path(args.coloring).read_text()))
    code = EXIT_OK
    for i, g in enumerate(graphs):
        report = verify_coloring(g, phi)
        print(f"graph {i}: {'valid' if report.valid else 'INVALID'}, "
              f"{report.colors_used} colors used")
        for u, w, dist, color in report.violations[:20]:
            print(f"  violation: vertices {u} and {w} at distance {dist} share color {color}")
        if not report.valid:
            code = EXIT_VIOLATION
    return code


def _cmd_exact(args) -> int:
    graphs = _load_graphs(args.in_, args.format)
    for i, g in enumerate(graphs):
        result = chi2_exact(g, upper_bound=args.ub, vertex_limit=args.limit)
        print(f"graph {i}: chi2 = {result.chi2} "
              f"({result.nodes_explored} nodes explored)")
    return EXIT_OK


def _cmd_discharge(args) -> int:
    graphs = _load_graphs(args.in_, args.format)
    code = EXIT_OK
    reports = []
    for i, g in enumerate(graphs):
        report = audit(g)
        print(f"graph {i}: total {report.total_initial} -> {report.total_final}, "
              f"conservation {'ok' if report.conservation_ok else 'BROKEN'}, "
              f"{len(report.negative_elements)} negative elements, "
              f"{report.match_count} configuration matches")
        if args.table:
            print(report_table(report))
        if not report.conservation_ok:
            code = EXIT_VIOLATION
        if args.report:
            reports.append(report)
    if args.report:
        _write_documents(reports, args.report)
    return code


def _cmd_configs(args) -> int:
    graphs = _load_graphs(args.in_, args.format)
    for i, g in enumerate(graphs):
        if args.all:
            matches = detect_all(g)
            print(f"graph {i}: {len(matches)} matches")
            for m in matches:
                print(f"  {m.config_id}{'/' + m.variant if m.variant else ''} "
                      f"at {m.center}: {dict(m.bindings)}")
        else:
            m = detect(g)
            if m is None:
                print(f"graph {i}: no configuration found")
            else:
                print(f"graph {i}: {m.config_id}"
                      f"{'/' + m.variant if m.variant else ''} at {m.center}: "
                      f"{dict(m.bindings)}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = {}
    for kv in args.params or ():
        if "=" not in kv:
            raise generators.BadParams(f"--params expects key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        if k in params:
            raise generators.BadParams(f"--params gives {k} twice")
        try:
            params[k] = v if k == "name" else int(v)
        except ValueError:
            raise generators.BadParams(f"--params {k} expects an integer, got {v!r}") from None
    if args.seed is not None:
        if "seed" in params:
            raise generators.BadParams("the seed is given both as --seed and in --params")
        params["seed"] = args.seed
    g = generators.generate(generators.GeneratorSpec(args.kind, params))
    _save_graph(g, args.out)
    print(f"wrote {args.kind} graph: {g.vertex_count} vertices, "
          f"{g.edge_count} edges -> {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    graphs = _load_graphs(args.in_, args.format)
    for i, g in enumerate(graphs):
        rot = g.rotation_map()
        darts = Darts(rot)
        sizes = list(map(len, darts.trace()))
        deg = {v: len(ns) for v, ns in rot.items()}
        deg_hist = Counter(deg.values())
        print(f"graph {i}: |V|={g.vertex_count} |E|={g.edge_count} "
              f"|F|={len(sizes)} euler={g.vertex_count - g.edge_count + len(sizes)} "
              f"connected={len(g.connected_components()) <= 1}")
        print(f"  vertex degrees: {dict(sorted(deg_hist.items()))}")
        print(f"  face degrees:   {dict(sorted(Counter(sizes).items()))}")
        # Per vertex degree, summed over its vertices: the distinct faces at a
        # vertex of size 3, 4 and 5 or more, and its neighbors of degree 3..6.
        agg_m = {d: [0, 0, 0] for d in deg_hist}
        agg_n = {d: [0, 0, 0, 0] for d in deg_hist}
        for v, ns in rot.items():
            o = darts.off[v]
            m, n = agg_m[deg[v]], agg_n[deg[v]]
            for f in set(darts.face[o:o + len(ns)]):
                if sizes[f] >= 3:
                    m[min(sizes[f], 5) - 3] += 1
            for u in ns:
                if 3 <= deg[u] <= 6:
                    n[deg[u] - 3] += 1
        for d in sorted(deg_hist):
            k, m, n = deg_hist[d], agg_m[d], agg_n[d]
            print(f"  degree {d} ({k} vertices): "
                  f"avg m3={m[0]/k:.2f} m4={m[1]/k:.2f} m5+={m[2]/k:.2f} "
                  f"n3={n[0]/k:.2f} n4={n[1]/k:.2f} "
                  f"n5={n[2]/k:.2f} n6={n[3]/k:.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planecolor",
        description="2-distance coloring of planar graphs with maximum degree 6",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--in", dest="in_", required=True, help="input graph file")
        p.add_argument("--format", choices=["planarcode", "json", "auto"],
                       default="auto")

    p = sub.add_parser("color", help="color a graph by configuration reductions")
    add_input(p)
    p.add_argument("--palette", type=int, default=20)
    p.add_argument("--trace", help="write the reduction trace as JSON")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact chromatic number by exhaustive search")
    add_input(p)
    p.add_argument("--limit", type=int, default=16, help="vertex limit")
    p.add_argument("--ub", type=int, default=20, help="refuse optima above this")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("discharge", help="run the charge-redistribution audit")
    add_input(p)
    p.add_argument("--report", help="write the audit report as JSON")
    p.add_argument("--table", action="store_true", help="print the per-element table")
    p.set_defaults(func=_cmd_discharge)

    p = sub.add_parser("configs", help="locate reducible configurations")
    add_input(p)
    p.add_argument("--all", action="store_true", help="list every match")
    p.set_defaults(func=_cmd_configs)

    p = sub.add_parser("gen", help="generate a corpus graph")
    p.add_argument("--kind", required=True,
                   choices=["platonic", "square_grid", "hex_grid", "tri_grid",
                            "cycle", "path", "random_planar"])
    p.add_argument("--params", nargs="*", help="key=value generator parameters")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="degree and face histograms")
    add_input(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (TooLarge, PlanecolorError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
