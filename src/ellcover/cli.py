"""Command-line front end.

Subcommands mirror the library: labelled counts (``gw``), multigraded
generating functions (``genfun``), graph series (``igamma``), Hurwitz series
by any of the three computation paths (``fg``), graph enumeration
(``graphs``), tropical cover dumps (``covers``) and Eisenstein fits
(``qfit``).  All numbers are printed exactly; ``--json`` switches to
machine-readable output.  Everything runs sequentially in one process;
``--threads`` is still accepted for compatibility and ignored.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphs as graphs_mod
from . import integrals, quasimodular, tropical
from .graphs import FeynmanGraph, GraphError, MalformedGraph
from .laurent import coeff_str
from .quasimodular import QSeries


def _load_graph(path: str) -> FeynmanGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise MalformedGraph(f"graph file {path} is not UTF-8 text: {exc}") from None
        except ValueError as exc:
            raise MalformedGraph(f"graph file {path} is not valid JSON: {exc}") from None
    try:
        graph = FeynmanGraph.from_json(data)
        graphs_mod.validate(graph)
    except GraphError as exc:
        raise type(exc)(f"graph file {path}: {exc}") from None
    return graph


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _emit(args, human: str, payload: dict):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _series_payload(series: QSeries) -> dict:
    return {
        "coefficients": {str(e): coeff_str(c) for e, c in sorted(series.coeffs.items())},
        "truncation_order": series.order,
    }


def cmd_gw(args):
    graph = _load_graph(args.graph)
    if (args.branch is None) == (args.degree is None):
        raise ValueError("specify exactly one of --branch and --degree")
    if args.branch is not None:
        a = _parse_ints(args.branch)
        value = integrals.gromov_witten_a(graph, a)
        payload = {"branch_type": list(a), "count": value}
    else:
        value = integrals.gromov_witten_d(graph, args.degree)
        payload = {"degree": args.degree, "count": value}
    if graphs_mod.bridges(graph):
        payload["reason"] = "bridge"
    _emit(args, str(value), payload)


def cmd_genfun(args):
    graph = _load_graph(args.graph)
    series = integrals.generating_function(graph, args.degree)
    payload = {
        "max_degree": args.degree,
        "terms": [{"branch_type": list(a), "count": c} for a, c in series.sorted_items()],
    }
    _emit(args, str(series), payload)


def cmd_igamma(args):
    graph = _load_graph(args.graph)
    series = integrals.i_gamma_series(graph, args.max_degree)
    _emit(args, str(series), _series_payload(series))


def cmd_fg(args):
    series = integrals.f_g(args.genus, args.max_degree, oracle=args.oracle)
    _emit(args, str(series), _series_payload(series))


def cmd_graphs(args):
    found = graphs_mod.enumerate_genus(args.genus, bridgeless=args.bridgeless)
    rows = []
    for graph in found:
        bridged, bridge_list = graphs_mod.has_bridge(graph)
        rows.append(
            {
                "vertices": graph.vertex_count,
                "edges": [list(e) for e in graph.edges],
                "aut": graphs_mod.automorphism_count(graph),
                "bridges": [k + 1 for k in bridge_list],
                "bridgeless": not bridged,
            }
        )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for row in rows:
            print(
                "edges={} |Aut|={} bridges={}".format(
                    row["edges"], row["aut"], row["bridges"] or "none"
                )
            )
        print(f"{len(rows)} graph(s) of genus {args.genus}" + (" without bridges" if args.bridgeless else ""))


def cmd_covers(args):
    graph = _load_graph(args.graph)
    a = _parse_ints(args.branch)
    order = _parse_ints(args.order)
    for tup in tropical.enumerate_tuples(graph, a, order):
        cover = tropical.reconstruct_cover(graph, a, order, tup)
        print(json.dumps(cover.to_json(), sort_keys=True))


def cmd_qfit(args):
    graph = _load_graph(args.graph)
    g = graphs_mod.validate(graph)
    series = integrals.i_gamma_series(graph, args.max_degree)
    rep = quasimodular.fit(series, g)
    payload = {
        "weight": rep.weight,
        "coefficients": {
            f"E2^{i}*E4^{j}*E6^{k}": coeff_str(c) for (i, j, k), c in sorted(rep.coeffs.items())
        },
    }
    _emit(args, str(rep), payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellcover",
        description="Exact Hurwitz numbers of elliptic curves, three ways.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: every command runs in one process",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gw", help="labelled count for a branch type or degree")
    p.add_argument("--graph", required=True)
    p.add_argument("--branch", help="comma-separated branch type, one entry per edge")
    p.add_argument("--degree", type=int, help="total degree (sums counts over branch types)")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("genfun", help="multigraded generating function")
    p.add_argument("--graph", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("igamma", help="graph series in q")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=cmd_igamma)

    p = sub.add_parser("fg", help="Hurwitz number series for a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--oracle", choices=integrals.ORACLES, default="integral")
    p.set_defaults(func=cmd_fg)

    p = sub.add_parser("graphs", help="enumerate trivalent graphs of a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--bridgeless", action="store_true")
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("covers", help="dump tropical covers as JSON lines")
    p.add_argument("--graph", required=True)
    p.add_argument("--branch", required=True)
    p.add_argument("--order", required=True, help="comma-separated vertex labels, earliest first")
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("qfit", help="Eisenstein-series representation of the graph series")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=cmd_qfit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        message = {"error": type(exc).__name__, "message": str(exc)}
        if args.json:
            print(json.dumps(message), file=sys.stderr)
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
