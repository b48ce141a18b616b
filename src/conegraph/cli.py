"""Command-line front end: build graphs, check void-freeness, route
packets, search for counterexamples, and render figures.

Exit codes: 0 success (delivered / void-free / found), 1 negative
result (voids found / stuck / search exhausted), 2 usage or input
error, including a number beyond the double range, which JSON and SVG
cannot carry (render writes no file), and a set too large for memory.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .construct import build
from .corpus import search_counterexample
from .model import (
    FAMILIES,
    graph_to_json,
    node_set_from_csv,
    node_set_from_json,
    node_set_to_json,
)
from .render import render_svg
from .routing import greedy_route
from .voidcheck import check_void_free, witness_report_dict


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a distance beyond the double range overflows to inf, which the JSON
        # or SVG output then rejects as an input error
        with np.errstate(over="ignore"):
            return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs about twenty
    times what parsing one command line does, and parsing leaves it as it
    was."""
    parser = argparse.ArgumentParser(
        prog="conegraph",
        description="Yao/Theta graph construction, greedy routing, and void detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--k", type=int, required=True, help="number of cones")
        if with_input:
            p.add_argument("--input", default="-", help="node-set file, '-' for stdin")
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="input format (default json)")

    p = sub.add_parser("build", help="construct a graph and print it as JSON")
    add_common(p)
    p.add_argument("--directed", action="store_true", help="keep edge directions")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("check", help="decide void-freeness and print a witness report")
    add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("route", help="greedy-forward between two nodes")
    add_common(p)
    p.add_argument("--from", dest="src", required=True, metavar="ID")
    p.add_argument("--to", dest="dst", required=True, metavar="ID")
    p.set_defaults(handler=_cmd_route)

    p = sub.add_parser("search", help="random search for a void counterexample (k <= 5)")
    add_common(p, with_input=False)
    p.add_argument("--nodes", type=int, default=None,
                   help="nodes per trial (default: draw from 4..8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=1_000_000, help="trial count")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("render", help="render the graph as an SVG figure")
    add_common(p)
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--highlight-pair", nargs=2, metavar=("U", "V"), default=None,
                   help="draw the circle around V through U")
    p.set_defaults(handler=_cmd_render)

    return parser


def _cmd_build(args) -> int:
    g = _build_graph(args, directed=args.directed)
    sys.stdout.write(graph_to_json(g))
    return 0


def _cmd_check(args) -> int:
    g = _build_graph(args)
    report = check_void_free(g)
    print(json.dumps(witness_report_dict(g, report), indent=2, allow_nan=False))
    return 0 if report.void_free else 1


def _cmd_route(args) -> int:
    g = _build_graph(args)
    s = g.nodes.index_of(args.src)
    t = g.nodes.index_of(args.dst)
    result = greedy_route(g, s, t)
    ids = g.nodes.ids
    if result.delivered:
        print(json.dumps({"delivered": True, "path": [ids[i] for i in result.path]}, indent=2))
        return 0
    print(json.dumps({
        "delivered": False,
        "stuck": ids[result.stuck],
        "best_neighbor_distance": result.best_neighbor_distance,
    }, indent=2, allow_nan=False))
    return 1


def _cmd_search(args) -> int:
    result = search_counterexample(
        args.family, args.k, n_nodes=args.nodes, seed=args.seed, budget=args.budget
    )
    if result.found:
        print(f"counterexample found after {result.trials} trials", file=sys.stderr)
        sys.stdout.write(node_set_to_json(result.nodes))
        return 0
    print(f"no counterexample in {result.trials} trials", file=sys.stderr)
    return 1


def _cmd_render(args) -> int:
    g = _build_graph(args)
    pair = None
    if args.highlight_pair is not None:
        u, v = args.highlight_pair
        pair = (g.nodes.index_of(u), g.nodes.index_of(v))
    svg = render_svg(g, highlight_pair=pair)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc}") from exc
    return 0


def _build_graph(args, directed: bool = False):
    nodes = _read_nodes(args)
    g = build(nodes, args.family, args.k, directed=directed)
    if g.warning:
        print(f"warning: {g.warning}", file=sys.stderr)
    return g


def _read_nodes(args):
    if args.input == "-":  # a leading byte-order mark, which spreadsheets write, is dropped
        text = sys.stdin.read().removeprefix("\ufeff")
    else:
        try:
            with open(args.input, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise OSError(f"cannot read {args.input}: {exc}") from exc
    return (node_set_from_csv if args.format == "csv" else node_set_from_json)(text)


if __name__ == "__main__":
    sys.exit(main())
