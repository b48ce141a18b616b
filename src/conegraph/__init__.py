"""Yao and Theta graphs, greedy forwarding, and void detection.

Construct either graph family for any planar node set and cone count,
decide whether greedy geographic forwarding can always make progress
(the void-free property), reproduce small counterexamples for k <= 5,
and machine-check the cone geometry that rules voids out for k >= 6.
"""

from .construct import build, build_directed_theta, build_directed_yao, undirect
from .corpus import (
    CorpusEntry,
    SearchResult,
    load_corpus,
    random_nodeset,
    search_counterexample,
    validate_entry,
    validate_v2_constraints,
)
from .geometry import (
    Point,
    bisector_direction,
    bisector_projection,
    clockwise_angle_from_north,
    cone_of,
)
from .model import (
    THETA,
    YAO,
    GeometricGraph,
    NodeSet,
    RouteResult,
    VoidWitness,
    distance,
    graph_from_json,
    graph_to_json,
    graphs_equal,
    node_set_from_csv,
    node_set_from_json,
    node_set_to_csv,
    node_set_to_json,
)
from .render import render_svg
from .routing import greedy_route, greedy_step
from .voidcheck import (
    VoidReport,
    check_by_routing,
    check_theta_cone_relay,
    check_void_free,
    check_yao_cone_relay,
    has_void,
    witness_report_dict,
)

__all__ = [
    "CorpusEntry",
    "GeometricGraph",
    "NodeSet",
    "Point",
    "RouteResult",
    "SearchResult",
    "THETA",
    "VoidReport",
    "VoidWitness",
    "YAO",
    "bisector_direction",
    "bisector_projection",
    "build",
    "build_directed_theta",
    "build_directed_yao",
    "check_by_routing",
    "check_theta_cone_relay",
    "check_void_free",
    "check_yao_cone_relay",
    "clockwise_angle_from_north",
    "cone_of",
    "distance",
    "graph_from_json",
    "graph_to_json",
    "graphs_equal",
    "greedy_route",
    "greedy_step",
    "has_void",
    "load_corpus",
    "node_set_from_csv",
    "node_set_from_json",
    "node_set_to_csv",
    "node_set_to_json",
    "random_nodeset",
    "render_svg",
    "search_counterexample",
    "undirect",
    "validate_entry",
    "validate_v2_constraints",
    "witness_report_dict",
]

__version__ = "0.1.0"
