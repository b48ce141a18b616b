"""Node sets, geometric graphs, routing/void result records, and their
JSON/CSV serialization."""

import csv
import io
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Point

YAO = "yao"
THETA = "theta"
FAMILIES = (YAO, THETA)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance. Uses sqrt(dx*dx + dy*dy) so scalar results are
    bit-identical to the vectorized distance matrix."""
    dx = b.x - a.x
    dy = b.y - a.y
    return math.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class NodeSet:
    """Ordered collection of (id, point) pairs.

    Ids are unique, points are pairwise distinct, and there is at least
    one node. Node identity for tie-breaking and output ordering is the
    insertion index.
    """

    nodes: tuple[tuple[str, Point], ...]

    def __init__(self, nodes):
        object.__setattr__(self, "nodes", tuple((str(i), p) for i, p in nodes))
        if len(self.nodes) < 1:
            raise ValueError("a node set needs at least one node")
        ids = [i for i, _ in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        coords = {(p.x, p.y) for _, p in self.nodes}
        if len(coords) != len(self.nodes):
            raise ValueError("duplicate node coordinates")

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.nodes)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(p for _, p in self.nodes)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {i: n for n, (i, _) in enumerate(self.nodes)}

    def index_of(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise ValueError(f"unknown node id {node_id!r}") from None

    def point_of(self, node_id: str) -> Point:
        return self.points[self.index_of(node_id)]


@dataclass(frozen=True)
class GeometricGraph:
    """A node set plus an edge set over node indices.

    Directed edges are (source, target) pairs, at most one per source
    cone, so out-degrees never exceed k. Undirected edges are stored
    once as (i, j) with i < j. Instances are immutable; derived views
    (adjacency, distances) are cached.
    """

    family: str
    k: int
    directed: bool
    nodes: NodeSet
    edges: tuple[tuple[int, int], ...]
    warning: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"cone count must be an integer >= 1, got {self.k!r}")
        n = len(self.nodes)
        prev = (-1, -1)
        out_deg = 0  # edges so far from prev's source; sorted edges group by source
        for e in self.edges:
            a, b = e
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge {e} references a missing node")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            # strictly increasing edges are sorted and hold no edge twice
            if e <= prev:
                raise ValueError(f"duplicate edge {e}" if e == prev else "edges must be sorted")
            if self.directed:
                out_deg = out_deg + 1 if a == prev[0] else 1
                if out_deg > self.k:
                    raise ValueError(f"out-degree exceeds k={self.k}")
            elif a > b:
                raise ValueError(f"undirected edge {e} not normalized as (i, j) with i < j")
            prev = e

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def undirected_edge_set(self) -> frozenset[tuple[int, int]]:
        if self.directed:
            return frozenset((min(a, b), max(a, b)) for a, b in self.edges)
        return self.edge_set

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-node sorted neighbor indices (undirected graphs only)."""
        if self.directed:
            raise ValueError("adjacency is defined on the undirected graph")
        nbrs: list[list[int]] = [[] for _ in range(len(self.nodes))]
        # edges (a, b) are sorted with a < b, so each list gets its smaller
        # neighbors in order, then its larger ones in order: already sorted
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(map(tuple, nbrs))

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Nodes sharing an edge with u, ascending by index.

        Defined on the undirected graph only: void-freeness and greedy
        forwarding are evaluated there, never on a union of in/out
        neighborhoods of the directed form.
        """
        return self.adjacency[self._check_node(u)]

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        xs = np.array([p.x for p in self.nodes.points])
        ys = np.array([p.y for p in self.nodes.points])
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        return np.sqrt(dx * dx + dy * dy)

    @cached_property
    def _dist_rows(self) -> list[list[float]]:
        # list rows of dist_matrix, for per-hop scalar lookups in routing
        return self.dist_matrix.tolist()

    def dist(self, u: int, v: int) -> float:
        return self._dist_rows[self._check_node(u)][self._check_node(v)]

    def _check_node(self, u) -> int:
        """u as a plain int; any integer but a bool is accepted, numpy's
        included, and anything else or out of range raises ValueError."""
        try:
            i = operator.index(u)
        except TypeError:
            i = None
        if i is None or isinstance(u, bool) or not 0 <= i < len(self.nodes):
            raise ValueError(f"unknown node index {u!r}")
        return i


@dataclass(frozen=True)
class RouteResult:
    """Outcome of greedy forwarding: a delivered path, or the node where
    the packet got stuck plus its best neighbor-to-target distance."""

    delivered: bool
    path: tuple[int, ...]
    stuck: int | None = None
    best_neighbor_distance: float | None = None


@dataclass(frozen=True)
class VoidWitness:
    """An ordered node pair (u, v) proving a graph is not void-free:
    no neighbor of u is strictly closer to v than u itself is.
    min_neighbor_distance is +inf when u is isolated."""

    u: int
    v: int
    d_uv: float
    min_neighbor_distance: float


def graphs_equal(g1: GeometricGraph, g2: GeometricGraph) -> bool:
    """True iff both graphs have identical undirected edge sets.

    Requires the same node set (same ids, bit-identical coordinates).
    """
    n1, n2 = g1.nodes, g2.nodes
    same = n1.ids == n2.ids and all(
        p.x == q.x and p.y == q.y for p, q in zip(n1.points, n2.points)
    )
    if not same:
        raise ValueError("graphs are over different node sets")
    return g1.undirected_edge_set == g2.undirected_edge_set


# ---------------------------------------------------------------------------
# serialization


def node_set_to_dict(nodes: NodeSet) -> dict:
    return {"nodes": [{"id": i, "x": p.x, "y": p.y} for i, p in nodes.nodes]}


def node_set_from_dict(data: dict) -> NodeSet:
    try:
        entries = data["nodes"]
        return NodeSet((e["id"], Point(float(e["x"]), float(e["y"]))) for e in entries)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed node-set data: {exc}") from exc


def node_set_to_json(nodes: NodeSet) -> str:
    return json.dumps(node_set_to_dict(nodes), indent=2) + "\n"


def node_set_from_json(text: str) -> NodeSet:
    return node_set_from_dict(_load_json(text))


def node_set_to_csv(nodes: NodeSet) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "x", "y"])
    for i, p in nodes.nodes:
        writer.writerow([i, repr(p.x), repr(p.y)])
    return out.getvalue()


def node_set_from_csv(text: str) -> NodeSet:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["id", "x", "y"]:
        raise ValueError("CSV node sets need the header 'id,x,y'")
    try:
        return NodeSet((row[0], Point(float(row[1]), float(row[2]))) for row in rows[1:])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed CSV node row: {exc}") from exc


def graph_to_dict(g: GeometricGraph) -> dict:
    return {
        "family": g.family,
        "k": g.k,
        "directed": g.directed,
        "nodes": node_set_to_dict(g.nodes)["nodes"],
        "edges": [list(e) for e in g.edges],
    }


def graph_from_dict(data: dict) -> GeometricGraph:
    """Inverse of graph_to_dict. k and the edge endpoints must be JSON
    integers and directed a JSON bool; nothing is coerced."""
    try:
        nodes = node_set_from_dict({"nodes": data["nodes"]})
        edges = tuple(sorted((_json_int(a), _json_int(b)) for a, b in data["edges"]))
        directed = data["directed"]
        if not isinstance(directed, bool):
            raise ValueError(f"directed must be true or false, got {directed!r}")
        return GeometricGraph(  # validates k
            family=data["family"],
            k=data["k"],
            directed=directed,
            nodes=nodes,
            edges=edges,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph data: {exc}") from exc


def _json_int(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"edge endpoint must be an integer, got {value!r}")
    return value


def graph_to_json(g: GeometricGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2) + "\n"


def graph_from_json(text: str) -> GeometricGraph:
    return graph_from_dict(_load_json(text))


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
