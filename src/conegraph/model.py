"""Node sets, geometric graphs, routing/void result records, and their
JSON/CSV serialization."""

import csv
import io
import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Point, _check_k

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

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and the y coordinates, as two new float arrays. Not cached:
        a node set that outlives its graphs stays small."""
        return np.array([p.x for p in self.points]), np.array([p.y for p in self.points])

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


class GeometricGraph:
    """A node set plus an edge set over node indices.

    Directed edges are (source, target) pairs, at most one per source
    cone, so out-degrees never exceed k; undirected ones are listed once
    as (i, j) with i < j. The constructor takes them sorted and checks
    them in one vectorised pass (see _check_edges). They are stored as
    `keys`, one sorted intp array of flat keys u*n + v: one per directed
    edge, or both directions of every undirected edge, which makes the
    keys the graph's CSR adjacency (`csr`). The tuple views `edges`,
    `edge_set` and `adjacency` are built on first use only. Instances
    are immutable; derived views are cached.
    """

    def __init__(self, family, k, directed, nodes, edges, warning=None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        _check_k(k)
        n = len(nodes)
        pairs = _edge_pairs(edges, n)
        keys = pairs[:, 0] * n + pairs[:, 1]
        _check_edges(keys, n, k, directed, edges, pairs)
        if not directed:
            keys = np.sort(np.concatenate((keys, pairs[:, 1] * n + pairs[:, 0])))
        keys.flags.writeable = False
        self.__dict__.update(family=family, k=k, directed=directed, nodes=nodes,
                             keys=keys, warning=warning)

    @classmethod
    def _from_keys(cls, family, k, directed, nodes, keys, warning=None):
        """The builders' constructor, over sorted flat keys. Directed keys
        get the constructor's check; undirected ones are trusted, because
        undirect derives them from a checked directed graph."""
        if directed:
            _check_edges(keys, len(nodes), k, True)
        keys.flags.writeable = False
        g = cls.__new__(cls)
        g.__dict__.update(family=family, k=k, directed=directed, nodes=nodes,
                          keys=keys, warning=warning)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self):
        return self.family, self.k, self.directed, self.nodes, self.keys.tobytes(), self.warning

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"GeometricGraph(family={self.family!r}, k={self.k!r}, "
                f"directed={self.directed!r}, nodes={self.nodes!r}, "
                f"edges={self.edges!r}, warning={self.warning!r})")

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): u's out-neighbors, which are its neighbors
        when undirected, are indices[indptr[u]:indptr[u + 1]], ascending."""
        n = len(self.nodes)
        return self.keys.searchsorted(np.arange(0, n * n + 1, n)), self.keys % n

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        n = len(self.nodes)
        u, v = np.divmod(self.keys, n)
        if not self.directed:
            u, v = u[u < v], v[u < v]
        return tuple(zip(u.tolist(), v.tolist()))

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
        indptr, indices = self.csr
        nbrs = indices.tolist()
        return tuple(tuple(nbrs[a:b]) for a, b in zip(indptr.tolist(), indptr[1:].tolist()))

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Nodes sharing an edge with u, ascending by index.

        Defined on the undirected graph only: void-freeness and greedy
        forwarding are evaluated there, never on a union of in/out
        neighborhoods of the directed form.
        """
        return self.adjacency[self._check_node(u)]

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        xs, ys = self.nodes.coordinates()
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


def _edge_pairs(edges, n: int) -> np.ndarray:
    """User-supplied edges as an (m, 2) intp array. Python ints beyond
    intp make numpy pick a float or object array; on that path each
    endpoint must be an integer, and one outside 0..n-1 becomes -1, so
    that it still reads as a missing node."""
    pairs = np.array(edges) if len(edges) else np.empty((0, 2), np.intp)
    if pairs.dtype.kind not in "iu":
        try:
            pairs = np.array([[i if 0 <= i < n else -1 for i in map(operator.index, e)]
                              for e in edges], np.intp)
        except TypeError as exc:
            raise ValueError(f"edge endpoints must be integers: {exc}") from None
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (source, target) pairs")
    return pairs.astype(np.intp, copy=False)


def _edges_valid(keys, n: int, k: int, directed: bool, pairs) -> bool:
    """_check_edges' rules over whole arrays, in a few counts."""
    m = keys.size
    if m == 0:
        return True
    if pairs is None:
        in_range = 0 <= keys[0] and keys[-1] < n * n  # given the order count below
    else:
        in_range = np.count_nonzero(pairs.view(np.uintp) < n) == 2 * m
    if directed:
        rows = keys // n
        # sorted rows: u has more than k edges iff some row repeats k apart
        bounded = k >= m or np.count_nonzero(rows[k:] > rows[:-k]) == m - k
    else:
        bounded = np.count_nonzero(pairs[:, 0] < pairs[:, 1]) == m
    return bool(in_range and bounded and np.count_nonzero(keys[1:] > keys[:-1]) == m - 1
                and np.count_nonzero(keys % (n + 1)) == m)


def _check_edges(keys, n: int, k: int, directed: bool, edges=None, pairs=None) -> None:
    """Raise the message of the first faulty edge, if any.

    keys are the flat keys in the given order; edges and pairs are the
    user's edges and their endpoint array, or None for a builder's keys.
    Each edge is tested for, in order: an endpoint out of range, a
    self-loop, not following its predecessor in strictly increasing
    order, and an out-degree above k (directed) or i > j (undirected).
    """
    if _edges_valid(keys, n, k, directed, pairs):
        return
    # every prefix of a valid edge list is valid: bisect for the shortest faulty one
    i = bisect_left(range(1, keys.size + 1), True, key=lambda j: not _edges_valid(
        keys[:j], n, k, directed, None if pairs is None else pairs[:j]))
    if edges is None:
        edges = [divmod(int(key), n) for key in keys[max(i - 1, 0):i + 1]]
        i = min(i, 1)
    e = edges[i]
    a, b = e
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"edge {e} references a missing node")
    if a == b:
        raise ValueError(f"self-loop at node {a}")
    if i and tuple(e) <= tuple(edges[i - 1]):
        raise ValueError(f"duplicate edge {e}" if tuple(e) == tuple(edges[i - 1])
                         else "edges must be sorted")
    if directed:
        raise ValueError(f"out-degree exceeds k={k}")
    raise ValueError(f"undirected edge {e} not normalized as (i, j) with i < j")


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
