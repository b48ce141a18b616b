"""Node sets, geometric graphs, routing/void result records, and their
JSON/CSV serialization. Every array distance goes through _norm, the
array form of distance: _distances (the distance matrix of small graphs,
the routing oracle's stuck mask and the search batch's candidate
distances), the greedy step's and the cell scan's distances from
coordinates, the kernel's Yao keys and the relay checks."""

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Point, _as_int, _check_k

YAO = "yao"
THETA = "theta"
FAMILIES = (YAO, THETA)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance. Uses sqrt(dx*dx + dy*dy) so scalar results are
    bit-identical to _norm's."""
    dx = b.x - a.x
    dy = b.y - a.y
    return math.sqrt(dx * dx + dy * dy)


def _norm(dx, dy) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) of float arrays, by distance's steps, computed in
    dx's buffer: it returns dx, and overwrites dy too."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


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
        """The x and the y coordinates, as new float arrays. Not cached (that added 4 MiB
        to the search's peak RSS); _grid keeps them for sets past a size gate, any k >= 3."""
        return np.array([p.x for p in self.points]), np.array([p.y for p in self.points])

    @cached_property
    def _grid(self):
        """construct._grid over the nodes, built once for all builds and scans."""
        from .construct import _grid  # construct imports this module
        return _grid(*self.coordinates())

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


@dataclass(frozen=True, init=False, repr=False)
class GeometricGraph:
    """A node set plus an edge set over node indices.

    Directed edges are (source, target) pairs, at most one per source
    cone, so out-degrees never exceed k; undirected ones are listed once
    as (i, j) with i < j. The constructor checks user edges, given
    sorted, in one pass (_check_edges); the builders' keys are valid by
    construction (_from_keys). They are stored as `keys`, one sorted
    read-only intp array of flat keys u*n + v: one per directed edge, or
    both directions of every undirected edge, which makes the keys the
    graph's CSR adjacency (`csr`). Equality and hashing compare the
    fields; `warning` and the views `edges` and `adjacency` are derived,
    the views on first use only.
    """

    family: str
    k: int
    directed: bool
    nodes: NodeSet
    _key_bytes: bytes

    def __init__(self, family, k, directed, nodes, edges):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        k = _check_k(k)
        n = len(nodes)
        keys = _check_edges(edges, _edge_pairs(edges, n), n, k, directed)
        if not directed:
            keys = _symmetric_keys(keys, n)
        self.__dict__.update(family=family, k=k, directed=directed, nodes=nodes,
                             _key_bytes=keys.tobytes())

    @classmethod
    def _from_keys(cls, family, k, directed, nodes, keys):
        """The builders' constructor, over sorted flat keys, not checked: the
        kernel picks at most one node per (source, cone) run, drops the self
        pair and sorts its picks; undirect adds their reverses, each once."""
        g = cls.__new__(cls)
        g.__dict__.update(family=family, k=k, directed=directed, nodes=nodes,
                          _key_bytes=keys.tobytes())
        return g

    def __repr__(self):
        return (f"GeometricGraph(family={self.family!r}, k={self.k!r}, "
                f"directed={self.directed!r}, nodes={self.nodes!r}, "
                f"edges={self.edges!r})")

    @property
    def warning(self) -> str | None:
        """A caution for Theta graphs with k < 3, else None. Such a cone
        spans a half-plane or the whole plane, so projections onto the
        bisector stop being positive for all in-cone points and the Theta
        selection rule loses its usual geometric meaning."""
        if self.family == THETA and self.k < 3:
            return ("theta selection for k < 3 minimizes |bisector projection| over cones "
                    "wider than a half-plane; interpret with care")
        return None

    @cached_property
    def keys(self) -> np.ndarray:
        return np.frombuffer(self._key_bytes, np.intp)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): u's out-neighbors, which are its neighbors
        when undirected, are indices[indptr[u]:indptr[u + 1]], ascending."""
        return _csr(self.keys, len(self.nodes))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        n = len(self.nodes)
        u, v = np.divmod(self.keys, n)
        if not self.directed:
            u, v = u[u < v], v[u < v]
        return tuple(zip(u.tolist(), v.tolist()))

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
        x, y = self.nodes.coordinates()
        return _distances(x, y, np.arange(len(x))[None])

    @cached_property
    def _dist_rows(self) -> list[list[float]]:
        # list rows of dist_matrix. Nothing in the library reads them, but the
        # benchmark harness wraps this property by name, and `perfbench/run.py
        # --trace 1` fails without it
        return self.dist_matrix.tolist()

    def dist(self, u: int, v: int) -> float:
        return distance(*(self.nodes.points[self._check_node(i)] for i in (u, v)))

    def _check_node(self, u) -> int:
        """u as a plain int, if it is an integer (see _as_int) naming a node."""
        i = _as_int(u)
        if i is None or not 0 <= i < len(self.nodes):
            raise ValueError(f"unknown node index {u!r}")
        return i


def _edge_pairs(edges, n: int) -> np.ndarray:
    """User-supplied edges as an (m, 2) intp array. Each endpoint must be
    an integer (see _as_int); one outside 0..n-1 becomes -1, so that it
    still reads as a missing node."""
    flat = []
    for e in edges:
        try:
            a, b = e
        except (TypeError, ValueError):
            raise ValueError("edges must be (source, target) pairs") from None
        for v in (a, b):
            i = _as_int(v)
            if i is None:
                raise ValueError(f"edge endpoint must be an integer, got {v!r}")
            flat.append(i if 0 <= i < n else -1)
    return np.array(flat, np.intp).reshape(-1, 2)


def _check_edges(edges, pairs, n: int, k: int, directed: bool) -> np.ndarray:
    """The flat keys u*n + v of the user's edges, whose endpoints are the
    rows of pairs; raises the message of the first faulty edge, if any.

    Each edge is tested for, in order: an endpoint out of range, a
    self-loop, not following its predecessor in strictly increasing
    order, and an out-degree above k (directed) or i > j (undirected).
    While every earlier edge is sound, each test needs only the edge and
    its predecessors, so one mask over all edges finds the first fault."""
    a, b = pairs.T
    keys = a * n + b
    missing = (pairs < 0).any(axis=1)
    loop = a == b
    unordered = np.zeros_like(loop)
    unordered[1:] = keys[1:] <= keys[:-1]
    if directed:  # sorted sources: a source's (k+1)-th edge repeats it k edges back
        excess = np.zeros_like(loop)
        excess[k:] = a[k:] == a[:-k]
    else:
        excess = a > b
    fault = missing | loop | unordered | excess
    if not fault.any():
        return keys
    i = int(fault.argmax())
    e = edges[i]
    if missing[i]:
        raise ValueError(f"edge {e} references a missing node")
    if loop[i]:
        raise ValueError(f"self-loop at node {e[0]}")
    if unordered[i]:
        raise ValueError("edges must be sorted" if keys[i] < keys[i - 1] else f"duplicate edge {e}")
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
    """True iff both graphs have identical undirected edge sets, directed
    graphs being undirected first.

    Requires the same node set (same ids, equal coordinates).
    """
    n1, n2 = g1.nodes, g2.nodes
    same = n1.ids == n2.ids and all(
        p.x == q.x and p.y == q.y for p, q in zip(n1.points, n2.points)
    )
    if not same:
        raise ValueError("graphs are over different node sets")
    n = len(n1)
    k1, k2 = (_symmetric_keys(g.keys, n) if g.directed else g.keys for g in (g1, g2))
    return np.array_equal(k1, k2)


def _symmetric_keys(keys, n: int) -> np.ndarray:
    """Directed keys u*n + v, in any order, merged with their reverses
    v*n + u, each key once and sorted: the undirected keys."""
    u, v = np.divmod(keys, n)
    keys = np.concatenate((keys, keys + (v - u) * (n - 1)))
    keys.sort()
    first = np.empty(keys.size, bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _csr(keys, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the sorted flat keys u*n + v: u's targets are
    indices[indptr[u]:indptr[u + 1]]."""
    return keys.searchsorted(np.arange(0, n * n + 1, n)), keys % n


def _distances(x, y, cols) -> np.ndarray:
    """Distances [u, j] = d(u, cols[u, j]) of the nodes at x, y to their
    candidates (see construct._build_directed). Built in place, so two
    arrays of the result's size are alive at once."""
    return _norm(x.take(cols) - x[:, None], y.take(cols) - y[:, None])


# ---------------------------------------------------------------------------
# serialization


def node_set_to_dict(nodes: NodeSet) -> dict:
    return {"nodes": [{"id": i, "x": p.x, "y": p.y} for i, p in nodes.nodes]}


def node_set_from_dict(data: dict) -> NodeSet:
    """Inverse of node_set_to_dict; coordinates must be JSON numbers."""
    try:
        nodes = [(e["id"], Point(e["x"], e["y"])) for e in data["nodes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed node-set data: {exc}") from exc
    return NodeSet(nodes)


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
        # a sort key that cannot fail: an endpoint that is not an integer ranks
        # as -1, and the constructor names it
        edges = tuple(sorted(((a, b) for a, b in data["edges"]),
                             key=lambda e: [-1 if i is None else i for i in map(_as_int, e)]))
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


def graph_to_json(g: GeometricGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2) + "\n"


def graph_from_json(text: str) -> GeometricGraph:
    return graph_from_dict(_load_json(text))


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
