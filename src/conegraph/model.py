"""Node sets, geometric graphs, routing/void result records, and their
JSON/CSV serialization. Every array distance goes through _norm, the
array form of distance: _distances (the distance matrix of small graphs
and the routing oracle, and the search batch's candidate distances), the
cell scan's distances from coordinates, the kernel's Yao keys and the
relay checks. The greedy step calls distance itself, which matches _norm
bit for bit."""

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Point, _as_int, _check_k, _grid

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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class NodeSet:
    """Ordered (id, point) pairs, stored as the ids and read-only arrays x, y.

    Entries are (id, Point) pairs, ids are unique, points pairwise distinct,
    and there is at least one node; the parsers leave these set-level faults
    to this constructor. Node identity for tie-breaking and output ordering
    is the insertion index. `points` and `nodes` are views built on first use.
    """

    ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __init__(self, nodes):
        nodes = list(nodes)
        if not nodes:
            raise ValueError("a node set needs at least one node")
        for n, e in enumerate(nodes):  # a Point is finite, so no coordinate below is NaN
            if not (isinstance(e, tuple) and len(e) == 2 and type(e[1]) is Point):
                raise ValueError(f"node set entry {n} is not an (id, Point) pair: {e!r}")
        ids = tuple(str(i) for i, _ in nodes)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        xy = np.array([[p.x for _, p in nodes], [p.y for _, p in nodes]], float)
        z = np.sort(xy.T.copy().view(complex).ravel())  # x + iy: equal points sort side by side
        if (z[1:] == z[:-1]).any():
            raise ValueError("duplicate node coordinates")
        x, y = np.frombuffer(xy.tobytes()).reshape(2, -1)  # read-only, as bytes are
        self.__dict__.update(ids=ids, x=x, y=y)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ids == other.ids and bool(((self.x == other.x) & (self.y == other.y)).all())

    def __hash__(self):
        return hash(self.ids)

    def __repr__(self):
        return f"NodeSet(nodes={self.nodes!r})"

    def __reduce__(self):  # rebuilt from the fields alone, building no view on self
        return NodeSet, (tuple(zip(self.ids, map(Point, self.x.tolist(), self.y.tolist()))),)

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.x.tolist(), self.y.tolist()))

    @cached_property
    def nodes(self) -> tuple[tuple[str, Point], ...]:
        return tuple(zip(self.ids, self.points))

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and the y coordinates: the stored read-only arrays, not copies."""
        return self.x, self.y

    @cached_property
    def _grid(self):
        """geometry._grid over the nodes, built once for all builds and scans."""
        return _grid(self.x, self.y)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {i: n for n, i in enumerate(self.ids)}

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
    sorted, in one pass in their order that names the first faulty edge
    (_edge_keys); the builders' keys are valid by construction
    (_from_keys). They are stored as `keys`, one sorted read-only intp
    array of flat keys u*n + v: one per directed edge, or
    both directions of every undirected edge, so the keys are the graph's
    CSR adjacency (`csr`), which `neighbors` reads. Equality, hashing,
    copies and pickles take the fields only; `warning` and the view `edges`
    are derived, the view on first use only.
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
        keys = _edge_keys(edges, n, k, directed)
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

    def __reduce__(self):
        return self._from_keys, (self.family, self.k, self.directed, self.nodes, self.keys)

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

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Nodes sharing an edge with u, ascending by index.

        Defined on the undirected graph only: void-freeness and greedy
        forwarding are evaluated there, never on a union of in/out
        neighborhoods of the directed form.
        """
        if self.directed:
            raise ValueError("neighbors are defined on the undirected graph")
        u = self._check_node(u)
        indptr, indices = self.csr
        return tuple(indices[indptr[u]:indptr[u + 1]].tolist())

    @cached_property
    def dist_matrix(self) -> np.ndarray:
        return _distances(self.nodes.x, self.nodes.y, np.arange(len(self.nodes))[None])

    @cached_property
    def _dist_rows(self) -> list[list[float]]:
        # list rows of dist_matrix. Nothing in the library reads them, but the
        # benchmark harness wraps this property by name, and `perfbench/run.py
        # --trace 1` fails without it
        return self.dist_matrix.tolist()

    def dist(self, u: int, v: int) -> float:
        x, y = self.nodes.x, self.nodes.y
        return distance(*(Point(x.item(i), y.item(i)) for i in map(self._check_node, (u, v))))

    def _check_node(self, u) -> int:
        """u as a plain int, if it is an integer (see _as_int) naming a node."""
        i = _as_int(u)
        if i is None or not 0 <= i < len(self.nodes):
            raise ValueError(f"unknown node index {u!r}")
        return i


def _edge(e) -> tuple[int, int]:
    """A user edge as two plain ints; each endpoint must be an integer (see
    _as_int)."""
    try:
        a, b = e
    except (TypeError, ValueError):
        raise ValueError("edges must be (source, target) pairs") from None
    i, j = _as_int(a), _as_int(b)
    if i is None or j is None:
        raise ValueError(f"edge endpoint must be an integer, got {(a if i is None else b)!r}")
    return i, j


def _edge_keys(edges, n: int, k: int, directed: bool) -> np.ndarray:
    """The flat keys u*n + v of the user's edges; raises the message of the
    first faulty edge, if any. Each edge in turn is converted (_edge), then
    tested for an endpoint out of range, a self-loop, not following its
    predecessor in strictly increasing order, and an out-degree above k
    (directed) or i > j (undirected)."""
    keys = []
    prev = src = -1  # the last key and its source
    degree = 0  # src's edges so far
    for e in edges:
        a, b = _edge(e)
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge {e} references a missing node")
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        key = a * n + b
        if key <= prev:
            raise ValueError("edges must be sorted" if key < prev else f"duplicate edge {e}")
        if directed:
            degree = degree + 1 if a == src else 1
            if degree > k:
                raise ValueError(f"out-degree exceeds k={k}")
        elif a > b:
            raise ValueError(f"undirected edge {e} not normalized as (i, j) with i < j")
        keys.append(key)
        prev, src = key, a
    return np.array(keys, np.intp)


@dataclass(frozen=True)
class RouteResult:
    """Outcome of greedy forwarding: a delivered path, or the node where
    the packet got stuck plus its best neighbor-to-target distance."""

    delivered: bool
    path: tuple[int, ...]
    stuck: int | None = None
    best_neighbor_distance: float | None = None


class VoidWitness(NamedTuple):
    """An ordered node pair (u, v) proving a graph is not void-free:
    no neighbor of u is strictly closer to v than u itself is.
    min_neighbor_distance is +inf when u is isolated. A named tuple whose
    fields are plain Python ints and floats."""

    u: int
    v: int
    d_uv: float
    min_neighbor_distance: float


def graphs_equal(g1: GeometricGraph, g2: GeometricGraph) -> bool:
    """True iff both graphs have identical undirected edge sets, directed
    graphs being undirected first.

    Requires the same node set (same ids, equal coordinates).
    """
    if g1.nodes != g2.nodes:
        raise ValueError("graphs are over different node sets")
    k1, k2 = (_symmetric_keys(g.keys, len(g.nodes)) if g.directed else g.keys for g in (g1, g2))
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
    return {"nodes": [{"id": i, "x": x, "y": y}
                      for i, x, y in zip(nodes.ids, nodes.x.tolist(), nodes.y.tolist())]}


def _node(node_id, x, y) -> tuple:
    """One parsed node, after its caller's keys or fields: its id, a string or
    an integer (no bool), then its Point. Parsers call it in entry order."""
    if type(node_id) not in (str, int):
        raise ValueError(f"node id must be a string or an integer, got {node_id!r}")
    return node_id, Point(x, y)


def node_set_from_dict(data: dict) -> NodeSet:
    """Inverse of node_set_to_dict, naming the first faulty entry (see _node);
    "nodes" must be a list."""
    nodes, n = [], None
    try:
        entries = data["nodes"]
        if not isinstance(entries, list):
            raise TypeError('"nodes" must be a list')
        for n, e in enumerate(entries):
            nodes.append(_node(e["id"], e["x"], e["y"]))
    except (KeyError, TypeError, ValueError) as exc:
        entry = "" if n is None else f"entry {n}: "
        raise ValueError(f"malformed node-set data: {entry}{exc}") from exc
    return NodeSet(nodes)


def node_set_to_json(nodes: NodeSet) -> str:
    return json.dumps(node_set_to_dict(nodes), indent=2) + "\n"


def node_set_from_json(text: str) -> NodeSet:
    return node_set_from_dict(_load_json(text))


def node_set_to_csv(nodes: NodeSet) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "x", "y"])
    writer.writerows(zip(nodes.ids, map(repr, nodes.x.tolist()), map(repr, nodes.y.tolist())))
    return out.getvalue()


def node_set_from_csv(text: str) -> NodeSet:
    """Inverse of node_set_to_csv, naming the first faulty row (see _node): the
    header 'id,x,y', then rows of exactly three fields; blank lines are skipped."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or [c.strip() for c in rows[0]] != ["id", "x", "y"]:
        raise ValueError("CSV node sets need the header 'id,x,y'")
    nodes = []
    for row in rows[1:]:
        try:
            if len(row) != 3:
                raise ValueError(f"{len(row)} fields, not 3")
            nodes.append(_node(row[0], _csv_float(row[1]), _csv_float(row[2])))
        except ValueError as exc:
            raise ValueError(f"malformed CSV node row {row}: {exc}") from exc
    return NodeSet(nodes)


def _csv_float(field: str) -> float:
    """float(field) of ASCII text without digit-group underscores, else float's fault."""
    if field.isascii() and "_" not in field:
        return float(field)
    raise ValueError(f"could not convert string to float: {field!r}")


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
    integers and directed a JSON bool; nothing is coerced. The edges may
    come in any order: each is made a pair of ints (_edge), and the pairs
    are sorted before the constructor checks them."""
    try:
        nodes = node_set_from_dict({"nodes": data["nodes"]})
        edges = tuple(sorted(map(_edge, data["edges"])))
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
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ValueError(f"invalid JSON: {exc}") from exc
