"""Counter-example node sets for k <= 5, plus randomized search for
fresh ones.

The shipped entries V0 (k = 1..3), V1 (k = 4), and V2 (k = 5) each make
both the Yao and the Theta graph fail void-freeness at the ordered pair
(u, v). Their coordinates are not canonical: they were found by seeded
search (tools/find_corpus_coordinates.py) against the validators in
this module and in voidcheck, and the test suite re-validates them on
every run, so the checkers stay the ground truth.
"""

import importlib.resources
import random
from dataclasses import dataclass
from itertools import chain

from .construct import _BLOCK_PAIRS, build
from .geometry import TAU, Point, _as_int, clockwise_angle_from_north, cone_of
from .model import THETA, YAO, FAMILIES, NodeSet, distance, graphs_equal, node_set_from_json
from .voidcheck import _first_void, check_void_free, has_void

# Angular slack for V2's near-boundary placement: v sits inside c(u,1)
# within this many radians of the cone's trailing ray.
V2_RAY_TOL = 1e-6

_ENTRY_TABLE = (
    # name, data file, applicable k, witness pair, nodes required outside C_v
    ("V0", "v0.json", (1, 2, 3), ("u", "v"), ("a",)),
    ("V1", "v1.json", (4,), ("u", "v"), ("a", "b")),
    ("V2", "v2.json", (5,), ("u", "v"), ("a", "b", "c")),
)


@dataclass(frozen=True)
class CorpusEntry:
    """A named counter-example node set.

    outside_circle lists the node ids that must lie strictly outside the
    circle centered at the witness target v with radius d(u, v); those
    are the nodes whose edges to u would otherwise rescue greedy
    forwarding.
    """

    name: str
    nodes: NodeSet
    applicable_k: tuple[int, ...]
    expected_witness: tuple[str, str]
    outside_circle: tuple[str, ...]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a counterexample search: the first sampled node set
    whose graph has a void, or None when the trial budget ran out."""

    nodes: NodeSet | None
    trials: int

    @property
    def found(self) -> bool:
        return self.nodes is not None


def load_corpus() -> list[CorpusEntry]:
    """The three shipped counter-example entries, smallest k first."""
    entries = []
    data_dir = importlib.resources.files("conegraph.data")
    for name, fname, ks, witness, outside in _ENTRY_TABLE:
        nodes = node_set_from_json(data_dir.joinpath(fname).read_text())
        entries.append(CorpusEntry(name, nodes, ks, witness, outside))
    return entries


def validate_entry(entry: CorpusEntry) -> list[str]:
    """Re-derive everything an entry claims; empty list when it holds.

    For every applicable k: the Yao and Theta graphs coincide, both
    exhibit the expected (u, v) witness, and every listed node lies
    strictly outside the circle C_v around v through u.
    """
    violations = []
    nodes = entry.nodes
    u_id, v_id = entry.expected_witness
    u = nodes.index_of(u_id)
    v = nodes.index_of(v_id)
    radius = distance(nodes.points[u], nodes.points[v])
    for label in entry.outside_circle:
        if not distance(nodes.point_of(label), nodes.points[v]) > radius:
            violations.append(f"{label} inside C_v")
    for k in entry.applicable_k:
        graphs = {family: build(nodes, family, k) for family in FAMILIES}
        if not graphs_equal(graphs[YAO], graphs[THETA]):
            violations.append(f"yao and theta graphs differ at k={k}")
        for family, g in graphs.items():
            pairs = {(w.u, w.v) for w in check_void_free(g).witnesses}
            if (u, v) not in pairs:
                violations.append(f"{family} graph at k={k} lacks the ({u_id},{v_id}) witness")
    return violations


def validate_v2_constraints(entry: CorpusEntry) -> list[str]:
    """Audit the V2 placement constraints; empty list when all hold.

    At k = 5: v sits inside c(u,1) hugging its trailing ray; d inside
    c(v,4); b inside c(u,3), c(d,4) and c(v,4); c inside c(u,2), c(d,3)
    and c(v,3); and a, b, c all lie strictly outside the circle C_v.
    """
    if entry.name != "V2":
        raise ValueError(f"expected the V2 entry, got {entry.name!r}")
    k = 5
    nodes = entry.nodes
    p = {label: nodes.point_of(label) for label in ("u", "v", "a", "b", "c", "d")}
    cones = (("v", "u", 1), ("d", "v", 4), ("b", "u", 3), ("b", "d", 4), ("b", "v", 4),
             ("c", "u", 2), ("c", "d", 3), ("c", "v", 3))
    violations = [f"{label} not in c({center},{i})" for label, center, i in cones
                  if cone_of(p[center], p[label], k) != i]
    angle = clockwise_angle_from_north(p["u"], p["v"])
    if not TAU / k - V2_RAY_TOL <= angle <= TAU / k:
        violations.append(f"v not within {V2_RAY_TOL} rad of the trailing ray of c(u,1)")
    radius = distance(p["u"], p["v"])
    for label in ("a", "b", "c"):
        if not distance(p[label], p["v"]) > radius:
            violations.append(f"{label} inside C_v")
    return violations


def random_nodeset(n: int, seed: int) -> NodeSet:
    """n distinct points uniform in the unit square, deterministic per
    seed; ids are p0..p{n-1}."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return _node_set(_sample_points(random.Random(seed), n))


def search_counterexample(
    family: str,
    k: int,
    n_nodes: int | None = None,
    seed: int = 0,
    budget: int = 1_000_000,
) -> SearchResult:
    """Sample node sets uniformly in the unit square until one whose
    family-k graph has a void turns up, or the budget runs out.

    With n_nodes=None each trial draws its size from 4..8. Deterministic
    given (family, k, n_nodes, seed, budget). Rejects k outside 1..5,
    where no counterexample exists, and a budget below one trial; k,
    n_nodes and budget must be integers (numpy's included), not bools.

    Trial 1 is built and scanned on its own; has_void's verdict on it
    stands. Later trials are drawn in batches of 2, 4, 8, ..., each
    built in one kernel pass and scanned in one whatever its sets' sizes.
    That path is separate from build, so a batch's first trial with a
    void is rebuilt and confirmed by check_void_free (RuntimeError if
    not). The draws come from the same random stream in the same order as
    one trial at a time, so the reported trials and nodes are those of
    the first trial with a void; draws past it are discarded.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    k = _integer(k, "k")
    if not 1 <= k <= 5:
        raise ValueError("k outside 1..5: theorem guarantees no counterexample")
    if n_nodes is not None:
        n_nodes = _integer(n_nodes, "node count")
        if n_nodes < 2:
            raise ValueError(f"need at least two nodes, got {n_nodes}")
    budget = _integer(budget, "trial budget")
    if budget < 1:
        raise ValueError(f"trial budget must be at least 1, got {budget}")
    rng = random.Random(seed)

    def draw():
        return _sample_points(rng, n_nodes if n_nodes is not None else rng.randint(4, 8))

    g = build(_node_set(draw()), family, k)
    if has_void(g):
        return SearchResult(nodes=g.nodes, trials=1)
    # a batch of the largest trials fits one construction block
    n_max = 8 if n_nodes is None else n_nodes
    cap = max(1, _BLOCK_PAIRS // (n_max * n_max))
    trial, size = 1, 2
    while trial < budget:
        batch = [draw() for _ in range(min(size, cap, budget - trial))]
        hit = _first_void(batch, family, k)
        if hit is not None:
            trial += hit + 1
            g = build(_node_set(batch[hit]), family, k)
            if check_void_free(g).void_free:
                raise RuntimeError(f"the void at trial {trial} is not confirmed by the pair scan")
            return SearchResult(nodes=g.nodes, trials=trial)
        trial += len(batch)
        size *= 2
    return SearchResult(nodes=None, trials=budget)


def _integer(value, name: str) -> int:
    """value as a plain int (see geometry._as_int), else a ValueError
    naming the argument."""
    i = _as_int(value)
    if i is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return i


def _sample_points(rng: random.Random, n: int) -> list[float]:
    """n distinct points drawn from rng uniformly in the unit square, as
    the flat coordinate list x0, y0, x1, y1, ..."""
    seen: dict[tuple[float, float], None] = {}
    while len(seen) < n:
        seen[rng.random(), rng.random()] = None  # an exact duplicate is drawn again
    return list(chain.from_iterable(seen))


def _node_set(coords: list[float]) -> NodeSet:
    """The node set p0..p{n-1} at the flat coordinates x0, y0, x1, y1, ..."""
    ids = (f"p{i}" for i in range(len(coords) // 2))
    return NodeSet(zip(ids, map(Point, coords[::2], coords[1::2])))
