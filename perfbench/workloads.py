"""The four benchmark workloads: inputs from a seed, one timed pass, and
the checks on what the pass returned.

Every workload is one process, one caller, closed loop: each call into
conegraph starts when the previous one has returned. The (n, k, family)
schedules of sweep and oracle are fixed, and only the coordinates come
from the seed, so a pass does the same amount of work under every seed.
search stops each (family, k) pair at a fixed trial count for the same
reason. All calls go through module attributes (``lib.construct.build``,
``lib.cli.main``, ...) so that tracing.install sees them.
"""

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout

FAMILIES = ("yao", "theta")

SWEEP_GRAPHS = 1100
SWEEP_RELAY_EVERY = 11  # odd, so relay checks alternate between families

SEARCH_PAIRS = tuple((f, k) for f in FAMILIES for k in range(1, 6))
SEARCH_TRIALS = 1500  # per (family, k) pair and pass
SEARCH_SEED_STRIDE = 100_000  # > SEARCH_TRIALS: seed ranges never overlap

LARGE_NODES = 1000
LARGE_CLUSTERS = 8
LARGE_SIGMA = 0.01

ORACLE_GRAPHS = 40


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def uniform_rows(rng, n, prefix):
    """n distinct (id, x, y) rows uniform in the unit square."""
    rows, seen = [], set()
    while len(rows) < n:
        xy = (rng.random(), rng.random())
        if xy not in seen:
            seen.add(xy)
            rows.append((f"{prefix}{len(rows)}", *xy))
    return rows


def make_nodes(lib, rows):
    point = lib.geometry.Point
    return lib.model.NodeSet((i, point(x, y)) for i, x, y in rows)


def raw_distance(a, b):
    dx = b[1] - a[1]
    dy = b[2] - a[2]
    return math.sqrt(dx * dx + dy * dy)


class Context:
    """What a pass and its checks share: the library, the check tally,
    the working directory and the recorded reference."""

    def __init__(self, lib, check, workdir, golden):
        self.lib = lib
        self.check = check
        self.workdir = workdir
        self.golden = golden  # None unless the seed is the default seed


# ---------------------------------------------------------------------------
# sweep: the k >= 6 theorem check (criteria 05 and 06)


def sweep_inputs(seed):
    rng = random.Random(seed)
    graphs = []
    for j in range(SWEEP_GRAPHS):
        n = 2 + j % 59
        k = 6 + (j // 2) % 11
        graphs.append((FAMILIES[j % 2], k, uniform_rows(rng, n, "p"), j % SWEEP_RELAY_EVERY == 0))
    return graphs


def _sweep_one(lib, family, k, rows, relay):
    nodes = make_nodes(lib, rows)
    report = lib.voidcheck.check_void_free(lib.construct.build(nodes, family, k))
    violations = None
    if relay:
        vc = lib.voidcheck
        checker = vc.check_yao_cone_relay if family == "yao" else vc.check_theta_cone_relay
        violations = checker(nodes, k)
    return report.void_free, violations


def sweep_pass(ctx, graphs, units):
    out = [units(_sweep_one, ctx.lib, *g) for g in graphs]
    return out, len(graphs) + sum(g[3] for g in graphs)


def sweep_verify(ctx, graphs, out, first):
    for (family, k, rows, _), (void_free, violations) in zip(graphs, out):
        ctx.check(void_free, f"{family} k={k} n={len(rows)} graph has a void")
        if violations is not None:
            ctx.check(not violations, f"{family} k={k} relay: {violations[:1]}")


# ---------------------------------------------------------------------------
# search: the k <= 5 counterexample search (criterion 08)


def search_inputs(seed):
    return seed * SEARCH_SEED_STRIDE


def search_pass(ctx, first_seed, units):
    search = ctx.lib.corpus.search_counterexample
    out = {}
    for family, k in SEARCH_PAIRS:
        calls, trials, seed = [], 0, first_seed
        while trials < SEARCH_TRIALS:
            r = units(search, family, k, seed=seed, budget=SEARCH_TRIALS - trials,
                      graphs=lambda r: r.trials)
            calls.append((seed, r.trials, r.nodes))
            trials += r.trials
            seed += 1
        out[f"{family}-{k}"] = calls
    return out, len(SEARCH_PAIRS) * SEARCH_TRIALS


def search_record(out):
    return {
        pair: {
            "hits": sum(nodes is not None for _, _, nodes in calls),
            "trials_sha256": digest(",".join(str(t) for _, t, _ in calls)),
        }
        for pair, calls in out.items()
    }


def search_verify(ctx, first_seed, out, first):
    if first is not None:
        ctx.check(out == first, "search outputs differ between passes")
        return
    lib = ctx.lib
    for pair, calls in out.items():
        family, k = pair.split("-")
        ctx.check(sum(t for _, t, _ in calls) == SEARCH_TRIALS, f"{pair} trial total")
        for seed, _, nodes in calls:
            if nodes is not None:
                g = lib.construct.build(nodes, family, int(k))
                ctx.check(not lib.voidcheck.check_void_free(g).void_free,
                          f"{pair} seed {seed}: hit is void-free")
    if ctx.golden is not None:
        record = search_record(out)
        for pair, want in ctx.golden.items():
            ctx.check(record.get(pair) == want, f"{pair} trial counts differ from the reference")


# ---------------------------------------------------------------------------
# large: one user's node sets through the CLI, from file to output


def large_inputs(seed):
    rng = random.Random(seed)
    uniform = uniform_rows(rng, LARGE_NODES, "u")
    centers = [(0.1 + 0.8 * rng.random(), 0.1 + 0.8 * rng.random())
               for _ in range(LARGE_CLUSTERS)]
    clustered, seen = [], set()
    while len(clustered) < LARGE_NODES:
        cx, cy = centers[len(clustered) % LARGE_CLUSTERS]
        xy = (rng.gauss(cx, LARGE_SIGMA), rng.gauss(cy, LARGE_SIGMA))
        if xy not in seen:
            seen.add(xy)
            clustered.append((f"c{len(clustered)}", *xy))
    return uniform, clustered


def cli_call(lib, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def large_pass(ctx, sets, units):
    lib = ctx.lib
    paths = []
    for name, rows in zip(("uniform", "clustered"), sets):
        path = ctx.workdir / f"{name}.json"
        path.write_text(lib.model.node_set_to_json(make_nodes(lib, rows)), encoding="utf-8")
        paths.append(str(path))
    svg_path = ctx.workdir / "clustered.svg"
    svg_path.unlink(missing_ok=True)
    calls = [units(cli_call, lib, ["check", "--input", paths[0], "--family", "yao", "--k", "6"]),
             units(cli_call, lib, ["check", "--input", paths[1], "--family", "yao", "--k", "4"])]
    witnesses = json.loads(calls[1][1])["witnesses"] if calls[1][0] == 1 else []
    if witnesses:
        pair = [witnesses[0]["u"], witnesses[0]["v"]]
        calls.append(units(cli_call, lib, ["render", "--input", paths[1], "--family", "yao",
                                           "--k", "4", "--out", str(svg_path),
                                           "--highlight-pair", *pair]))
    svg = svg_path.read_bytes() if svg_path.exists() else b""
    return (calls, svg), 2


def large_record(out):
    calls, svg = out
    return {"stdout_sha256": [digest(stdout) for _, stdout in calls], "svg_sha256": digest(svg)}


def large_verify(ctx, sets, out, first):
    calls, svg = out
    ctx.check([code for code, _ in calls] == [0, 1, 0], f"exit codes {[c for c, _ in calls]}")
    if first is not None:
        ctx.check(large_record(out) == large_record(first), "CLI outputs differ between passes")
        return
    lib = ctx.lib
    ctx.check(json.loads(calls[0][1]) == {"void_free": True, "witnesses": []},
              "uniform yao k=6 set is not reported void-free")
    rows = {r[0]: r for r in sets[1]}
    nodes = make_nodes(lib, sets[1])
    g = lib.construct.build(nodes, "yao", 4)
    for w in json.loads(calls[1][1])["witnesses"]:
        u, v = rows[w["u"]], rows[w["v"]]
        d = raw_distance(u, v)
        nbrs = [sets[1][i] for i in g.neighbors(nodes.index_of(w["u"]))]
        best = min((raw_distance(x, v) for x in nbrs), default=math.inf)
        reported = math.inf if w["min_neighbor_d"] is None else w["min_neighbor_d"]
        ctx.check(w["d_uv"] == d and best >= d and reported == best,
                  f"witness ({w['u']}, {w['v']}) does not hold on raw distances")
    ctx.check(b'class="aux-circle"' in svg, "SVG lacks the highlighted pair's circle")
    if ctx.golden is not None:
        ctx.check(large_record(out) == ctx.golden, "CLI outputs differ from the reference")


# ---------------------------------------------------------------------------
# oracle: the pair scan cross-checked by greedy routing (criterion 07)


def oracle_inputs(seed):
    rng = random.Random(seed)
    graphs = []
    for j in range(ORACLE_GRAPHS):
        n = 60 + (j * 61) // ORACLE_GRAPHS
        graphs.append((FAMILIES[(j // 12) % 2], 1 + j % 12, uniform_rows(rng, n, "p")))
    return graphs


def _oracle_one(lib, family, k, rows):
    g = lib.construct.build(make_nodes(lib, rows), family, k)
    return lib.voidcheck.check_void_free(g), lib.voidcheck.check_by_routing(g)


def oracle_pass(ctx, graphs, units):
    out = [units(_oracle_one, ctx.lib, *g) for g in graphs]
    return out, len(graphs)


def oracle_verify(ctx, graphs, out, first):
    for (family, k, rows), (scan, routed) in zip(graphs, out):
        label = f"{family} k={k} n={len(rows)}"
        ctx.check(scan.void_free == routed.void_free, f"{label}: verdicts disagree")
        stuck = {(w.u, w.v) for w in routed.witnesses}
        ctx.check(stuck <= {(w.u, w.v) for w in scan.witnesses},
                  f"{label}: stuck pairs outside the scan's witnesses")
        if k >= 6:
            ctx.check(scan.void_free, f"{label}: void at k >= 6")


# name -> (inputs, pass, verify)
WORKLOADS = {
    "sweep": (sweep_inputs, sweep_pass, sweep_verify),
    "search": (search_inputs, search_pass, search_verify),
    "large": (large_inputs, large_pass, large_verify),
    "oracle": (oracle_inputs, oracle_pass, oracle_verify),
}
