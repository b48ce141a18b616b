"""Spans and counts recorded around calls into conegraph's modules.

The program is not edited: each public function is replaced, for the
length of one pass, by a wrapper in the module namespace where its
callers look it up (``conegraph.cli.check_void_free``,
``conegraph.voidcheck.greedy_route``, ...). Cached properties of
``GeometricGraph`` are replaced on the class the same way. ``restore``
puts every original back.

Spans live in memory as ``[name, start, end, parent, root]`` lists,
with parent and root as indices into the span list; the harness opens
a root span per unit of work (a graph, a search call, a CLI call), so
the spans of one unit share a root. ``summary`` folds them into
per-layer totals and self times at the end of a pass.
"""

from collections import Counter
from functools import cached_property
from time import perf_counter

# Layers whose spans are timed; geometry is counted only (see count_calls).
TIMED_LAYERS = ("construct", "model", "voidcheck", "routing", "corpus", "render", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        rec = [name, 0.0, 0.0, parent, root]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name (harness root spans)."""
        return self._wrapped(name, fn, None)(*args, **kwargs)

    def _wrapped(self, name, fn, count):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def wrap(self, module, attr, name, count=None):
        orig = getattr(module, attr)
        self._undo.append((module, attr, orig))
        setattr(module, attr, self._wrapped(name, orig, count))

    def count_calls(self, module, attr, key):
        """Count calls to module.attr without a span, for functions called
        per pair, where a timed wrapper would distort their callers' spans."""
        orig = getattr(module, attr)
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return orig(*args)

        self._undo.append((module, attr, orig))
        setattr(module, attr, counted)

    def wrap_cached(self, cls, attr, name):
        orig = cls.__dict__[attr]
        prop = cached_property(self._wrapped(name, orig.func, None))
        prop.__set_name__(cls, attr)
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, prop)

    def restore(self):
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    # -- folding -----------------------------------------------------------

    def summary(self):
        """Per-name inclusive time, per-layer self time, and span count."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = Counter()
        self_s = Counter()
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            total[name] += t1 - t0
            self_s[name.split(".", 1)[0]] += t1 - t0 - child[i]
        return total, self_s, len(spans)


def _count_directed(counts, args, kwargs, g):
    n = len(g.nodes)
    counts["construct.builds"] += 1
    counts["construct.pairs"] += n * (n - 1)
    counts["construct.edges"] += len(g.edges)


def _count_scan(counts, args, kwargs, report):
    n = len(args[0].nodes)
    counts["voidcheck.scan_pairs"] += n * (n - 1)
    counts["voidcheck.witnesses"] += len(report.witnesses)


def _count_route(counts, args, kwargs, result):
    counts["routing.routes"] += 1
    counts["routing.hops"] += len(result.path) - 1
    counts["routing.stuck"] += not result.delivered


def _count_search(counts, args, kwargs, result):
    counts["corpus.trials"] += result.trials
    counts["corpus.hits"] += result.found


def _count_svg(counts, args, kwargs, svg):
    counts["render.svg_bytes"] += len(svg.encode("utf-8"))


def install(tracer, lib):
    """Wrap the public functions the workloads reach, in each module that
    looks them up. lib is a namespace holding conegraph's modules."""
    w = tracer.wrap
    for mod in (lib.construct, lib.voidcheck):
        w(mod, "build_directed_yao", "construct.directed", _count_directed)
        w(mod, "build_directed_theta", "construct.directed", _count_directed)
    for mod in (lib.construct, lib.corpus, lib.cli):
        w(mod, "build", "construct.build")
    # undirect's cost is GeometricGraph validation, so it is a model span
    w(lib.construct, "undirect", "model.graph_init")
    for mod in (lib.voidcheck, lib.corpus, lib.cli):
        w(mod, "check_void_free", "voidcheck.scan", _count_scan)
    w(lib.corpus, "has_void", "voidcheck.has_void")
    w(lib.voidcheck, "check_by_routing", "voidcheck.oracle")
    w(lib.voidcheck, "check_yao_cone_relay", "voidcheck.relay")
    w(lib.voidcheck, "check_theta_cone_relay", "voidcheck.relay")
    w(lib.voidcheck, "greedy_route", "routing.route", _count_route)
    w(lib.corpus, "search_counterexample", "corpus.search", _count_search)
    w(lib.cli, "node_set_from_json", "model.parse")
    w(lib.model, "node_set_to_json", "model.serialize")
    w(lib.cli, "render_svg", "render.svg", _count_svg)
    w(lib.cli, "main", "cli.main")
    tracer.wrap_cached(lib.model.GeometricGraph, "dist_matrix", "model.dist_matrix")
    tracer.wrap_cached(lib.model.GeometricGraph, "_dist_rows", "model.dist_rows")
