"""The benchmark harness (perfbench/) traces conegraph by replacing
attributes by name in the module namespaces where callers look them
up. These tests install its tracer the way perfbench/run.py does, so a
refactor that removes or moves a wrapped name fails here first."""

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    yield run, tracing
    for name in ("run", "tracing", "workloads"):
        sys.modules.pop(name, None)


def load_lib(run):
    """The module namespace of run.load_lib, over the conegraph already
    imported."""
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"conegraph.{name}") for name in run.MODULES}
    )


def test_tracer_installs_and_restores(harness):
    run, tracing = harness
    lib = load_lib(run)
    before = {name: dict(vars(getattr(lib, name))) for name in run.MODULES}
    cached = dict(vars(lib.model.GeometricGraph))
    tracer = tracing.Tracer()
    cones = tracing.Tracer()
    try:
        tracing.install(tracer, lib)
        for mod in (lib.construct, lib.voidcheck):
            cones.count_calls(mod, "cone_of", "geometry.cone_assignments")
    finally:
        cones.restore()
        tracer.restore()
    assert {name: dict(vars(getattr(lib, name))) for name in run.MODULES} == before
    assert dict(vars(lib.model.GeometricGraph)) == cached


def test_wrapped_names_are_the_ones_called(harness):
    run, tracing = harness
    lib = load_lib(run)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, lib)
        for mod in (lib.construct, lib.voidcheck):
            tracer.count_calls(mod, "cone_of", "geometry.cone_assignments")
        result = lib.corpus.search_counterexample("yao", 1, n_nodes=4, seed=5, budget=50)
        assert lib.voidcheck.check_yao_cone_relay(result.nodes, 6) == []
        assert lib.voidcheck.check_theta_cone_relay(result.nodes, 6) == []
        g = lib.construct.build(result.nodes, "yao", 1)
        assert not lib.voidcheck.check_by_routing(g).void_free
    finally:
        tracer.restore()
    assert result.found
    names = {span[0] for span in tracer.spans}
    assert {
        "corpus.search",
        "construct.build",
        "construct.directed",
        "model.graph_init",
        "model.dist_matrix",
        "voidcheck.has_void",
        "voidcheck.scan",
        "voidcheck.relay",
        "voidcheck.oracle",
    } <= names
    assert tracer.counts["corpus.trials"] == result.trials
    # construction and the relay checks assign cones in numpy, never per pair
    assert tracer.counts["geometry.cone_assignments"] == 0


def test_cone_of_count_sees_relay_checks_only(harness):
    # run.traced_run counts cone_of where construct and voidcheck look it
    # up; the construction kernel and the relay checks both assign cones in
    # numpy, so the count stays 0 unless a per-pair loop comes back
    run, tracing = harness
    lib = load_lib(run)
    built, relayed = tracing.Tracer(), tracing.Tracer()
    try:
        built.count_calls(lib.construct, "cone_of", "geometry.cone_assignments")
        relayed.count_calls(lib.voidcheck, "cone_of", "geometry.cone_assignments")
        nodes = lib.corpus.random_nodeset(12, seed=7)
        lib.construct.build(nodes, "theta", 6)
        assert lib.voidcheck.check_yao_cone_relay(nodes, 6) == []
    finally:
        relayed.restore()
        built.restore()
    assert built.counts["geometry.cone_assignments"] == 0
    assert relayed.counts["geometry.cone_assignments"] == 0


def test_oracle_routes_no_pair_through_greedy_route(harness):
    # check_by_routing keeps each node's neighbor minima from its own pass over
    # the distance matrix and routes no pair; the harness still wraps
    # greedy_route by name, and on the oracle that count stays 0
    run, tracing = harness
    lib = load_lib(run)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, lib)
        g = lib.construct.build(lib.corpus.random_nodeset(30, seed=11), "yao", 2)
        report = lib.voidcheck.check_by_routing(g)
        scan = lib.voidcheck.check_void_free(g)
    finally:
        tracer.restore()
    assert report.witnesses
    assert report == scan
    assert tracer.counts["routing.routes"] == 0
    assert tracer.counts["routing.stuck"] == 0
    assert tracer.counts["routing.hops"] == 0
